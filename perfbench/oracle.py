"""Correctness oracle and the run's operation tally.

Screened dies are checked against the per-die seed flow,
``SignatureTester(..., refine=False)``, which the engine must match bit
for bit.  A die whose NDF or verdict differs fails its operation; so
does an error reply.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence


class Tally:
    """Operations attempted and failed in one run; thread-safe."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)


class Oracle:
    """Per-die reference tester at one capture density."""

    def __init__(self, samples_per_period: int) -> None:
        from repro.paper import paper_setup

        self.tester = paper_setup(samples_per_period=samples_per_period,
                                  refine=False).tester

    def ndf(self, spec) -> float:
        from repro.filters.biquad import BiquadFilter

        return self.tester.ndf_of(BiquadFilter(spec))

    def dies_agree(self, specs: Sequence, ndfs: Sequence[float],
                   verdicts: Optional[Sequence[bool]],
                   threshold: Optional[float],
                   indices: Sequence[int]) -> bool:
        """True when every sampled die's NDF and verdict match."""
        for i in indices:
            expected = self.ndf(specs[i])
            if float(ndfs[i]) != expected:
                return False
            if verdicts is not None and \
                    bool(verdicts[i]) != (expected <= threshold):
                return False
        return True
