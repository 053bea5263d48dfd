"""Reference host-speed probe: a fixed CPU kernel timed in a helper process.

On a small shared VM the same code runs up to 2x slower in phases that
last from seconds to tens of minutes, so a raw timing measures the host
as much as the program.  The benchmark therefore brackets every timed
unit with this probe and reports each timing at reference host speed::

    corrected = raw * PROBE_REF_MS / probe

where ``probe`` is the median of the probes taken within
``PROBE_WINDOW_S`` of the unit -- at least the one just before and the
one just after it, so with two probes it is their mean.  Single probes
have outliers; speed phases last seconds, so the neighbours of a unit
share its host speed.  A unit with fewer than two probes that near is
an error in the benchmark, not a timing.

Run as a script, this file *is* the helper: it reads one line per
request on stdin, runs the kernel and answers with the kernel's CPU
time in ms.  CPU time shows the host's slow phases but not the wait
for a core that the workload's own processes cause, so a probe taken
while a server is busy still reads host speed.  The helper imports
numpy and nothing of ``repro``, so no thread the program leaves
running can slow the probe through the interpreter lock.  A change
that moves ``host.probe_ms`` has measured the probe, not itself.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import threading
import time
from typing import List, Tuple

import numpy as np

from benchstats import median

#: Probe time (ms) that defines reference host speed.  A constant, not
#: a measurement: it only sets the scale every corrected timing is
#: reported at, so it must never change between the runs compared.
PROBE_REF_MS = 1.6

#: Probes whose midpoint lies this close to a unit correct it.
PROBE_WINDOW_S = 0.5

_LOOP_ITERATIONS = 25_000
_ARRAY_SIZE = 40_000
_KERNELS_PER_PROBE = 3


def kernel(buffer: np.ndarray) -> float:
    """One probe: an interpreter loop plus numpy ``sin``/``exp``/``sort``.

    Returns the CPU time it took, in ms.
    """
    start = time.thread_time()
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i
    np.sort(np.exp(np.sin(buffer)))
    return (time.thread_time() - start) * 1e3


class Timeline:
    """Probes of one run, in time order: ``(start, end, probe_ms)``."""

    def __init__(self) -> None:
        self.rows: List[Tuple[float, float, float]] = []
        self._mids: List[float] = []

    def add(self, start: float, end: float, value: float) -> None:
        self.rows.append((start, end, value))
        self._mids.append((start + end) / 2.0)

    def factor(self, start: float, end: float) -> float:
        """``PROBE_REF_MS / probe`` for one interval (see module doc)."""
        lo = bisect.bisect_left(self._mids, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self._mids, end + PROBE_WINDOW_S)
        near = [row[2] for row in self.rows[lo:hi]]
        if len(near) < 2:
            raise RuntimeError(
                f"{len(near)} probe(s) within {PROBE_WINDOW_S} s of the "
                f"interval [{start:.3f}, {end:.3f}]; every timed unit "
                "needs one before and one after")
        return PROBE_REF_MS / median(near)

    def values(self) -> List[float]:
        return [value for _, _, value in self.rows]


class Probe:
    """Client of one probe helper process; thread-safe.

    Every :meth:`measure` lands on :attr:`timeline`, from which the
    probes bracketing any timed interval are found.
    """

    def __init__(self, warmup: int = 5) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        self._lock = threading.Lock()
        self.timeline = Timeline()
        for _ in range(warmup):
            self._ask()

    def _ask(self) -> float:
        self._proc.stdin.write("p\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("probe helper exited")
        return float(line)

    def measure(self, count: int = 1) -> float:
        """Run ``count`` probes now, recording each; returns the last."""
        with self._lock:
            for _ in range(count):
                start = time.perf_counter()
                value = self._ask()
                self.timeline.add(start, time.perf_counter(), value)
        return value

    def factor(self, start: float, end: float) -> float:
        return self.timeline.factor(start, end)

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write("q\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()


def _serve() -> None:
    buffer = np.random.default_rng(0).random(_ARRAY_SIZE)
    for line in sys.stdin:
        if line.strip() == "q":
            break
        # The median of a few kernels drops one run that a context
        # switch happened to land in.
        value = median([kernel(buffer) for _ in range(_KERNELS_PER_PROBE)])
        sys.stdout.write(f"{value!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
