"""Structured outcome of one fleet diagnosis.

A :class:`DiagnosisResult` is array-resident like the campaign result
it descends from: the full ``(N, F)`` die-to-fault distance matrix,
the top-k candidate table and per-die confidence margins all live in
NumPy arrays.  Per-die :class:`~repro.core.signature.Signature`
objects appear only at the report edge (:meth:`DiagnosisResult.die`),
mirroring the campaign engine's design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch


def json_number(value) -> Optional[float]:
    """Float for JSON payloads: None when not finite.

    ``json.dumps`` happily emits the non-standard ``Infinity``/``NaN``
    literals that strict parsers reject; every numeric field of the
    diagnosis payloads goes through this instead.
    """
    value = float(value)
    return value if np.isfinite(value) else None


@dataclass(frozen=True)
class DieDiagnosis:
    """One die's diagnosis, unpacked for a human report.

    The candidate list pairs fault labels with their distances, best
    first; ``signature`` is the die's observed signature when the
    matcher retained the batch.
    """

    die_label: str
    candidates: Tuple[Tuple[str, float], ...]
    margin: float
    signature: Optional[Signature] = None

    @property
    def best(self) -> str:
        """Top-1 fault label."""
        return self.candidates[0][0]

    def __str__(self) -> str:
        ranked = ", ".join(f"{label} ({distance:.4f})"
                           for label, distance in self.candidates)
        return (f"{self.die_label}: {self.best} "
                f"[margin {self.margin:.4f}; {ranked}]")


@dataclass
class DiagnosisResult:
    """Verdict of matching a fleet batch against a fault dictionary.

    Attributes
    ----------
    distances:
        ``(N, F)`` die-to-fault distance matrix (NDF or dwell metric).
    top_indices:
        ``(N, k)`` fault indices, best first (stable tie-break by
        fault index).
    top_distances:
        ``(N, k)`` distances aligned with ``top_indices``.
    fault_labels:
        Dictionary fault labels, column order.
    metric:
        Distance metric that produced the matrix.
    die_labels:
        One identifier per diagnosed die (defaults to die indices).
    batch:
        The observed rows (retained so :meth:`die` can unpack per-die
        signatures at the report edge); may be None.
    timing:
        Wall-clock seconds per matcher stage.
    """

    distances: np.ndarray
    top_indices: np.ndarray
    top_distances: np.ndarray
    fault_labels: List[str]
    metric: str = "ndf"
    die_labels: Optional[List[str]] = None
    batch: Optional[SignatureBatch] = None
    timing: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.distances = np.atleast_2d(np.asarray(self.distances,
                                                  dtype=float))
        self.top_indices = np.atleast_2d(np.asarray(self.top_indices,
                                                    dtype=np.int64))
        self.top_distances = np.atleast_2d(
            np.asarray(self.top_distances, dtype=float))
        if self.top_indices.shape != self.top_distances.shape \
                or self.top_indices.shape[0] != self.distances.shape[0]:
            raise ValueError("top-k tables must align with the "
                             "distance matrix")
        if self.die_labels is None:
            self.die_labels = [f"die{i:05d}"
                               for i in range(self.num_dies)]

    # ------------------------------------------------------------------
    @property
    def num_dies(self) -> int:
        """Diagnosed population size N."""
        return int(self.distances.shape[0])

    @property
    def num_faults(self) -> int:
        """Dictionary size F."""
        return int(self.distances.shape[1])

    @property
    def top_k(self) -> int:
        """Candidates retained per die."""
        return int(self.top_indices.shape[1])

    @property
    def best_indices(self) -> np.ndarray:
        """Top-1 fault index per die."""
        return self.top_indices[:, 0]

    def matches(self) -> List[str]:
        """Top-1 fault label per die."""
        return [self.fault_labels[i] for i in self.best_indices]

    def margins(self) -> np.ndarray:
        """Per-die confidence margin: distance gap runner-up - best.

        A zero margin means the top two candidates are exactly tied --
        the die sits on an ambiguity group and the top-1 label alone
        should not be trusted.
        """
        if self.top_k < 2:
            return np.full(self.num_dies, np.inf)
        return self.top_distances[:, 1] - self.top_distances[:, 0]

    def ambiguous(self, epsilon: float = 1e-12) -> np.ndarray:
        """Mask of dies whose top-2 candidates tie within epsilon."""
        return self.margins() <= epsilon

    def accuracy(self, true_indices) -> float:
        """Top-1 accuracy against ground-truth fault indices."""
        true_indices = np.asarray(true_indices)
        if true_indices.shape != (self.num_dies,):
            raise ValueError("ground truth must give one fault index "
                             "per die")
        if self.num_dies == 0:
            return float("nan")
        return float(np.mean(self.best_indices == true_indices))

    def group_accuracy(self, true_indices, groups) -> float:
        """Top-1 accuracy up to ambiguity groups.

        A top-1 prediction inside the true fault's group counts as
        correct -- the fair score when the dictionary provably cannot
        separate group members (see
        :func:`repro.diagnosis.ambiguity_groups`).  Faults absent
        from ``groups`` are treated as singletons.
        """
        true_indices = np.asarray(true_indices)
        if true_indices.shape != (self.num_dies,):
            raise ValueError("ground truth must give one fault index "
                             "per die")
        if self.num_dies == 0:
            return float("nan")
        member = {}
        for group in groups:
            for index in group:
                member[index] = set(group)
        hits = [int(best) in member.get(int(truth), {int(truth)})
                for best, truth in zip(self.best_indices,
                                       true_indices)]
        return float(np.mean(hits))

    # ------------------------------------------------------------------
    # Report edge
    # ------------------------------------------------------------------
    def die(self, i: int) -> DieDiagnosis:
        """Per-die report object (Signature unpacked here only)."""
        candidates = tuple(
            (self.fault_labels[j], float(d))
            for j, d in zip(self.top_indices[i], self.top_distances[i]))
        signature = self.batch.row(i) if self.batch is not None else None
        return DieDiagnosis(self.die_labels[i], candidates,
                            float(self.margins()[i]), signature)

    def summary(self, max_rows: int = 10) -> str:
        """Human-readable block (CLI / report output)."""
        lines = [f"diagnosed:   {self.num_dies} dies x "
                 f"{self.num_faults} dictionary faults "
                 f"({self.metric} metric, top-{self.top_k})"]
        if self.num_dies:
            counts: Dict[str, int] = {}
            for label in self.matches():
                counts[label] = counts.get(label, 0) + 1
            ranked = sorted(counts.items(), key=lambda kv: -kv[1])
            lines.append("matches:     " + ", ".join(
                f"{label} x{count}" for label, count in ranked))
            ambiguous = int(np.count_nonzero(self.ambiguous()))
            lines.append(f"ambiguous:   {ambiguous} dies tie their "
                         f"top-2 candidates")
            for i in range(min(max_rows, self.num_dies)):
                lines.append(f"  {self.die(i)}")
            if self.num_dies > max_rows:
                lines.append(f"  ... {self.num_dies - max_rows} more")
        total = self.timing.get("total")
        if total:
            lines.append(f"throughput:  {self.num_dies / total:,.0f} "
                         f"dies/s ({total * 1e3:.1f} ms total)")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-ready machine summary (CLI ``--json``).

        Non-finite values (the infinite margin of a top-1-only match,
        NaN accuracies) become None -- strict JSON has no
        Infinity/NaN literals.
        """
        return {
            "dies": self.num_dies,
            "faults": self.num_faults,
            "metric": self.metric,
            "top_k": self.top_k,
            "matches": [
                {"die": self.die_labels[i],
                 "candidates": [
                     {"fault": self.fault_labels[j],
                      "distance": float(d)}
                     for j, d in zip(self.top_indices[i],
                                     self.top_distances[i])],
                 "margin": json_number(m)}
                for i, m in enumerate(self.margins())],
            "ambiguous_dies": int(np.count_nonzero(self.ambiguous())),
            "timing": self.timing,
        }
