"""Structured outcome of one campaign run.

A :class:`CampaignResult` carries the per-die NDFs and verdicts plus
the fleet-level statistics every consumer of the engine needs: yield
loss / test-escape counts against a ground-truth tolerance, pass rates,
section timings and golden-cache counters.  The analysis modules
(:mod:`repro.analysis.yield_model`, :mod:`repro.analysis.multiparam`)
and the Monte Carlo benchmarks consume this object instead of
re-deriving statistics from per-die loops.

The result is also the hand-off point to the fault-diagnosis stage: a
campaign run with ``keep_signatures=True`` retains the fleet's packed
:class:`~repro.core.signature_batch.SignatureBatch`, and
:meth:`CampaignResult.diagnose` matches the failing rows against a
:class:`repro.diagnosis.FaultDictionary` (screen -> diagnose, no
re-simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.yield_model import (
    CutUnit,
    YieldReport,
    yield_report_from_arrays,
)
from repro.campaign.cache import CacheInfo
from repro.core.multi_signature_batch import MultiSignatureBatch
from repro.core.signature_batch import SignatureBatch


@dataclass
class CampaignResult:
    """Verdicts and statistics of one batched test campaign.

    Attributes
    ----------
    ndfs:
        Per-die NDF against the golden signature, in population order.
    threshold:
        NDF decision threshold used for the verdicts (None = no
        decision requested; ``verdicts`` is then None too).
    verdicts:
        Boolean PASS (True) / FAIL (False) per die.
    f0_deviations, q_deviations:
        Ground-truth parameter deviations where the population knows
        them (NaN otherwise, e.g. for catastrophic faults).
    labels:
        One identifier per die (die index, fault label, corner name).
    tolerance:
        Ground-truth spec tolerance used by the yield statistics.
    timing:
        Wall-clock seconds per engine section: always ``total``, plus
        ``golden`` and the stage timings of the batched pipeline
        (``traces``, ``encode``, ``signature``, ``ndf``); noise
        campaigns add a ``noise`` stage and sharded runs a ``merge``
        section.
    executor:
        Name of the executor that ran the campaign.
    cache_info:
        Golden-cache counters observed right after the run.
    signature_batch:
        Packed per-die signatures (one row per die, population order)
        when the campaign ran with ``keep_signatures=True``; None
        otherwise.  This is what :meth:`diagnose` matches against a
        fault dictionary.  For a multi-signature campaign this is
        channel 0 of ``multi_signature_batch`` (the channel-0
        contract keeps every single-channel consumer working).
    channel_ndfs, channel_thresholds, channel_verdicts:
        Multi-signature campaigns (``encoders=[...]``) additionally
        carry the full ``(N, K)`` per-channel NDF matrix, one
        threshold per channel and the aligned per-channel verdicts;
        all None for single-channel runs.  Column 0 is bit-identical
        to ``ndfs``/``verdicts``.
    multi_signature_batch:
        The packed K-channel
        :class:`~repro.core.multi_signature_batch.MultiSignatureBatch`
        of a multi-signature campaign run with
        ``keep_signatures=True``; what :meth:`diagnose` matches
        against a multi-channel fault dictionary.
    shard_stats:
        Sharded campaigns (:meth:`CampaignEngine.run_sharded`) attach
        the coordinator's lifecycle counters here -- shards planned /
        dispatched / completed / reassigned, worker count and merge
        seconds; None for every other execution mode.
    """

    ndfs: np.ndarray
    threshold: Optional[float] = None
    verdicts: Optional[np.ndarray] = None
    f0_deviations: Optional[np.ndarray] = None
    q_deviations: Optional[np.ndarray] = None
    labels: Optional[List[str]] = None
    tolerance: Optional[float] = None
    timing: Dict[str, float] = field(default_factory=dict)
    executor: str = "serial"
    cache_info: Optional[CacheInfo] = None
    signature_batch: Optional[SignatureBatch] = None
    channel_ndfs: Optional[np.ndarray] = None
    channel_thresholds: Optional[np.ndarray] = None
    channel_verdicts: Optional[np.ndarray] = None
    multi_signature_batch: Optional[MultiSignatureBatch] = None
    shard_stats: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        self.ndfs = np.asarray(self.ndfs, dtype=float)
        if self.verdicts is not None:
            self.verdicts = np.asarray(self.verdicts, dtype=bool)
            if self.verdicts.shape != self.ndfs.shape:
                raise ValueError("verdicts must align with ndfs")
        if self.channel_ndfs is not None:
            self.channel_ndfs = np.asarray(self.channel_ndfs,
                                           dtype=float)
            if self.channel_ndfs.ndim != 2 \
                    or self.channel_ndfs.shape[0] != self.ndfs.size:
                raise ValueError("channel NDFs must be (N, K)")

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------
    @property
    def num_dies(self) -> int:
        """Population size."""
        return int(self.ndfs.size)

    @property
    def pass_count(self) -> int:
        """Dies whose NDF lies inside the acceptance band."""
        if self.verdicts is None:
            raise ValueError("campaign ran without a decision band")
        return int(np.count_nonzero(self.verdicts))

    @property
    def fail_count(self) -> int:
        """Dies flagged FAIL."""
        return self.num_dies - self.pass_count

    @property
    def num_channels(self) -> int:
        """Signature channels carried by this result (1 when plain)."""
        if self.channel_ndfs is None:
            return 1
        return int(self.channel_ndfs.shape[1])

    @property
    def combined_verdicts(self) -> np.ndarray:
        """OR-verdict over the signature channels: FAIL if *any*
        channel flags the die (PASS only when every channel passes).

        For a single-channel campaign this is simply ``verdicts``;
        the extra channels can only tighten the screen, never loosen
        it -- channel 0 remains the production verdict.
        """
        if self.channel_verdicts is not None:
            return np.all(self.channel_verdicts, axis=1)
        if self.verdicts is None:
            raise ValueError("campaign ran without a decision band")
        return self.verdicts

    @property
    def combined_fail_count(self) -> int:
        """Dies flagged FAIL by at least one channel."""
        return int(np.count_nonzero(~self.combined_verdicts))

    def ndf_percentile(self, q: float) -> float:
        """Percentile of the NDF distribution (NaN when empty)."""
        if self.num_dies == 0:
            return float("nan")
        return float(np.percentile(self.ndfs, q))

    def dies_per_second(self) -> float:
        """Throughput of the run (NaN without timing)."""
        total = self.timing.get("total", 0.0)
        if total <= 0.0:
            return float("nan")
        return self.num_dies / total

    # ------------------------------------------------------------------
    # Yield economics (needs ground-truth deviations)
    # ------------------------------------------------------------------
    def yield_report(self, tolerance: Optional[float] = None,
                     threshold: Optional[float] = None) -> YieldReport:
        """Confusion matrix of the campaign against the ground truth.

        Vectorized equivalent of
        :func:`repro.analysis.yield_model.yield_escape_analysis`.
        """
        tolerance = tolerance if tolerance is not None else self.tolerance
        threshold = threshold if threshold is not None else self.threshold
        if tolerance is None or threshold is None:
            raise ValueError("need both a tolerance and a threshold")
        if self.f0_deviations is None:
            raise ValueError(
                "population carries no ground-truth deviations")
        return yield_report_from_arrays(self.f0_deviations, self.ndfs,
                                        float(threshold),
                                        float(tolerance))

    def escape_rate(self, tolerance: Optional[float] = None,
                    threshold: Optional[float] = None) -> float:
        """Fraction of truly-bad dies that passed."""
        return self.yield_report(tolerance, threshold).escape_rate

    def yield_loss_rate(self, tolerance: Optional[float] = None,
                        threshold: Optional[float] = None) -> float:
        """Fraction of truly-good dies that failed."""
        return self.yield_report(tolerance, threshold).yield_loss_rate

    # ------------------------------------------------------------------
    # Diagnosis edge (repro.diagnosis)
    # ------------------------------------------------------------------
    def failing_indices(self) -> np.ndarray:
        """Population indices of the dies flagged FAIL."""
        if self.verdicts is None:
            raise ValueError("campaign ran without a decision band")
        return np.flatnonzero(~self.verdicts)

    def failing_labels(self) -> List[str]:
        """Labels of the dies flagged FAIL (fault names for a
        fault-dictionary population)."""
        if self.labels is None:
            raise ValueError("population carries no labels")
        return [self.labels[i] for i in self.failing_indices()]

    def diagnose(self, dictionary, top_k: int = 3,
                 failing_only: bool = True, metric: str = "ndf"):
        """Match this campaign's dies against a fault dictionary.

        Requires the campaign to have run with
        ``keep_signatures=True`` (the packed batch is the matcher's
        input).  With ``failing_only`` (default) only the FAIL rows
        are diagnosed -- the screen's verdict gates the diagnosis, as
        on a real tester; otherwise every die is matched.  Returns a
        :class:`repro.diagnosis.DiagnosisResult`.

        A :class:`repro.diagnosis.MultiFaultDictionary` matches
        against the retained multi-channel batch instead (the
        campaign must have run with the same ``encoders`` list the
        dictionary was compiled with); distances then combine across
        channels, which is what splits single-signature ambiguity
        groups.
        """
        from repro.diagnosis import (
            DictionaryMatcher,
            MultiDictionaryMatcher,
            MultiFaultDictionary,
        )

        if isinstance(dictionary, MultiFaultDictionary):
            batch = self.multi_signature_batch
            if batch is None and dictionary.num_channels == 1 \
                    and self.signature_batch is not None:
                # A one-channel "multi" dictionary (the search's
                # degenerate outcome) matches plain campaign results.
                batch = MultiSignatureBatch([self.signature_batch])
            if batch is None:
                raise ValueError(
                    "multi-channel diagnosis needs a multi-signature "
                    "campaign run with keep_signatures=True (pass "
                    "encoders=dictionary.encoders to engine.run)")
            matcher = MultiDictionaryMatcher(dictionary)
        else:
            if self.signature_batch is None:
                raise ValueError(
                    "campaign ran without keep_signatures=True; re-run "
                    "with engine.run(..., keep_signatures=True) to "
                    "retain the packed signatures diagnosis needs")
            batch = self.signature_batch
            matcher = DictionaryMatcher(dictionary)
        labels = self.labels
        if failing_only:
            indices = self.failing_indices()
            batch = batch.select(indices)
            if labels is not None:
                labels = [labels[i] for i in indices]
        return matcher.match(batch, top_k=top_k, metric=metric,
                             die_labels=labels)

    def slice(self, lo: int, hi: int) -> "CampaignResult":
        """Row slice ``[lo, hi)`` of this result, one die per row.

        The scatter half of request coalescing
        (:mod:`repro.service.batcher`): a combined multi-client run is
        sliced back into per-client results.  Per-die arrays (NDFs,
        verdicts, deviations, labels, packed signatures, channel
        matrices) are sliced; campaign-wide fields (threshold,
        tolerance, timing, executor, cache counters) are shared, since
        the slice came from that one run.
        """
        n = self.num_dies
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"slice [{lo}, {hi}) outside 0..{n}")
        indices = np.arange(lo, hi)

        def cut(array):
            return None if array is None \
                else np.ascontiguousarray(array[lo:hi])

        return CampaignResult(
            ndfs=cut(self.ndfs), threshold=self.threshold,
            verdicts=cut(self.verdicts),
            f0_deviations=cut(self.f0_deviations),
            q_deviations=cut(self.q_deviations),
            labels=(None if self.labels is None
                    else list(self.labels[lo:hi])),
            tolerance=self.tolerance, timing=dict(self.timing),
            executor=self.executor, cache_info=self.cache_info,
            signature_batch=(None if self.signature_batch is None
                             else self.signature_batch.select(indices)),
            channel_ndfs=cut(self.channel_ndfs),
            channel_thresholds=self.channel_thresholds,
            channel_verdicts=cut(self.channel_verdicts),
            multi_signature_batch=(
                None if self.multi_signature_batch is None
                else self.multi_signature_batch.select(indices)))

    def to_units(self) -> List[CutUnit]:
        """Per-die view for the legacy list-based yield tooling."""
        if self.f0_deviations is None:
            raise ValueError(
                "population carries no ground-truth deviations")
        return [CutUnit(float(d), float(v))
                for d, v in zip(self.f0_deviations, self.ndfs)]

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable one-block summary (CLI / report output)."""
        lines = [f"dies:        {self.num_dies}",
                 f"executor:    {self.executor}"]
        if self.num_dies:
            lines += [
                f"NDF mean:    {float(np.mean(self.ndfs)):.4f}",
                f"NDF p95:     {self.ndf_percentile(95):.4f}",
                f"NDF max:     {float(np.max(self.ndfs)):.4f}",
            ]
        if self.verdicts is not None:
            lines.append(
                f"verdicts:    {self.pass_count} PASS / "
                f"{self.fail_count} FAIL "
                f"(threshold {self.threshold:.4f})")
        if self.channel_verdicts is not None:
            for k in range(self.num_channels):
                fails = int(np.count_nonzero(
                    ~self.channel_verdicts[:, k]))
                lines.append(
                    f"  channel {k}:  {self.num_dies - fails} PASS / "
                    f"{fails} FAIL "
                    f"(threshold {self.channel_thresholds[k]:.4f})")
            lines.append(
                f"combined:    "
                f"{self.num_dies - self.combined_fail_count} PASS / "
                f"{self.combined_fail_count} FAIL (OR over "
                f"{self.num_channels} channels)")
        if (self.tolerance is not None and self.threshold is not None
                and self.f0_deviations is not None and self.num_dies
                and not np.any(np.isnan(self.f0_deviations))):
            report = self.yield_report()
            lines.append(
                f"economics:   {report.yield_loss} overkill / "
                f"{report.escapes} escapes "
                f"(tolerance ±{self.tolerance:.0%})")
        total = self.timing.get("total")
        if total:
            lines.append(f"throughput:  {self.dies_per_second():,.0f} "
                         f"dies/s ({total * 1e3:.1f} ms total)")
        if self.cache_info is not None:
            lines.append(f"golden cache: {self.cache_info}")
        return "\n".join(lines)


@dataclass
class NoiseCampaignResult:
    """Outcome of a Section IV-C noise campaign: N dies x R repeats.

    Each die is signatured ``repeats`` times under fresh measurement
    noise (deterministically seeded per die); the matrix of NDFs
    answers the paper's robustness question -- how often a die's noisy
    measurement crosses the decision threshold.

    Attributes
    ----------
    ndf_matrix:
        ``(N, repeats)`` NDFs against the noise-free golden signature.
    threshold:
        Decision threshold used for detection statistics (None when the
        campaign ran without a band).
    labels:
        One identifier per die.
    tolerance:
        Ground-truth tolerance the threshold was calibrated for.
    timing:
        Wall-clock seconds per engine section.
    executor:
        Name of the executor that ran the campaign.
    """

    ndf_matrix: np.ndarray
    threshold: Optional[float] = None
    labels: Optional[List[str]] = None
    tolerance: Optional[float] = None
    timing: Dict[str, float] = field(default_factory=dict)
    executor: str = "serial"

    def __post_init__(self) -> None:
        self.ndf_matrix = np.atleast_2d(
            np.asarray(self.ndf_matrix, dtype=float))

    @property
    def num_dies(self) -> int:
        """Population size N."""
        return int(self.ndf_matrix.shape[0])

    @property
    def repeats(self) -> int:
        """Noisy measurements per die."""
        return int(self.ndf_matrix.shape[1])

    def detection_rates(self) -> np.ndarray:
        """Per-die fraction of noisy measurements flagged FAIL.

        Matches :meth:`repro.core.testflow.SignatureTester.
        detection_rate`: a measurement detects when its NDF exceeds
        the threshold.
        """
        if self.threshold is None:
            raise ValueError("noise campaign ran without a decision "
                             "band")
        return np.mean(self.ndf_matrix > self.threshold, axis=1)

    def summary(self) -> str:
        """Human-readable one-block summary (CLI / report output)."""
        lines = [f"dies:        {self.num_dies} x {self.repeats} "
                 f"noisy repeats",
                 f"executor:    {self.executor}"]
        if self.ndf_matrix.size:
            lines.append(
                f"NDF mean:    {float(np.mean(self.ndf_matrix)):.4f}")
            lines.append(
                f"NDF p95:     "
                f"{float(np.percentile(self.ndf_matrix, 95)):.4f}")
        if self.threshold is not None and self.ndf_matrix.size:
            rates = self.detection_rates()
            lines.append(
                f"detection:   mean {float(np.mean(rates)):.1%} / "
                f"max {float(np.max(rates)):.1%} "
                f"(threshold {self.threshold:.4f})")
        total = self.timing.get("total")
        if total:
            lines.append(f"throughput:  "
                         f"{self.ndf_matrix.size / total:,.0f} "
                         f"measurements/s ({total * 1e3:.1f} ms total)")
        return "\n".join(lines)
