"""Adaptive second-signature search: split ambiguity groups.

PR 3's geometry analysis proved that some faults are *indistinguishable
in single-signature space*: their zone-code trajectories coincide for
the whole period, so every matcher must confuse them (e.g.
``{r1-open, r5-short}``, which kill the same gain path).  The
fault-trajectory literature resolves such collisions by observing the
CUT through additional response views.  This module automates the
choice of that second view:

1. start from a compiled dictionary's ambiguity groups
   (:func:`repro.diagnosis.ambiguity_groups`);
2. synthesize the fault universe's traces **once** through the
   campaign's one CUT-to-trace kernel
   (:func:`repro.campaign.batch.cut_traces`: a stacked-MNA sweep);
3. re-encode those same traces through every candidate monitor bank
   (:func:`repro.monitor.second_signature.default_candidates`: Table I
   bias shifts and Y-level detectors, via the fused bank encoder) and
   measure the intra-group fault separations each candidate achieves;
4. classify: pairs whose *traces* already coincide are **invisible by
   construction** -- no monitor bank can ever split them (the matched
   inverter pair ``r4-open``/``r4-short``); pairs split by no
   candidate are unresolved *by this family*; the rest are resolvable;
5. pick the candidate maximizing the worst-case separation over the
   resolvable pairs (ties: more pairs split, then higher mean
   separation, then candidate order).

The chosen bank becomes signature channel 1: compile a
:class:`~repro.diagnosis.dictionary.MultiFaultDictionary` with
``search.encoders`` and screen with
``engine.run(..., encoders=search.encoders)`` -- channel 0 stays
bit-identical to the production flow while the combined distances
separate the split groups.  See ``docs/ambiguity.md`` for the
resulting geometry and ``examples/second_signature.py`` for the full
walk-through.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.batch import batch_codes, batch_extract, cut_traces
from repro.core.signature_batch import SignatureBatch
from repro.diagnosis.analysis import ambiguity_groups, fault_distance_matrix
from repro.diagnosis.dictionary import FaultDictionary
from repro.filters.towthomas import TowThomasValues
from repro.monitor.second_signature import (
    SecondBankCandidate,
    default_candidates,
)

#: Two fault traces closer than this (volts, max-abs over the period)
#: are the *same response*: no monitor bank, present or future, can
#: tell them apart -- "invisible by construction".
TRACE_ATOL = 1e-9


@dataclass
class GroupResolution:
    """Outcome of the search for one single-signature ambiguity group.

    ``status`` is one of:

    * ``"resolved"`` -- the combined two-channel distances split the
      group into singletons;
    * ``"partial"`` -- the group broke up, but some members remain
      together (typically around an invisible pair);
    * ``"invisible"`` -- every pair of the group shares one response
      trace; unresolvable by any boundary configuration;
    * ``"unresolved"`` -- traces differ, but no candidate bank
      separated them (e.g. responses saturating far outside the
      signal window, identical through every in-window boundary).
    """

    labels: List[str]
    status: str
    subgroups_after: List[List[str]]


@dataclass
class SecondSignatureSearch:
    """Result of one adaptive second-signature search.

    Attributes
    ----------
    best:
        Winning candidate (None when there was nothing to split).
    encoders:
        ``[channel-0 encoder, best second encoder]`` -- ready for
        ``engine.run(..., encoders=...)`` and
        :func:`~repro.diagnosis.dictionary.compile_multi_fault_dictionary`.
    labels:
        Dictionary fault labels (row order of the matrices).
    groups_before / groups_after:
        Multi-member ambiguity groups in channel-0 space and in the
        combined two-channel space (index groups).
    resolutions:
        Per-group outcome, aligned with ``groups_before``.
    pair_separations:
        ``{candidate name: {(i, j): second-channel separation}}`` over
        the intra-group pairs.
    scores:
        ``{candidate name: worst-case separation over the resolvable
        pairs}`` -- the search objective.
    second_matrix:
        The best candidate's full ``(F, F)`` second-channel distance
        matrix (None when no candidate was chosen).
    timing:
        Wall-clock seconds per stage (traces synthesized once;
        ``encode`` covers all candidates together).
    """

    best: Optional[SecondBankCandidate]
    encoders: List
    labels: List[str]
    groups_before: List[List[int]]
    groups_after: List[List[int]]
    resolutions: List[GroupResolution]
    pair_separations: Dict[str, Dict[Tuple[int, int], float]]
    scores: Dict[str, float]
    second_matrix: Optional[np.ndarray] = None
    timing: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _by_status(self, status: str) -> List[List[str]]:
        return [r.labels for r in self.resolutions
                if r.status == status]

    @property
    def resolved_groups(self) -> List[List[str]]:
        """Groups the second signature splits into singletons."""
        return self._by_status("resolved")

    @property
    def partial_groups(self) -> List[List[str]]:
        """Groups that split, with some members still colliding."""
        return self._by_status("partial")

    @property
    def invisible_groups(self) -> List[List[str]]:
        """Groups whose members share one response trace."""
        return self._by_status("invisible")

    @property
    def unresolved_groups(self) -> List[List[str]]:
        """Distinct-trace groups no candidate bank separated."""
        return self._by_status("unresolved")

    def summary(self) -> str:
        """Human-readable block (CLI / example output)."""
        chosen = self.best.name if self.best is not None else "(none)"
        lines = [f"second bank: {chosen} "
                 f"(searched {len(self.scores)} candidates)"]
        for resolution in self.resolutions:
            members = ", ".join(resolution.labels)
            if resolution.status in ("resolved", "partial"):
                after = " | ".join(
                    "{" + ", ".join(sub) + "}"
                    for sub in resolution.subgroups_after)
                lines.append(f"  {resolution.status:<11}"
                             f"{{{members}}} -> {after}")
            else:
                lines.append(f"  {resolution.status:<11}{{{members}}}")
        total = self.timing.get("total")
        if total:
            lines.append(f"search:      {total * 1e3:.1f} ms "
                         f"(traces "
                         f"{self.timing.get('traces', 0) * 1e3:.1f} / "
                         f"encode "
                         f"{self.timing.get('encode', 0) * 1e3:.1f})")
        return "\n".join(lines)


def _fault_trace_stack(engine, dictionary: FaultDictionary,
                       values: Optional[TowThomasValues]
                       ) -> Tuple[np.ndarray, np.ndarray, float,
                                  np.ndarray]:
    """(x, times, period, (F, T) trace stack) of the fault universe."""
    golden = engine.golden()
    if values is None:
        values = TowThomasValues.from_spec(engine.config.golden_spec)
    cuts = [fault.apply_to_biquad(values)
            for fault in dictionary.faults]
    stack = cut_traces(cuts, engine.config.stimulus, golden.times)
    return golden.x, golden.times, golden.period, stack


def _intra_pairs(groups: Sequence[Sequence[int]]
                 ) -> List[Tuple[int, int]]:
    pairs = []
    for group in groups:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                pairs.append((group[a], group[b]))
    return pairs


def _pair_separation(batch: SignatureBatch, i: int, j: int) -> float:
    """Second-channel NDF distance between fault rows i and j."""
    return float(batch.select(np.asarray([i])).ndf_to(batch.row(j))[0])


def search_second_signature(engine, dictionary: FaultDictionary,
                            candidates: Optional[
                                Sequence[SecondBankCandidate]] = None,
                            values: Optional[TowThomasValues] = None,
                            epsilon: float = 1e-9
                            ) -> SecondSignatureSearch:
    """Search candidate second banks that split ambiguity groups.

    ``dictionary`` is the engine's compiled single-channel dictionary;
    its ambiguity groups (at ``epsilon``) define what needs splitting.
    ``candidates`` defaults to
    :func:`repro.monitor.second_signature.default_candidates`.  The
    expensive front half -- synthesizing the fault universe's traces
    -- runs exactly once; each candidate only pays one fused encode of
    the shared ``(F, T)`` stack.

    The whole search lives in exact-NDF signature space -- the metric
    the paper's signature defines and the one the fleet matcher's
    combined distances use; the alignment-free ``"dwell"`` matching
    metric has a different (coarser) geometry and is deliberately not
    an option here.
    """
    start = time.perf_counter()
    timing: Dict[str, float] = {}
    candidates = list(candidates) if candidates is not None \
        else default_candidates()
    matrix0 = fault_distance_matrix(dictionary, "ndf")
    groups_before = [group for group in
                     ambiguity_groups(dictionary, epsilon, matrix0,
                                      "ndf")
                     if len(group) > 1]
    labels = dictionary.labels

    t0 = time.perf_counter()
    x, times, period, stack = _fault_trace_stack(engine, dictionary,
                                                 values)
    timing["traces"] = time.perf_counter() - t0

    pairs = _intra_pairs(groups_before)
    invisible = {
        (i, j) for i, j in pairs
        if float(np.max(np.abs(stack[i] - stack[j]),
                        initial=0.0)) <= TRACE_ATOL}
    eligible = [pair for pair in pairs if pair not in invisible]

    t0 = time.perf_counter()
    pair_separations: Dict[str, Dict[Tuple[int, int], float]] = {}
    batches: Dict[str, SignatureBatch] = {}
    for candidate in candidates:
        codes = batch_codes(candidate.encoder, x, stack)
        batch = batch_extract(times, codes, period)
        batches[candidate.name] = batch
        pair_separations[candidate.name] = {
            pair: _pair_separation(batch, *pair) for pair in eligible}
    timing["encode"] = time.perf_counter() - t0

    # A pair is *resolvable* when at least one candidate separates it;
    # the objective is the worst case over exactly those pairs, so one
    # out-of-reach pair (e.g. two responses saturating outside the
    # window) does not flatten every candidate's score to zero.
    resolvable = [pair for pair in eligible
                  if any(seps[pair] > epsilon
                         for seps in pair_separations.values())]

    def score(candidate: SecondBankCandidate) -> Tuple[float, int, float]:
        seps = pair_separations[candidate.name]
        if not resolvable:
            return (0.0, 0, 0.0)
        values_ = [seps[pair] for pair in resolvable]
        split = sum(1 for v in values_ if v > epsilon)
        return (min(values_), split, float(np.mean(values_)))

    scores = {c.name: score(c)[0] for c in candidates}
    best: Optional[SecondBankCandidate] = None
    if resolvable:
        best = max(candidates, key=score)

    # Combined two-channel geometry: channel-0 distances plus the best
    # candidate's full second-channel matrix.
    second_matrix = None
    groups_after = groups_before
    if best is not None:
        batch = batches[best.name]
        signatures = batch.to_signatures()
        second_matrix = np.stack(
            [batch.ndf_to(signature) for signature in signatures],
            axis=1)
        combined = matrix0 + second_matrix
        groups_after = [group for group in
                        ambiguity_groups(dictionary, epsilon, combined,
                                         "ndf")
                        if len(group) > 1]

    after_member: Dict[int, List[int]] = {}
    for group in groups_after:
        for index in group:
            after_member[index] = group
    resolutions = []
    for group in groups_before:
        group_pairs = _intra_pairs([group])
        subgroups: List[List[int]] = []
        seen: set = set()
        for index in group:
            if index in seen:
                continue
            sub = [i for i in after_member.get(index, [index])
                   if i in group]
            seen.update(sub)
            subgroups.append(sub)
        if all(pair in invisible for pair in group_pairs):
            status = "invisible"
        elif all(len(sub) == 1 for sub in subgroups):
            status = "resolved"
        elif len(subgroups) == 1:
            status = "unresolved"
        else:
            status = "partial"
        resolutions.append(GroupResolution(
            [labels[i] for i in group], status,
            [[labels[i] for i in sub] for sub in subgroups]))

    timing["total"] = time.perf_counter() - start
    return SecondSignatureSearch(
        best=best,
        encoders=[engine.config.encoder]
        + ([best.encoder] if best is not None else []),
        labels=list(labels),
        groups_before=groups_before, groups_after=groups_after,
        resolutions=resolutions, pair_separations=pair_separations,
        scores=scores, second_matrix=second_matrix, timing=timing)
