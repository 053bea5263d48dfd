"""Batched dictionary matching: fleet batch -> nearest faults.

The matcher scores an entire failing fleet's packed
:class:`~repro.core.signature_batch.SignatureBatch` against every
dictionary fault without materializing per-die objects:

* the ``"ndf"`` metric reuses the one-pass fleet-NDF kernel -- one
  :meth:`SignatureBatch.ndf_to` call per dictionary fault fills one
  column of the ``(N, F)`` distance matrix, so the cost is F flat
  kernels over the fleet, never N x F Python-level comparisons;
* the ``"dwell"`` metric compares alignment-free zone-dwell feature
  vectors (total-variation distance) in a single broadcast, trading
  time-alignment sensitivity for an F-independent pass over the
  codes.

Top-k candidates, tie-stable ordering and confidence margins are
derived from the matrix with one ``argsort``.  The per-die reference
loop (:meth:`DictionaryMatcher.match_reference`) exists for the
equivalence tests and produces identical results, die by die.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.multi_signature_batch import MultiSignatureBatch
from repro.core.ndf import ndf as scalar_ndf
from repro.core.signature_batch import SignatureBatch
from repro.diagnosis.dictionary import (
    FaultDictionary,
    MultiFaultDictionary,
    dwell_features,
)
from repro.diagnosis.result import DiagnosisResult
from repro.obs.trace import span

_METRICS = ("ndf", "dwell")


def _rank(distances: np.ndarray, num_faults: int, top_k: int
          ) -> "tuple[np.ndarray, np.ndarray]":
    """Shared top-k ranking: stable argsort, fault-index tie-break.

    One definition serves the single- and multi-channel matchers, so
    their candidate ordering can never silently diverge.
    """
    k = max(1, min(int(top_k), num_faults))
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(distances, order, axis=1)


def _match_from_distances(compute_distances, fault_labels,
                          report_batch, top_k: int, metric: str,
                          die_labels) -> DiagnosisResult:
    """Shared match body: time the distance pass, rank, assemble.

    Both matchers delegate here so their timing keys, ranking
    semantics and :class:`DiagnosisResult` assembly stay one
    definition; ``report_batch`` is what the result retains for the
    per-die report edge (the primary-channel batch).
    """
    start = time.perf_counter()
    timing = {}
    t0 = time.perf_counter()
    distances = compute_distances()
    timing["distances"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    order, top_distances = _rank(distances, len(fault_labels), top_k)
    timing["rank"] = time.perf_counter() - t0
    timing["total"] = time.perf_counter() - start
    return DiagnosisResult(
        distances=distances, top_indices=order,
        top_distances=top_distances,
        fault_labels=fault_labels, metric=metric,
        die_labels=(list(die_labels) if die_labels is not None
                    else None),
        batch=report_batch, timing=timing)


class DictionaryMatcher:
    """Scores observed signature batches against a fault dictionary."""

    def __init__(self, dictionary: FaultDictionary) -> None:
        self.dictionary = dictionary

    # ------------------------------------------------------------------
    def distance_matrix(self, batch: SignatureBatch,
                        metric: str = "ndf") -> np.ndarray:
        """``(N, F)`` die-to-fault distances for a whole fleet batch."""
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; "
                             f"choose from {_METRICS}")
        n = len(batch)
        f = len(self.dictionary)
        if n == 0:
            return np.empty((0, f))
        if metric == "ndf":
            columns = [batch.ndf_to(signature)
                       for signature in self.dictionary.signatures()]
            return np.stack(columns, axis=1)
        observed = dwell_features(batch, self.dictionary.num_bits)
        deltas = observed[:, None, :] - self.dictionary.features[None, :, :]
        return 0.5 * np.abs(deltas).sum(axis=2)

    def match(self, batch: SignatureBatch, top_k: int = 3,
              metric: str = "ndf",
              die_labels: Optional[Sequence[str]] = None
              ) -> DiagnosisResult:
        """Diagnose every row of a fleet batch in one pass.

        Ties are broken by fault index (stable argsort), so results
        are deterministic and identical to the per-die reference.
        """
        with span("dictionary.match", dies=len(batch),
                  faults=len(self.dictionary), metric=metric):
            return _match_from_distances(
                lambda: self.distance_matrix(batch, metric),
                self.dictionary.labels, batch, top_k, metric,
                die_labels)

    # ------------------------------------------------------------------
    # Per-die reference (equivalence baseline)
    # ------------------------------------------------------------------
    def match_reference(self, batch: SignatureBatch, top_k: int = 3,
                        metric: str = "ndf",
                        die_labels: Optional[Sequence[str]] = None
                        ) -> DiagnosisResult:
        """Per-die loop over unpacked signatures (the slow baseline).

        Exists so the equivalence tests can assert the batched matcher
        reproduces the naive flow exactly: same distances (the fleet
        kernel is bit-compatible with :func:`repro.core.ndf.ndf`),
        same candidate order, same margins.
        """
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; "
                             f"choose from {_METRICS}")
        rows = []
        references = self.dictionary.signatures()
        for observed in batch.to_signatures():
            if metric == "ndf":
                rows.append([scalar_ndf(observed, reference)
                             for reference in references])
            else:
                single = dwell_features(
                    SignatureBatch.from_signatures([observed]),
                    self.dictionary.num_bits)[0]
                deltas = single[None, :] - self.dictionary.features
                rows.append(list(0.5 * np.abs(deltas).sum(axis=1)))
        distances = (np.asarray(rows, dtype=float) if rows
                     else np.empty((0, len(self.dictionary))))
        k = max(1, min(int(top_k), len(self.dictionary)))
        order = np.argsort(distances, axis=1, kind="stable")[:, :k] \
            if rows else np.empty((0, k), dtype=np.int64)
        top_distances = (np.take_along_axis(distances, order, axis=1)
                         if rows else np.empty((0, k)))
        return DiagnosisResult(
            distances=distances, top_indices=order,
            top_distances=top_distances,
            fault_labels=self.dictionary.labels, metric=metric,
            die_labels=(list(die_labels) if die_labels is not None
                        else None),
            batch=batch)


class MultiDictionaryMatcher:
    """Scores multi-signature batches against a K-channel dictionary.

    Channel ``k`` of the observed batch is scored against channel
    ``k`` of the dictionary with the plain :class:`DictionaryMatcher`
    machinery; the K per-channel ``(N, F)`` matrices
    (:meth:`channel_distances`) combine channel-0-dominant::

        combined = d_0 + tie_break * (d_1 + ... + d_{K-1})

    Channel 0 is the production signature the dictionary and band
    were designed around; the extra channels exist to *split its
    ambiguity groups*, whose member faults sit at exactly equal
    channel-0 distance from every observed die (their channel-0
    signatures coincide).  A small ``tie_break`` weight therefore
    lets the second signature decide precisely where channel 0 is
    blind, without letting its re-partitioned zone map outvote
    channel 0 anywhere else -- the multi study's group-aware accuracy
    provably cannot drop below the single-channel one at a
    sufficiently small weight, and the defaults sit well inside the
    stable plateau (see the second-signature tests).

    Two degeneracy properties the diagnosis flow relies on:

    * with K = 1 the combined matrix *is* the single-channel matrix,
      so multi matching equals :class:`DictionaryMatcher` exactly
      (same distances, same candidate order, same margins);
    * a fault pair at combined distance zero is indistinguishable in
      *every* channel -- one channel separating the pair is enough to
      split its ambiguity group.
    """

    def __init__(self, dictionary: MultiFaultDictionary,
                 tie_break: float = 1e-3) -> None:
        if tie_break <= 0.0:
            raise ValueError("tie_break weight must be positive (0 "
                             "would discard the extra channels)")
        self.dictionary = dictionary
        self.tie_break = float(tie_break)
        self._matchers = [DictionaryMatcher(channel)
                          for channel in dictionary.channels]

    def _check(self, batch: MultiSignatureBatch) -> None:
        if not isinstance(batch, MultiSignatureBatch):
            raise TypeError("multi-channel matching needs a "
                            "MultiSignatureBatch (run the campaign "
                            "with encoders=dictionary.encoders)")
        if batch.num_channels != self.dictionary.num_channels:
            raise ValueError(
                f"batch carries {batch.num_channels} channels but the "
                f"dictionary has {self.dictionary.num_channels}")

    # ------------------------------------------------------------------
    def channel_distances(self, batch: MultiSignatureBatch,
                          metric: str = "ndf") -> List[np.ndarray]:
        """Per-channel ``(N, F)`` distance matrices, channel order."""
        self._check(batch)
        return [matcher.distance_matrix(batch.channel(k), metric)
                for k, matcher in enumerate(self._matchers)]

    def distance_matrix(self, batch: MultiSignatureBatch,
                        metric: str = "ndf") -> np.ndarray:
        """Combined ``(N, F)`` distances, channel-0-dominant.

        Channel 0 at full weight plus the extra channels at the
        ``tie_break`` weight; with K = 1 this returns the
        single-channel matrix unchanged.
        """
        columns = self.channel_distances(batch, metric)
        combined = columns[0]
        for extra in columns[1:]:
            combined = combined + self.tie_break * extra
        return combined

    def match(self, batch: MultiSignatureBatch, top_k: int = 3,
              metric: str = "ndf",
              die_labels: Optional[Sequence[str]] = None
              ) -> DiagnosisResult:
        """Diagnose every die through all channels in one pass.

        Identical ranking semantics to :meth:`DictionaryMatcher.match`
        (stable argsort, fault-index tie-break; both delegate to one
        shared body) on the combined matrix; the returned result's
        ``batch`` is channel 0, so the per-die report edge unpacks
        the production signature.
        """
        self._check(batch)
        with span("dictionary.match", dies=len(batch),
                  faults=len(self.dictionary), metric=metric,
                  channels=batch.num_channels):
            return _match_from_distances(
                lambda: self.distance_matrix(batch, metric),
                self.dictionary.labels, batch.channel(0), top_k,
                metric, die_labels)
