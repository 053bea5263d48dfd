"""Checkpoint/resume for streamed campaigns.

A streamed campaign (:meth:`CampaignEngine.run_stream`) over a
million-die fleet runs for a long time; if the process dies at die
700k, everything is lost.  :class:`StreamCheckpoint` makes the stream
crash-safe: the engine accumulates the per-chunk partial fleet stats
(NDFs, ground-truth deviations, labels, stage timings) in one of these
and periodically persists it -- atomically -- together with the **next
global die index**.  A restarted campaign loads the checkpoint, skips
the already-screened dies and continues.

The resume contract is **bit-identity**: population builders seed die
``i`` as a pure function of ``(seed, i)``
(:func:`~repro.campaign.scenarios.stream_montecarlo_dies` numbers its
spawned seed children globally), and the batched pipeline's per-die
rows are independent of chunk boundaries, so the merged result of an
interrupted+resumed campaign -- NDFs, verdicts, deviations, labels --
is byte-for-byte the result of the uninterrupted run.  Only wall-clock
timings differ.  ``tests/robustness/test_checkpoint_resume.py`` kills
streams at several injection points and proves the merge.

The checkpoint file is a single ``.npz`` written with the same
tmp+fsync+rename discipline as the artifact store
(:func:`repro.store.atomic_write_bytes`), so a crash mid-save leaves
the previous valid checkpoint, never a torn one.  The file records the
engine's golden key and resolved threshold; resuming under a different
configuration or band policy is a :class:`CheckpointMismatch`, not a
silently-wrong merge.

The same class is the unit of *sharding* (:mod:`repro.shard`), which
writes no checkpoint files: a shard worker sends each screened
chunk's rows home as a one-chunk checkpoint archive
(:meth:`StreamCheckpoint.to_bytes`), the coordinator folds the records
of each shard in index order (:meth:`StreamCheckpoint.append`), and
reassembles the fleet with :meth:`StreamCheckpoint.merge` -- an
order-independent merge of disjoint contiguous ranges that is
bit-identical to the monolithic stream (every per-die row is a pure
function of the global die index, so concatenating the parts in index
order reproduces the monolithic arrays byte for byte).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
from repro.obs.trace import span
from repro.store import atomic_write_bytes, pack_archive, unpack_archive

#: Checkpoint format version (bumped on incompatible changes).
#: Version-1 files, which keep the labels inside the JSON meta, still
#: load.
CHECKPOINT_VERSION = 2

#: Name of the archive's JSON meta member (part of the file format).
_META = "meta"

#: Name of the member holding the labels as a UTF-8 JSON list (v2).
_LABELS = "labels"


def _encode_labels(labels: List[str]) -> np.ndarray:
    """Labels as one ``uint8`` array: the UTF-8 bytes of a JSON list.

    A string member would make numpy store fixed-width UTF-32, padded
    to the longest label; JSON bytes cost one byte per ASCII character
    and round-trip any ``str`` exactly (``json.dumps`` escapes what is
    not ASCII, lone surrogates included).
    """
    return np.frombuffer(json.dumps(labels).encode("utf-8"),
                         dtype=np.uint8)


def _decode_labels(member: np.ndarray) -> List[str]:
    """Inverse of :func:`_encode_labels`."""
    return json.loads(member.tobytes().decode("utf-8"))


class CheckpointMismatch(ValueError):
    """Checkpoint was written under a different configuration."""


class StreamCheckpoint:
    """Mergeable partial state of one streamed campaign.

    The engine owns the instance: each screened part becomes a
    one-part record (:meth:`extend`) that the loop folds in
    (:meth:`append`), the loop :meth:`save`\\ s it every
    ``checkpoint_every`` chunks, and a resumed run reconstructs it
    with :meth:`load` and keeps appending.
    ``next_index`` is the global index of the first unscreened die --
    the resume point.

    Attributes (all derived from the accumulated chunks)
    ----------------------------------------------------
    config_key:
        ``repr`` of the engine's golden key; resume validates it.
    threshold:
        Resolved NDF decision threshold (None = no verdicts); resume
        re-resolves the band policy and validates equality, so a
        checkpoint can never silently merge across band policies.
    start_index:
        Global index of the first die this checkpoint covers.  0 for
        a whole-fleet stream; the rows a shard worker sends home for
        dies ``[lo, hi)`` start at ``lo``, so every partial state
        names its global range and :meth:`merge` can reassemble the
        fleet.
    fallback_dies:
        Dies the certified front half recomputed exactly; it travels
        with the partial state so a sharded campaign's coordinator
        counts its workers' fallbacks.
    """

    def __init__(self, config_key: str,
                 threshold: Optional[float],
                 start_index: int = 0) -> None:
        if start_index < 0:
            raise ValueError("start_index must be non-negative")
        self.config_key = str(config_key)
        self.threshold = None if threshold is None \
            else float(threshold)
        self.start_index = int(start_index)
        self.value_parts: List[np.ndarray] = []
        self.f0_parts: List[np.ndarray] = []
        self.q_parts: List[np.ndarray] = []
        self.labels: List[str] = []
        self.timing: Dict[str, float] = {}
        self.fallback_dies = 0
        self.chunks_done = 0
        self.complete = False

    # ------------------------------------------------------------------
    @property
    def next_index(self) -> int:
        """Global index of the first unscreened die."""
        return self.start_index + len(self.labels)

    @property
    def num_dies(self) -> int:
        """Dies accumulated so far."""
        return len(self.labels)

    def extend(self, values: np.ndarray, f0_devs: np.ndarray,
               q_devs: np.ndarray, labels: List[str],
               timing: Dict[str, float], fallback_dies: int = 0) -> None:
        """Merge one screened chunk's outputs."""
        self.value_parts.append(np.asarray(values))
        self.f0_parts.append(np.asarray(f0_devs, dtype=float))
        self.q_parts.append(np.asarray(q_devs, dtype=float))
        self.labels.extend(labels)
        for key, value in timing.items():
            self.timing[key] = self.timing.get(key, 0.0) + value
        self.fallback_dies += int(fallback_dies)
        self.chunks_done += 1

    def append(self, record: "StreamCheckpoint") -> None:
        """Fold ``record``, the dies that follow this checkpoint's own.

        ``record`` must carry the same configuration and band policy
        (else :class:`CheckpointMismatch`) and start at
        :attr:`next_index` (else ``ValueError``: an overlap or a gap),
        so a die can never land twice or out of order; nothing changes
        when it is refused.  A streamed campaign folds each screened
        part this way, and a shard coordinator each record a worker
        sends home.
        """
        record.validate(self.config_key, self.threshold)
        if record.start_index < self.next_index:
            raise ValueError(
                f"overlapping die ranges: dies [{record.start_index}, "
                f"{record.next_index}) collide with dies up to "
                f"{self.next_index}")
        if record.start_index > self.next_index:
            raise ValueError(
                f"gap in die ranges: dies [{self.next_index}, "
                f"{record.start_index}) are covered by no part")
        self.value_parts.extend(record.value_parts)
        self.f0_parts.extend(record.f0_parts)
        self.q_parts.extend(record.q_parts)
        self.labels.extend(record.labels)
        for key, value in record.timing.items():
            self.timing[key] = self.timing.get(key, 0.0) + value
        self.fallback_dies += record.fallback_dies
        self.chunks_done += record.chunks_done

    def values(self, empty: np.ndarray) -> np.ndarray:
        """Accumulated NDFs (``empty``'s shape when no dies yet)."""
        if not self.value_parts:
            return empty
        return np.concatenate(self.value_parts, axis=0)

    def f0_deviations(self) -> np.ndarray:
        return (np.concatenate(self.f0_parts) if self.f0_parts
                else np.empty(0))

    def q_deviations(self) -> np.ndarray:
        return (np.concatenate(self.q_parts) if self.q_parts
                else np.empty(0))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The checkpoint's ``.npz`` archive as bytes.

        This *is* the on-disk format -- :meth:`save` writes exactly
        these bytes -- so a checkpoint can travel a channel (a shard
        worker sends each chunk's rows home as one such archive,
        base64-encoded in a ``progress`` message) and land on the far
        side byte-for-byte equal to a local save.
        """
        meta = {
            "version": CHECKPOINT_VERSION,
            "config_key": self.config_key,
            "threshold": self.threshold,
            "start_index": self.start_index,
            "next_index": self.next_index,
            "timing": self.timing,
            "fallback_dies": self.fallback_dies,
            "chunks_done": self.chunks_done,
            "complete": self.complete,
        }
        arrays = {"ndfs": self.values(np.empty(0)),
                  "f0": self.f0_deviations(), "q": self.q_deviations(),
                  _LABELS: _encode_labels(self.labels)}
        return pack_archive(arrays, meta, _META)

    def save(self, path: str) -> None:
        """Persist atomically (tmp + fsync + rename).

        The accumulated parts are concatenated into flat arrays, so a
        resumed process pays no per-chunk overhead reading them back;
        a crash at any instant leaves the previous checkpoint intact.
        The ``checkpoint.write.tear`` fault point simulates the torn
        write the rename discipline prevents.  The span's ``bytes``
        attribute is the archive size written.
        """
        with span("checkpoint.save", next_index=self.next_index,
                  complete=self.complete) as current:
            data = self.to_bytes()
            current.set(bytes=len(data))
            atomic_write_bytes(path, data,
                               tear_fault="checkpoint.write.tear")
        default_registry().counter("checkpoint_saves_total").inc()

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamCheckpoint":
        """Inverse of :meth:`to_bytes` (same checks as :meth:`load`)."""
        return cls._from_archive(data, "<bytes>")

    @classmethod
    def load(cls, path: str) -> "StreamCheckpoint":
        """Rebuild a checkpoint saved with :meth:`save`.

        Raises ``FileNotFoundError`` when there is nothing to resume
        and :class:`CheckpointMismatch` on a version we cannot merge;
        an unreadable archive propagates its decode error (use
        :meth:`load_if_valid` for the degrade-to-restart path).
        """
        with open(path, "rb") as handle:
            data = handle.read()
        return cls._from_archive(data, path)

    @classmethod
    def _from_archive(cls, data: bytes, source: str
                      ) -> "StreamCheckpoint":
        arrays, meta = unpack_archive(data, _META)
        version = meta.get("version")
        if version not in (1, CHECKPOINT_VERSION):
            raise CheckpointMismatch(
                f"checkpoint {source!r} has version {version!r}, "
                f"expected 1 or {CHECKPOINT_VERSION}")
        state = cls(meta["config_key"], meta["threshold"],
                    start_index=int(meta.get("start_index", 0)))
        if arrays["ndfs"].size:
            state.value_parts.append(arrays["ndfs"])
            state.f0_parts.append(arrays["f0"])
            state.q_parts.append(arrays["q"])
        # Version 1 kept the labels inside the JSON meta.
        state.labels = (list(meta["labels"]) if version == 1
                        else _decode_labels(arrays[_LABELS]))
        state.timing = {k: float(v)
                        for k, v in meta["timing"].items()}
        state.fallback_dies = int(meta.get("fallback_dies", 0))
        state.chunks_done = int(meta["chunks_done"])
        state.complete = bool(meta["complete"])
        return state

    @classmethod
    def load_if_valid(cls, path: str) -> Optional["StreamCheckpoint"]:
        """:meth:`load`, degrading damage to "no checkpoint".

        A missing checkpoint silently returns None (nothing to
        resume is the normal first-run case).  A torn or otherwise
        unreadable checkpoint *also* returns None -- the campaign
        restarts from its stream offset, which is always correct,
        just slower -- but emits a structured
        ``checkpoint.invalid`` :func:`~repro.obs.logs.log_event` so
        the degrade is observable instead of a silent slow run.
        (The atomic save makes actual damage require external
        interference.)
        """
        if not os.path.exists(path):
            return None
        try:
            return cls.load(path)
        except Exception as error:
            log_event("checkpoint.invalid", path=path,
                      error=f"{type(error).__name__}: {error}",
                      action="restart-from-zero")
            default_registry().counter(
                "checkpoint_invalid_total").inc()
            return None

    def validate(self, config_key: str,
                 threshold: Optional[float]) -> None:
        """Refuse to merge across configurations or band policies."""
        if self.config_key != str(config_key):
            raise CheckpointMismatch(
                "checkpoint was written for a different test "
                f"configuration: expected golden key {config_key}, "
                f"found {self.config_key}")
        stored = self.threshold
        live = None if threshold is None else float(threshold)
        if (stored is None) != (live is None) or \
                (stored is not None and stored != live):
            raise CheckpointMismatch(
                f"checkpoint was written under a different band "
                f"policy: expected threshold {live!r}, found "
                f"{stored!r}; bit-identical merging needs the same "
                "band policy")

    # ------------------------------------------------------------------
    # Shard merging
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Iterable["StreamCheckpoint"]
              ) -> "StreamCheckpoint":
        """Merge disjoint-range partials into one checkpoint.

        ``parts`` are partial checkpoints over contiguous,
        non-overlapping global die ranges (shard outputs, or merges
        of such -- the operation is associative).  They may arrive in
        any order: parts are sorted by ``start_index`` before
        concatenation, so the merged arrays are byte-for-byte what
        the monolithic stream over the combined range would have
        accumulated.  Empty parts (a zero-die shard) are legal
        anywhere their ``start_index`` is consistent.

        Raises ``ValueError`` on overlapping or gapped ranges and
        :class:`CheckpointMismatch` when parts disagree on
        configuration or band policy.  The merge result is
        ``complete`` only when every part is.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to merge: no checkpoint parts")
        reference = parts[0]
        # Empty parts sort ahead of a same-start non-empty part so
        # the contiguity scan accepts them at either edge of a range.
        ordered = sorted(parts,
                         key=lambda p: (p.start_index, p.num_dies))
        merged = cls(reference.config_key, reference.threshold,
                     start_index=ordered[0].start_index)
        for part in ordered:
            merged.append(part)
        merged.complete = all(part.complete for part in parts)
        return merged


__all__ = ["CHECKPOINT_VERSION", "CheckpointMismatch",
           "StreamCheckpoint"]
