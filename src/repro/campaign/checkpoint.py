"""Checkpoint/resume for streamed campaigns.

A streamed campaign (:meth:`CampaignEngine.run_stream`) over a
million-die fleet runs for a long time; if the process dies at die
700k, everything is lost.  :class:`StreamCheckpoint` makes the stream
crash-safe: the engine accumulates the per-chunk partial fleet stats
(NDFs, ground-truth deviations, labels, stage timings) in one of these
and periodically persists it, together with the **next global die
index**.  A restarted campaign loads the checkpoint, skips the
already-screened dies and continues.

The resume contract is **bit-identity**: population builders seed die
``i`` as a pure function of ``(seed, i)``
(:func:`~repro.campaign.scenarios.stream_montecarlo_dies` numbers its
spawned seed children globally), and the batched pipeline's per-die
rows are independent of chunk boundaries, so the merged result of an
interrupted+resumed campaign -- NDFs, verdicts, deviations, labels --
is byte-for-byte the result of the uninterrupted run.  Only wall-clock
timings differ.  ``tests/robustness/test_checkpoint_resume.py`` kills
streams at several injection points and proves the merge.

The checkpoint file is a version-3 **log of flat row records**: a
file header, then records, each a fixed header, a JSON header, the
raw little-endian ``float64`` arrays and the labels, covered by a
CRC32 (``docs/persistence.md`` has the layout).  The first save of a
state in a process writes the whole state as one record with the same
tmp+fsync+rename discipline as the artifact store
(:func:`repro.store.atomic_write_bytes`); every later save appends
and fsyncs one record of the rows folded since, so a save costs what
it adds, not what the stream holds.  A load keeps every whole record
whose CRC checks and drops a torn tail.  Each record names the
engine's golden key and resolved threshold; resuming under a
different configuration or band policy is a
:class:`CheckpointMismatch`, not a silently-wrong merge.  Version-1
and version-2 checkpoints (``.npz`` archives) still load.

The same record is the unit of *sharding* (:mod:`repro.shard`), which
writes no checkpoint files: a shard worker sends each screened
chunk's rows home as a one-record log
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
import math
import os
import struct
import zlib
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
from repro.obs.trace import span
from repro.store import atomic_write_bytes, unpack_archive
from repro.testing.faultinject import should_fail

#: Checkpoint format version (bumped on incompatible changes).
#: Versions 1 and 2, ``.npz`` archives, still load.
CHECKPOINT_VERSION = 3

#: A log's file header: magic and format version.
_LOG_MAGIC = b"RPROCKPT"
_LOG_HEAD = struct.Struct("<8sI")

#: A record's fixed header: magic, format version, JSON header length
#: and body length (the arrays and the labels).  A CRC32 of the fixed
#: header, the JSON header and the body follows the body.
_RECORD_MAGIC = b"RREC"
_RECORD_HEAD = struct.Struct("<4sIIQ")
_CRC = struct.Struct("<I")

#: Raw array dtype of the NDFs, f0 and q.
_FLOAT = np.dtype("<f8")

#: Name of an archive's JSON meta member (versions 1 and 2).
_META = "meta"


def _encode_labels(labels: List[str]) -> bytes:
    """Labels as the UTF-8 bytes of a JSON list.

    One byte per ASCII character, and any ``str`` round-trips exactly
    (``json.dumps`` escapes what is not ASCII, lone surrogates
    included).
    """
    return json.dumps(labels).encode("utf-8")


def _decode_labels(data) -> List[str]:
    """Inverse of :func:`_encode_labels`; refuses anything but a
    JSON list."""
    labels = json.loads(str(data, "utf-8"))
    if not isinstance(labels, list):
        raise ValueError("labels are not a JSON list")
    return labels


class CheckpointMismatch(ValueError):
    """Checkpoint was written under a different configuration."""


class _Saved(NamedTuple):
    """What a log on disk holds after this state's last save there."""

    path: str
    parts: int
    dies: int
    timing: Dict[str, float]
    fallback_dies: int
    chunks_done: int
    size: int


class StreamCheckpoint:
    """Mergeable partial state of one streamed campaign.

    The engine owns the instance: each screened part becomes a
    one-part record (:meth:`extend`) that the loop folds in
    (:meth:`append`), the loop :meth:`save`\\ s it after every
    chunk, and a resumed run reconstructs it with :meth:`load` and
    keeps appending.
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
        self._saved: Optional[_Saved] = None

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
        part this way, a shard coordinator each record a worker
        sends home, and :meth:`load` each record of a log.
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
        """The checkpoint as a version-3 log of one record.

        The file header, then the whole state as one record.  This is
        what the first :meth:`save` of a state writes, byte for byte,
        and what a shard worker sends home for each chunk,
        base64-encoded in a ``progress`` message.
        """
        return _LOG_HEAD.pack(_LOG_MAGIC, CHECKPOINT_VERSION) + \
            self._record()

    def _record(self) -> bytes:
        """This state as one flat record (no file header)."""
        ndfs = np.ascontiguousarray(self.values(np.empty(0)),
                                    dtype=_FLOAT)
        labels = _encode_labels(self.labels)
        header = json.dumps({
            "config_key": self.config_key,
            "threshold": self.threshold,
            "start_index": self.start_index,
            "dies": self.num_dies,
            "shape": list(ndfs.shape),
            "label_bytes": len(labels),
            "timing": self.timing,
            "fallback_dies": self.fallback_dies,
            "chunks_done": self.chunks_done,
            "complete": self.complete,
        }).encode("utf-8")
        body = [ndfs.tobytes(),
                np.ascontiguousarray(self.f0_deviations(),
                                     dtype=_FLOAT).tobytes(),
                np.ascontiguousarray(self.q_deviations(),
                                     dtype=_FLOAT).tobytes(),
                labels]
        record = b"".join([
            _RECORD_HEAD.pack(_RECORD_MAGIC, CHECKPOINT_VERSION,
                              len(header), sum(map(len, body))),
            header, *body])
        return record + _CRC.pack(zlib.crc32(record))

    def _unsaved(self) -> "StreamCheckpoint":
        """The rows folded since the last save, as one record."""
        saved = self._saved
        record = StreamCheckpoint(self.config_key, self.threshold,
                                  start_index=self.start_index
                                  + saved.dies)
        record.value_parts = self.value_parts[saved.parts:]
        record.f0_parts = self.f0_parts[saved.parts:]
        record.q_parts = self.q_parts[saved.parts:]
        record.labels = self.labels[saved.dies:]
        record.timing = {key: value - saved.timing.get(key, 0.0)
                         for key, value in self.timing.items()}
        record.fallback_dies = self.fallback_dies - saved.fallback_dies
        record.chunks_done = self.chunks_done - saved.chunks_done
        record.complete = self.complete
        return record

    def save(self, path: str) -> None:
        """Persist durably: one atomic whole write, then appends.

        The first save of this state to ``path`` writes
        :meth:`to_bytes` atomically (tmp + fsync + rename), which also
        rewrites an older format or a log with a torn tail.  Every
        later save appends and fsyncs one record of the rows folded
        since the previous save.  A crash mid-append leaves a torn
        last record, which :meth:`load` drops.  The
        ``checkpoint.write.tear`` fault point writes only the first
        half of an append, and the state then still counts those rows
        as unsaved.  The span's ``bytes`` attribute is what this save
        wrote.
        """
        with span("checkpoint.save", next_index=self.next_index,
                  complete=self.complete) as current:
            saved = self._saved
            if saved is None or saved.path != path:
                data = self.to_bytes()
                atomic_write_bytes(path, data)
                size = len(data)
            else:
                data = self._unsaved()._record()
                size = saved.size + len(data)
                if should_fail("checkpoint.write.tear"):
                    data, size = data[:len(data) // 2], None
                with open(path, "r+b") as handle:
                    handle.seek(saved.size)
                    handle.write(data)
                    handle.truncate()
                    handle.flush()
                    os.fsync(handle.fileno())
            current.set(bytes=len(data))
            if size is not None:
                self._saved = _Saved(path, len(self.value_parts),
                                     self.num_dies, dict(self.timing),
                                     self.fallback_dies,
                                     self.chunks_done, size)
        default_registry().counter("checkpoint_saves_total").inc()

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamCheckpoint":
        """Inverse of :meth:`to_bytes`; refuses any damaged record.

        Raises ``ValueError`` on anything that is not whole and
        self-consistent (a failed CRC, rows that disagree with the
        deviations or the labels, lengths that do not end at the CRC)
        and :class:`CheckpointMismatch` on a version it cannot read.
        """
        return cls._decode(data, "<bytes>", strict=True)

    @classmethod
    def load(cls, path: str) -> "StreamCheckpoint":
        """Rebuild a checkpoint saved with :meth:`save`.

        A log keeps every whole record whose CRC checks and drops the
        tail from the first bad record on, with a
        ``checkpoint.tail_dropped`` :func:`~repro.obs.logs.log_event`
        naming the dies it dropped.  Raises ``FileNotFoundError`` when
        there is nothing to resume and :class:`CheckpointMismatch` on
        a version we cannot merge; a file with no whole record
        propagates its decode error (use :meth:`load_if_valid` for the
        degrade-to-restart path).
        """
        with open(path, "rb") as handle:
            data = handle.read()
        return cls._decode(data, path, strict=False)

    @classmethod
    def _decode(cls, data: bytes, source: str, strict: bool
                ) -> "StreamCheckpoint":
        """A version-3 log or a version-1/2 archive, told apart by
        the magic (a log torn inside its magic is still a log)."""
        head = data[:len(_LOG_MAGIC)]
        if head != _LOG_MAGIC[:len(head)]:
            return cls._from_archive(data, source)
        if len(data) < _LOG_HEAD.size:
            raise ValueError(f"checkpoint {source!r} is truncated "
                             "inside its file header")
        __, version = _LOG_HEAD.unpack_from(data)
        if version != CHECKPOINT_VERSION:
            raise CheckpointMismatch(
                f"checkpoint {source!r} has version {version!r}, "
                f"expected 1, 2 or {CHECKPOINT_VERSION}")
        state, offset = _read_record(data, _LOG_HEAD.size)
        while offset < len(data):
            try:
                record, end = _read_record(data, offset)
                state.append(record)
            except CheckpointMismatch:
                raise
            except ValueError as error:
                if strict:
                    raise
                _log_dropped_tail(source, data, offset, state, error)
                break
            state.complete = record.complete
            offset = end
        return state

    @classmethod
    def _from_archive(cls, data: bytes, source: str
                      ) -> "StreamCheckpoint":
        """A version-1 or version-2 ``.npz`` checkpoint."""
        arrays, meta = unpack_archive(data, _META)
        version = meta.get("version")
        if version not in (1, 2):
            raise CheckpointMismatch(
                f"checkpoint {source!r} has version {version!r}, "
                f"expected 1, 2 or {CHECKPOINT_VERSION}")
        state = cls(meta["config_key"], meta["threshold"],
                    start_index=int(meta.get("start_index", 0)))
        ndfs, f0, q = arrays["ndfs"], arrays["f0"], arrays["q"]
        # Version 1 kept the labels inside the JSON meta.
        state.labels = (list(meta["labels"]) if version == 1
                        else _decode_labels(arrays["labels"].tobytes()))
        _check_rows(f"checkpoint {source!r}", ndfs.shape, len(f0),
                    len(q), len(state.labels))
        if state.labels:
            state.value_parts.append(ndfs)
            state.f0_parts.append(f0)
            state.q_parts.append(q)
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
        resume is the normal first-run case).  A checkpoint with no
        whole record (or an unreadable older archive) *also* returns
        None -- the campaign restarts from its stream offset, which is
        always correct, just slower -- but emits a structured
        ``checkpoint.invalid`` :func:`~repro.obs.logs.log_event` so
        the degrade is observable instead of a silent slow run.  A
        torn tail only drops the torn records (see :meth:`load`).
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


def _check_rows(where: str, shape: Tuple[int, ...], f0: int, q: int,
                labels: int) -> None:
    """Refuse a record whose NDF rows, deviations and labels disagree
    in length (a misaligned merge otherwise)."""
    if len(shape) not in (1, 2) or not shape[0] == f0 == q == labels:
        raise ValueError(
            f"{where}: rows disagree: NDFs of shape {tuple(shape)}, "
            f"{f0} f0 and {q} q deviations, {labels} labels")


def _read_record(data: bytes, offset: int
                 ) -> Tuple[StreamCheckpoint, int]:
    """The record at ``data[offset:]`` and the offset past it.

    Raises ``ValueError`` unless the record is whole, its CRC checks
    and its lengths agree; :class:`CheckpointMismatch` when a whole
    record has another version.
    """
    head_end = offset + _RECORD_HEAD.size
    if head_end > len(data):
        raise ValueError(f"record at byte {offset} is truncated")
    magic, version, header_len, body_len = \
        _RECORD_HEAD.unpack_from(data, offset)
    if magic != _RECORD_MAGIC:
        raise ValueError(f"no record magic at byte {offset}")
    body = head_end + header_len
    crc_at = body + body_len
    if crc_at + _CRC.size > len(data):
        raise ValueError(f"record at byte {offset} is truncated")
    view = memoryview(data)
    if zlib.crc32(view[offset:crc_at]) != \
            _CRC.unpack_from(data, crc_at)[0]:
        raise ValueError(f"record at byte {offset} fails its CRC")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"record at byte {offset} has version {version!r}, "
            f"expected {CHECKPOINT_VERSION}")
    where = f"record at byte {offset}"
    try:
        meta = json.loads(str(view[head_end:body], "utf-8"))
        dies, shape = meta["dies"], tuple(meta["shape"])
        label_bytes = meta["label_bytes"]
        if not all(type(n) is int and n >= 0 for n in
                   (dies, label_bytes, meta["start_index"]) + shape):
            raise ValueError(f"{where}: start index, lengths and NDF "
                             "shape must be non-negative integers")
        _check_rows(where, shape, dies, dies, dies)
        cells = math.prod(shape)
        labels_at = body + (cells + 2 * dies) * _FLOAT.itemsize
        if labels_at + label_bytes != crc_at:
            raise ValueError(
                f"{where}: lengths disagree: the arrays of {dies} dies "
                f"and {label_bytes} label bytes do not end at the CRC")
        labels = _decode_labels(view[labels_at:crc_at])
        _check_rows(where, shape, dies, dies, len(labels))
        state = StreamCheckpoint(meta["config_key"], meta["threshold"],
                                 start_index=meta["start_index"])
        if dies:
            # Copies, not views: the arrays own their memory, so the
            # record's bytes (labels and header included) can go.
            floats = np.frombuffer(data, _FLOAT, cells + 2 * dies,
                                   body).copy()
            state.value_parts.append(floats[:cells].reshape(shape))
            state.f0_parts.append(floats[cells:cells + dies])
            state.q_parts.append(floats[cells + dies:])
        state.labels = labels
        state.timing = {str(k): float(v)
                        for k, v in meta["timing"].items()}
        state.fallback_dies = int(meta["fallback_dies"])
        state.chunks_done = int(meta["chunks_done"])
        state.complete = bool(meta["complete"])
    except (KeyError, TypeError, AttributeError) as error:
        raise ValueError(f"{where} has a malformed header: "
                         f"{type(error).__name__}: {error}") from None
    return state, crc_at + _CRC.size


def _log_dropped_tail(source: str, data: bytes, offset: int,
                      state: StreamCheckpoint, error: Exception) -> None:
    """Report the tail :meth:`StreamCheckpoint.load` drops: the dies
    its first record names (when its header is readable) and the
    bytes."""
    dropped = None
    try:
        __, __, header_len, __ = _RECORD_HEAD.unpack_from(data, offset)
        start = offset + _RECORD_HEAD.size
        dropped = int(json.loads(
            str(memoryview(data)[start:start + header_len],
                "utf-8"))["dies"])
    except (struct.error, ValueError, KeyError, TypeError):
        pass  # the header itself is torn or damaged
    log_event("checkpoint.tail_dropped", path=source,
              kept_dies=state.num_dies, dropped_dies=dropped,
              dropped_bytes=len(data) - offset,
              error=f"{type(error).__name__}: {error}",
              action="resume-behind-whole-records")
    default_registry().counter("checkpoint_tail_dropped_total").inc()


__all__ = ["CHECKPOINT_VERSION", "CheckpointMismatch",
           "StreamCheckpoint"]
