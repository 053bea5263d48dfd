"""On-disk artifact store: warm screening state that survives restarts.

Every expensive derived artifact of a screening configuration -- the
golden signature bundle, the Fig. 8 calibration sweep, the compiled
fault dictionary -- is a pure function of a *content key* the campaign
layer already computes (:meth:`CampaignConfig.golden_key` and friends).
The :class:`ArtifactStore` persists those artifacts under exactly those
keys, so a restarted process (``repro serve --store``) re-derives
nothing: :meth:`~repro.service.session.ScreeningSession.warm` becomes
three store reads.

Layout (default root ``~/.repro/store``, overridable via the
``REPRO_STORE`` environment variable or an explicit path)::

    <root>/index.json            key-id -> {key, kind, sha256, bytes, file}
    <root>/objects/<id>.npz      one payload per artifact (arrays + meta)
    <root>/quarantine/           corrupted payloads, moved aside
    <root>/index.lock            cross-process index lock (flock)

Durability contract:

* **Atomic writes.** Payloads and the index are written to a temp file
  in the same directory, flushed, ``fsync``'d and ``os.replace``'d into
  place; a crash at any instant leaves either the old or the new file,
  never a torn one, and readers never observe a partial write.
* **Checksums verified on load.** Every payload's sha256 is recorded in
  the index and re-hashed on read.  A mismatch (torn write that somehow
  landed, bit rot, concurrent truncation) **quarantines** the file and
  reports a miss -- corruption degrades to a recompute-and-rewrite,
  never a crash.
* **Concurrent access.** Payload files are content-addressed by key and
  replaced atomically, so two processes racing on the same key both
  land a valid file; the index is rewritten under an ``flock``'d lock
  file with a read-merge-replace cycle, so concurrent writers never
  lose each other's entries.

The store is wired under :class:`~repro.campaign.cache.GoldenCache`
(pass ``store=``): in-memory misses consult the store before computing,
and fresh computations are written through.  Only artifact kinds with a
registered codec persist (``golden``, ``calibration``,
``fault_dictionary``); everything else stays memory-only.

See ``docs/persistence.md`` for the full layout and recovery semantics.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.obs.metrics import default_registry
from repro.obs.trace import span
from repro.testing.faultinject import should_fail

#: Environment variable overriding the default store root.
STORE_ENV_VAR = "REPRO_STORE"

#: Index format version (bumped on incompatible layout changes).
INDEX_VERSION = 1

#: Name of a payload's JSON meta member (part of the payload format).
_META = "__meta__"


def default_store_root() -> str:
    """``$REPRO_STORE`` when set, else ``~/.repro/store``."""
    env = os.environ.get(STORE_ENV_VAR, "").strip()
    if env:
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".repro", "store")


def key_id(key) -> str:
    """Stable hex id of a content key.

    Content keys are nested tuples of ints, floats, strings and enum
    values; ``repr`` of such a tuple is deterministic across processes
    (CPython float repr is shortest-roundtrip), so its sha256 is a
    stable address.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _fsync_directory(path: str) -> None:
    """Flush a directory entry table (best effort off-POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes,
                       tear_fault: Optional[str] = None) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    ``tear_fault`` names a fault point that, when armed, truncates the
    temp file after the fsync but before the rename -- the robustness
    suite's simulated torn write (the damaged payload lands under the
    final name, exactly what a crash between page write-back and
    checksum recording produces on a non-atomic filesystem).
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(
        directory,
        f".{os.path.basename(path)}.{os.getpid()}."
        f"{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if tear_fault is not None and should_fail(tear_fault):
            with open(tmp, "r+b") as handle:
                handle.truncate(max(0, len(data) // 2))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover
                pass
    _fsync_directory(directory)


def pack_archive(arrays: Dict[str, np.ndarray], meta: Dict,
                 meta_name: str) -> bytes:
    """One persisted artifact as ``.npz`` bytes with stored members.

    ``meta`` travels as a JSON string member named ``meta_name`` (each
    format's own constant), ahead of ``arrays``.  Store payloads and
    dictionary files are written through here; checkpoints are flat
    record logs since their version 3, and only their version-1 and
    version-2 files are read through :func:`unpack_archive`.  Members
    are stored, not deflated, so they read back without inflating.
    ``np.load`` reads stored and deflated members alike, so deflated
    files written by older code still load.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **{meta_name: np.asarray(json.dumps(meta))},
             **arrays)
    return buffer.getvalue()


def unpack_archive(data: bytes, meta_name: str
                   ) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Inverse of :func:`pack_archive`: ``(arrays, meta)``.

    Archives are read with ``allow_pickle=False``: a persisted file is
    data, never code.  An undecodable archive raises.
    """
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        meta = json.loads(str(archive[meta_name]))
        arrays = {name: archive[name] for name in archive.files
                  if name != meta_name}
    return arrays, meta


@dataclass(frozen=True)
class StoreInfo:
    """Snapshot of the store counters."""

    hits: int
    misses: int
    writes: int
    quarantined: int
    errors: int

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.writes} writes, {self.quarantined} quarantined)")


class _IndexLock:
    """Cross-process exclusive lock on the store index (flock)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def __enter__(self) -> "_IndexLock":
        self._handle = open(self.path, "a+")
        try:
            import fcntl

            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        return self

    def __exit__(self, *exc) -> None:
        try:
            import fcntl

            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        except ImportError:  # pragma: no cover
            pass
        self._handle.close()
        self._handle = None


class ArtifactStore:
    """Checksummed, atomically-written ``.npz`` artifacts on disk.

    Parameters
    ----------
    root:
        Store directory (created on first use).  Defaults to
        :func:`default_store_root`.

    The generic surface is ``put(key, arrays, meta)`` /
    ``get(key)``; the artifact-aware surface
    (:meth:`save_artifact` / :meth:`load_artifact`) adds the codec
    dispatch :class:`~repro.campaign.cache.GoldenCache` consumes.
    All methods are thread-safe and never raise on a damaged store:
    corruption quarantines and reads degrade to misses.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.path.abspath(root if root is not None
                                    else default_store_root())
        self.objects_dir = os.path.join(self.root, "objects")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        self.index_path = os.path.join(self.root, "index.json")
        self._lock_path = os.path.join(self.root, "index.lock")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._quarantined = 0
        self._errors = 0

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def info(self) -> StoreInfo:
        """Current hit/miss/write/quarantine counters."""
        with self._lock:
            return StoreInfo(self._hits, self._misses, self._writes,
                             self._quarantined, self._errors)

    def _count(self, field: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)
        # Mirror into the process-default registry so store behaviour
        # shows on /metrics and in `repro campaign --profile` runs.
        default_registry().counter("store_ops_total",
                                   op=field.lstrip("_")).inc()

    # ------------------------------------------------------------------
    # Index
    # ------------------------------------------------------------------
    def _read_index(self) -> Dict[str, Dict]:
        """The on-disk index (empty on absence or damage)."""
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                index = json.load(handle)
        except FileNotFoundError:
            return {}
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            # A torn index is recoverable state, not a crash: entries
            # re-register on the next write, payloads re-verify by
            # checksum either way.
            self._count("_errors")
            return {}
        if not isinstance(index, dict) \
                or index.get("version") != INDEX_VERSION:
            return {}
        entries = index.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _update_index(self, mutate: Callable[[Dict[str, Dict]], None]
                      ) -> None:
        """Read-merge-replace the index under the cross-process lock."""
        with _IndexLock(self._lock_path):
            entries = self._read_index()
            mutate(entries)
            body = json.dumps({"version": INDEX_VERSION,
                               "entries": entries},
                              indent=0, sort_keys=True).encode("utf-8")
            atomic_write_bytes(self.index_path, body,
                               tear_fault="store.index.tear")

    # ------------------------------------------------------------------
    # Generic put/get
    # ------------------------------------------------------------------
    def put(self, key, arrays: Dict[str, np.ndarray],
            meta: Optional[Dict] = None) -> str:
        """Persist one artifact; returns its key id.

        ``arrays`` land in one ``.npz`` (:func:`pack_archive`, stored
        members) alongside a JSON ``meta`` record; the payload is
        written atomically and its sha256 recorded in the index.
        """
        kid = key_id(key)
        kind = str(key[0]) if isinstance(key, tuple) and key else "raw"
        with span("store.put", kind=kind):
            data = pack_archive(arrays, meta if meta is not None else {},
                                _META)
            digest = hashlib.sha256(data).hexdigest()
            filename = kid + ".npz"
            path = os.path.join(self.objects_dir, filename)
            atomic_write_bytes(path, data,
                               tear_fault="store.write.tear")
            entry = {
                "key": repr(key),
                "kind": kind,
                "sha256": digest,
                "bytes": len(data),
                "file": os.path.join("objects", filename),
                "written": time.time(),
            }
            self._update_index(
                lambda entries: entries.__setitem__(kid, entry))
            self._count("_writes")
        return kid

    def get(self, key) -> Optional[Tuple[Dict[str, np.ndarray], Dict]]:
        """Load one artifact, or None on miss/corruption.

        Verifies the payload's sha256 against the index before
        decoding; a mismatch or an undecodable archive quarantines the
        file, drops the index entry, and returns None -- the caller
        recomputes and rewrites.
        """
        kid = key_id(key)
        with span("store.get") as sp:
            entry = self._read_index().get(kid)
            if entry is None:
                self._count("_misses")
                sp.set(outcome="miss")
                return None
            path = os.path.join(self.root, entry.get("file", ""))
            if should_fail("store.read.corrupt"):
                self._corrupt_on_disk(path)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                self._count("_misses")
                sp.set(outcome="miss")
                return None
            if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
                self._quarantine(kid, path, "checksum mismatch")
                self._count("_misses")
                sp.set(outcome="quarantined")
                return None
            try:
                arrays, meta = unpack_archive(data, _META)
            except Exception:
                # Checksum matched but the archive is undecodable
                # (e.g. a truncated payload whose checksum was
                # recorded by a torn index writer): same degradation
                # path.
                self._quarantine(kid, path, "undecodable archive")
                self._count("_misses")
                sp.set(outcome="quarantined")
                return None
            self._count("_hits")
            sp.set(outcome="hit")
        return arrays, meta

    def contains(self, key) -> bool:
        """True when the index lists ``key`` (payload not verified)."""
        return key_id(key) in self._read_index()

    def keys(self) -> Dict[str, str]:
        """Mapping of key id -> recorded key repr."""
        return {kid: entry.get("key", "")
                for kid, entry in self._read_index().items()}

    def __len__(self) -> int:
        return len(self._read_index())

    # ------------------------------------------------------------------
    # Damage handling
    # ------------------------------------------------------------------
    @staticmethod
    def _corrupt_on_disk(path: str) -> None:
        """Flip a byte of ``path`` in place (the armed-corruption
        fault point's action; simulates bit rot)."""
        try:
            with open(path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    return
                handle.seek(size // 2)
                byte = handle.read(1)
                handle.seek(size // 2)
                handle.write(bytes([byte[0] ^ 0xFF]) if byte
                             else b"\xff")
        except OSError:  # pragma: no cover
            pass

    def _quarantine(self, kid: str, path: str, reason: str) -> None:
        """Move a damaged payload aside and drop its index entry."""
        with span("store.quarantine", key_id=kid, reason=reason):
            target = os.path.join(
                self.quarantine_dir,
                f"{kid}.{os.getpid()}.{int(time.time() * 1e3)}.npz")
            try:
                os.replace(path, target)
            except OSError:
                # Already gone (e.g. the other process quarantined
                # first).
                pass
            self._update_index(lambda entries: entries.pop(kid, None))
            self._count("_quarantined")

    # ------------------------------------------------------------------
    # Artifact codecs (the GoldenCache write-through surface)
    # ------------------------------------------------------------------
    def save_artifact(self, key, value) -> bool:
        """Persist a cache value when its kind has a codec.

        Returns True when written; unknown kinds and encoding failures
        return False (memory-only caching continues unaffected).
        """
        codec = _codec_for(key)
        if codec is None:
            return False
        try:
            arrays, meta = codec.encode(value)
            self.put(key, arrays, meta)
            return True
        except Exception:
            self._count("_errors")
            return False

    def load_artifact(self, key):
        """Decode a persisted cache value, or None on miss/damage."""
        codec = _codec_for(key)
        if codec is None:
            return None
        loaded = self.get(key)
        if loaded is None:
            return None
        arrays, meta = loaded
        try:
            return codec.decode(arrays, meta)
        except Exception:
            self._count("_errors")
            return None


# ----------------------------------------------------------------------
# Codecs: content-keyed cache values <-> (arrays, meta)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Codec:
    encode: Callable
    decode: Callable


def signature_runs(signature) -> Tuple[np.ndarray, np.ndarray]:
    """A signature's ``(codes, durations)`` runs as archive arrays."""
    return (np.asarray(signature.codes(), dtype=np.int64),
            np.asarray(signature.durations(), dtype=float))


def signature_from_runs(codes: np.ndarray, durations: np.ndarray,
                        period: float):
    """Inverse of :func:`signature_runs`."""
    from repro.core.signature import Signature

    return Signature.from_pairs(
        zip(codes.tolist(), durations.tolist()), float(period))


def _encode_golden(artifacts) -> Tuple[Dict[str, np.ndarray], Dict]:
    codes, durations = signature_runs(artifacts.signature)
    arrays = {
        "times": artifacts.times,
        "x": artifacts.x,
        "y": artifacts.y,
        "codes": artifacts.codes,
        "sig_codes": codes,
        "sig_durations": durations,
    }
    return arrays, {"period": float(artifacts.period)}


def _decode_golden(arrays: Dict[str, np.ndarray], meta: Dict):
    from repro.campaign.cache import GoldenArtifacts

    period = float(meta["period"])
    signature = signature_from_runs(arrays["sig_codes"],
                                    arrays["sig_durations"], period)
    return GoldenArtifacts(
        times=arrays["times"], x=arrays["x"], y=arrays["y"],
        codes=arrays["codes"], signature=signature, period=period)


def _encode_calibration(calibration
                        ) -> Tuple[Dict[str, np.ndarray], Dict]:
    return ({"deviations": calibration.deviations,
             "ndfs": calibration.ndfs}, {})


def _decode_calibration(arrays: Dict[str, np.ndarray], meta: Dict):
    from repro.core.decision import ThresholdCalibration

    return ThresholdCalibration(arrays["deviations"], arrays["ndfs"])


def _decode_dictionary(arrays: Dict[str, np.ndarray], meta: Dict):
    from repro.diagnosis.dictionary import FaultDictionary

    return FaultDictionary.from_arrays(arrays, meta)


#: Persistable cache-key kinds (key[0]) and their codecs.  Multi-channel
#: dictionaries stay memory-only: they carry live encoder objects.
_CODECS: Dict[str, _Codec] = {
    "golden": _Codec(_encode_golden, _decode_golden),
    "calibration": _Codec(_encode_calibration, _decode_calibration),
    "fault_dictionary": _Codec(lambda dictionary: dictionary.to_arrays(),
                               _decode_dictionary),
}


def _codec_for(key) -> Optional[_Codec]:
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return _CODECS.get(key[0])
    return None


def persistable_kinds() -> Tuple[str, ...]:
    """The artifact kinds the store can round-trip."""
    return tuple(sorted(_CODECS))


__all__ = [
    "ArtifactStore",
    "STORE_ENV_VAR",
    "StoreInfo",
    "atomic_write_bytes",
    "default_store_root",
    "key_id",
    "pack_archive",
    "persistable_kinds",
    "signature_from_runs",
    "signature_runs",
    "unpack_archive",
]
