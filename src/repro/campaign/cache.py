"""Content-keyed caching of golden signatures and calibrations.

Every campaign that shares a configuration -- stimulus, zone encoder,
golden CUT nominal and sampling density -- also shares its golden
signature and its Fig. 8 calibration band.  The seed code re-derived
both inside every workload loop; here they are computed once and keyed
by *content*:

* the stimulus key is the exact tone table (frequency, amplitude,
  phase, offset);
* the encoder key is :meth:`repro.core.zones.ZoneEncoder.fingerprint`,
  a hash of the realized zone partition, so a rebuilt-but-identical
  Table I bank hits while a Monte Carlo-varied bank misses;
* the CUT nominal key is the golden Biquad spec (or an explicit
  ``golden_key`` for non-spec CUTs).

The cache is a small LRU; hit/miss counters are exposed for the
campaign result's diagnostics and the cache behaviour tests.

An optional on-disk :class:`repro.store.ArtifactStore` can back the
LRU (pass ``store=``): in-memory misses consult the store before
computing, and fresh computations are written through, so a restarted
process warms from disk instead of re-deriving goldens, calibrations
and fault dictionaries.  Store damage never propagates -- a corrupt or
unreadable artifact simply degrades to a recompute.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Tuple

import numpy as np

from repro.core.signature import Signature
from repro.core.zones import ZoneEncoder
from repro.filters.biquad import BiquadSpec
from repro.obs.metrics import default_registry
from repro.obs.trace import span
from repro.signals.multitone import Multitone


def _cache_kind(key: Hashable) -> str:
    """Artifact kind of a cache key (keys lead with a kind tag)."""
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return "other"


def stimulus_key(stimulus: Multitone) -> Tuple:
    """Hashable content key of a multitone stimulus."""
    return (float(stimulus.offset),
            tuple((float(t.freq_hz), float(t.amplitude),
                   float(t.phase_deg)) for t in stimulus.tones))


def spec_key(spec: BiquadSpec) -> Tuple:
    """Hashable content key of a Biquad nominal."""
    return (float(spec.f0_hz), float(spec.q), float(spec.gain),
            spec.kind.value)


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of the cache counters."""

    hits: int
    misses: int
    size: int

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.size} cached)")


@dataclass(frozen=True)
class GoldenArtifacts:
    """Everything derived once per campaign configuration.

    Attributes
    ----------
    times:
        The shared capture grid over one period.
    x:
        Stimulus samples on the grid (the Lissajous X signal).
    y:
        Golden CUT response samples on the grid (the Y signal) --
        encoder-variation campaigns re-encode this same trace through
        varied monitor banks.
    codes:
        Golden zone codes on the grid.
    signature:
        The golden signature (grid-quantized, matching the batched
        capture of the observed dies).
    period:
        Signature period in seconds.
    """

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    codes: np.ndarray
    signature: Signature
    period: float


class GoldenCache:
    """LRU cache of golden artifacts and derived calibrations.

    Every :class:`~repro.campaign.engine.CampaignEngine` owns one by
    default (pass ``cache=`` to share artifacts between engines, e.g.
    across the channels of a multi-signature setup or the sessions of
    a screening service).  Pool-executor workers amortize through a
    per-process instance of their own instead.

    The cache is re-entrant and thread-safe: an internal
    :class:`threading.RLock` serializes lookups *including* the miss
    computation, giving single-flight semantics -- when N server
    threads race for the same cold golden, one computes it and the
    rest hit.  Recursive computes (a fault-dictionary compile runs a
    whole campaign, which consults the same cache for its golden)
    re-enter through the same lock.

    ``store`` optionally backs the LRU with an on-disk
    :class:`repro.store.ArtifactStore`: a memory miss first tries
    ``store.load_artifact(key)`` (a store hit skips the compute
    entirely -- this is how a restarted session warms instantly), and
    every fresh compute is written through with
    ``store.save_artifact``.  The store is duck-typed and every call
    is failure-isolated: a broken disk degrades to plain in-memory
    caching, never an exception on the screening path.
    """

    def __init__(self, maxsize: int = 64, store=None) -> None:
        if maxsize < 1:
            raise ValueError("cache needs room for at least one entry")
        self.maxsize = int(maxsize)
        self.store = store
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _store_load(self, key: Hashable):
        if self.store is None:
            return None
        try:
            return self.store.load_artifact(key)
        except Exception:
            return None

    def _store_save(self, key: Hashable, value: object) -> None:
        if self.store is None:
            return
        try:
            self.store.save_artifact(key, value)
        except Exception:
            pass

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], object]) -> object:
        """Cached value for ``key``, computing (and storing) on miss.

        Lookups count into the process-default metrics registry
        (``cache_lookups_total{kind,outcome}``); a miss's compute runs
        under a ``cache.compute`` span so a cold golden or dictionary
        compile is attributable in a trace.
        """
        kind = _cache_kind(key)
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                default_registry().counter(
                    "cache_lookups_total", kind=kind,
                    outcome="hit").inc()
                return self._entries[key]
            self._misses += 1
            value = self._store_load(key)
            outcome = "store_hit" if value is not None else "miss"
            default_registry().counter(
                "cache_lookups_total", kind=kind, outcome=outcome).inc()
            if value is None:
                with span("cache.compute", kind=kind):
                    value = compute()
                self._store_save(key, value)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return value

    def contains(self, key: Hashable) -> bool:
        """True when ``key`` is cached (does not touch the counters)."""
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    @property
    def info(self) -> CacheInfo:
        """Current hit/miss/size counters."""
        with self._lock:
            return CacheInfo(self._hits, self._misses,
                             len(self._entries))


def encoder_key(encoder: ZoneEncoder) -> str:
    """Content key of a zone encoder (cached on the instance).

    The fingerprint probe is itself not free, so it is memoized per
    encoder object; two distinct objects with the same boundaries still
    collapse onto the same key value.
    """
    cached = getattr(encoder, "_campaign_fingerprint", None)
    if cached is None:
        cached = encoder.fingerprint()
        encoder._campaign_fingerprint = cached
    return cached


#: Per-process cache of the pool-executor workers.  Worker processes
#: receive pickled chunk payloads with no way to carry an engine's
#: cache across, so each worker amortizes golden computation across
#: its chunks through this instance.  In-process code must NOT reach
#: for it -- engines default to a private per-engine cache, and shared
#: warm state is an explicit ``cache=`` hand-off.
_PROCESS_CACHE = GoldenCache()


#: Process-wide cache of the certified front half: threshold tables
#: and trace bases, one build per process per configuration (every
#: pool worker, shard worker and server process builds its own).  It
#: is in-memory only and never store-backed on purpose: a threshold
#: table certifies the ``exp``/``log1p`` of the machine that built it.
_FRONT_HALF_CACHE = GoldenCache(maxsize=32)


def __getattr__(name: str):
    # The old module-global backing store survives only as a
    # deprecated alias; the engine no longer consults it implicitly.
    if name == "DEFAULT_CACHE":
        warnings.warn(
            "repro.campaign.cache.DEFAULT_CACHE is deprecated: "
            "CampaignEngine now defaults to a per-engine GoldenCache; "
            "pass cache= explicitly to share golden artifacts between "
            "engines (e.g. one repro.service.ScreeningSession)",
            DeprecationWarning, stacklevel=2)
        return _PROCESS_CACHE
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
