"""Re-entrant screening sessions: warm engine state behind one object.

A :class:`ScreeningSession` is the unit of warm state in the screening
service: it owns a :class:`~repro.campaign.engine.CampaignEngine` with
a private lock-guarded :class:`~repro.campaign.cache.GoldenCache`, so
golden signatures, Fig. 8 calibration bands and compiled fault
dictionaries are derived once and then held resident across requests
-- the opposite of the per-process flow, where every fresh process
re-derived them.

Sessions are re-entrant: any number of threads may call
:meth:`submit` concurrently.  The engine itself is stateless per call
(all chunk state is local), the scratch pool and the golden cache are
lock-guarded, and cache misses are single-flight -- N racing threads
asking for the same cold golden compute it once.  Results are
bit-identical to serial submission of the same requests (proven by
``tests/service/test_session_reentrancy.py``).

Sessions can be *crash-safe*: :meth:`from_paper` with ``store=``
backs the golden cache with an on-disk
:class:`repro.store.ArtifactStore`, so a restarted process warms from
persisted goldens/calibrations/dictionaries instead of re-deriving
them (``docs/persistence.md``).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.campaign.engine import CampaignEngine
from repro.campaign.request import ScreeningRequest
from repro.campaign.result import CampaignResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_request_id, request_context, span
from repro.testing.faultinject import (
    fail_if_armed,
    should_fail,
    slow_seconds,
)


class ScreeningSession:
    """One warm, thread-safe screening context over one engine.

    Parameters
    ----------
    engine:
        The campaign engine to serve (its cache is the session's warm
        store).  Build from the paper bench via :meth:`from_paper`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`;
        submissions then record request counts and per-stage engine
        timings.
    """

    def __init__(self, engine: CampaignEngine,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.engine = engine
        self.metrics = metrics
        self._dict_lock = threading.Lock()
        self._submitted = 0
        self._count_lock = threading.Lock()

    @classmethod
    def from_paper(cls, samples_per_period: int = 2048,
                   tolerance: float = 0.05, executor=None,
                   metrics: Optional[MetricsRegistry] = None,
                   store=None) -> "ScreeningSession":
        """Session over the calibrated paper bench (the common case).

        ``store`` makes the session crash-safe: pass an
        :class:`repro.store.ArtifactStore`, a directory path, or True
        (the default root: ``$REPRO_STORE`` or ``~/.repro/store``) to
        back the golden cache with the on-disk store, so a restarted
        session warms from persisted artifacts.
        """
        from repro.campaign.cache import GoldenCache
        from repro.paper import paper_setup
        from repro.store import ArtifactStore

        setup = paper_setup(samples_per_period=samples_per_period)
        cache = None
        if store is not None:
            if store is True:
                store = ArtifactStore()
            elif not isinstance(store, ArtifactStore):
                store = ArtifactStore(store)
            cache = GoldenCache(store=store)
        engine = setup.campaign_engine(
            samples_per_period=samples_per_period, tolerance=tolerance,
            executor=executor, cache=cache)
        return cls(engine, metrics=metrics)

    # ------------------------------------------------------------------
    # Warm state
    # ------------------------------------------------------------------
    def warm(self, dictionary: bool = True) -> Dict[str, bool]:
        """Pre-derive the expensive artifacts before traffic arrives.

        Computes the golden signature and the calibrated decision band
        (and, unless ``dictionary=False``, compiles the fault
        dictionary) into the session cache, so the first client
        request pays none of it.  Returns which artifacts were warmed.
        """
        self.engine.golden()
        self.engine.band()
        warmed = {"golden": True, "band": True, "dictionary": False}
        if dictionary:
            self.dictionary()
            warmed["dictionary"] = True
        return warmed

    def dictionary(self):
        """The session's compiled fault dictionary (held resident).

        Compiled through the engine's own front half on first use and
        content-cached in the session cache; subsequent calls (from
        any thread) hit.  The dictionary lock keeps racing first
        callers from compiling twice.
        """
        from repro.diagnosis import compile_fault_dictionary

        with self._dict_lock:
            return compile_fault_dictionary(self.engine)

    def threshold(self) -> float:
        """The calibrated decision threshold (cached)."""
        return self.engine.band().threshold

    @property
    def cache_info(self):
        """The warm cache's hit/miss counters."""
        return self.engine.cache.info

    @property
    def store(self):
        """The on-disk artifact store backing the cache (or None)."""
        return getattr(self.engine.cache, "store", None)

    @property
    def store_info(self):
        """The store's hit/miss/write/quarantine counters (or None)."""
        store = self.store
        return store.info if store is not None else None

    @property
    def submitted(self) -> int:
        """Requests submitted through this session so far."""
        with self._count_lock:
            return self._submitted

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def submit(self, request: ScreeningRequest) -> CampaignResult:
        """Screen one request's lot on the engine (re-entrant).

        Safe to call from any number of threads at once; results are
        bit-identical to serial submission.  Records request counts
        and per-stage timings when the session carries metrics.
        """
        with self._count_lock:
            self._submitted += 1
        # Robustness-test hooks: inert unless armed via REPRO_FAULTS
        # or repro.testing.faultinject.inject().
        fail_if_armed("session.submit.error")
        if should_fail("session.slow"):
            import time

            time.sleep(slow_seconds())
        # Re-bind the request id here: the batcher hands work to its
        # own worker thread, so the handler's contextvar binding does
        # not reach this frame -- the id rides the request object.  A
        # request without an id keeps whatever binding is ambient.
        rid = (request.request_id if request.request_id is not None
               else get_request_id())
        with request_context(rid), \
                span("session.submit", client=request.client or ""):
            result = self.engine.submit(request)
        if self.metrics is not None:
            self.metrics.counter("session_requests_total").inc()
            self.metrics.observe_timings(result.timing)
        return result

    def diagnose_result(self, result: CampaignResult, top_k: int = 3,
                        metric: str = "ndf",
                        failing_only: bool = True):
        """Match a campaign result against the warm fault dictionary.

        The result must carry packed signatures (submit the request
        with ``keep_signatures=True``).  Returns a
        :class:`repro.diagnosis.DiagnosisResult`.
        """
        return result.diagnose(self.dictionary(), top_k=top_k,
                               failing_only=failing_only,
                               metric=metric)
