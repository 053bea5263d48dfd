"""Request coalescing: many small die-lots, one packed engine pass.

The shared-tester economics of the paper cut against tiny lots: a
50-die request pays the same per-pass overheads (golden lookup, chunk
scheduling, encode setup) as a 5000-die one.  The
:class:`CoalescingBatcher` therefore *lingers* for a few milliseconds
when a request arrives, gathers every compatible request that lands in
the window, concatenates their spec populations into one combined
population, runs a single engine pass, and scatters the per-client row
slices back out (:meth:`~repro.campaign.result.CampaignResult.slice`).

Coalescing is invisible to clients: per-die NDFs and verdicts depend
only on that die's own spec (the front half broadcasts per row, the
back half scores per row, and chunking is already proven
order-stable), so every client's slice is **bit-identical** to the
solo run of its own lot -- the property
``tests/service/test_batcher.py`` locks down.

Only one-shot ``run`` requests over spec populations coalesce;
everything else (streams, noise campaigns, trace stacks, cut lists)
passes straight through to the session.  Requests group by decision
policy (resolved threshold, ``keep_signatures``, encoder list), so a
diagnosing client never changes a screening client's result shape.

The batcher is also the service's load-shedding and deadline point:
``max_queue`` bounds how many requests may wait for a flush
(:class:`QueueFull`, the server's 503), ``submit(timeout=...)`` bounds
how long one caller waits for its slice (:class:`DeadlineExceeded`,
the server's 504), and the worker loop is crash-proof -- an exception
escaping a flush fails that batch's waiters instead of killing the
worker thread and hanging every later submission.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.request import ScreeningRequest
from repro.campaign.result import CampaignResult
from repro.campaign.scenarios import SpecPopulation
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.service.session import ScreeningSession


class QueueFull(RuntimeError):
    """The batcher's wait queue is at ``max_queue`` (shed the load).

    The server maps this to HTTP 503 with a ``Retry-After`` hint; a
    retrying client backs off and re-submits under the same
    idempotency key.
    """

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"batcher queue full ({depth} requests waiting)")
        self.depth = depth
        self.retry_after = retry_after


class DeadlineExceeded(TimeoutError):
    """A submission's deadline elapsed before its slice was ready.

    Raised by :meth:`CoalescingBatcher.submit` with ``timeout=``; the
    server maps it to HTTP 504.  A still-queued request is withdrawn
    (it will never execute); one already mid-flush completes in the
    background and its slice is discarded.
    """


@dataclass
class _Pending:
    """One enqueued request waiting for its slice."""

    request: ScreeningRequest
    population: SpecPopulation
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[CampaignResult] = None
    error: Optional[BaseException] = None


def concatenate_populations(parts: List[SpecPopulation]
                            ) -> SpecPopulation:
    """One spec population from many, rows in request order."""
    specs = [spec for part in parts for spec in part.specs]
    labels = [label for part in parts for label in part.labels]
    f0 = (np.concatenate([part.f0_deviations for part in parts])
          if parts else np.empty(0))
    q = (np.concatenate([part.q_deviations for part in parts])
         if parts else np.empty(0))
    return SpecPopulation(specs, f0, q, labels)


class CoalescingBatcher:
    """Linger-window batcher in front of one screening session.

    Parameters
    ----------
    session:
        The warm session the combined passes run through.
    window:
        Linger seconds after the first arrival before a flush (more
        arrivals within the window join the batch).  0 still
        coalesces whatever is queued when the worker wakes.
    max_dies:
        Cap on combined population size per engine pass; a group
        larger than this flushes as several passes (each still one
        packed run).
    metrics:
        Optional registry; flushes record coalesced batch sizes
        (requests and dies per pass) and queue depth.
    max_queue:
        Bound on requests waiting for a flush; further submissions
        raise :class:`QueueFull` instead of queueing (None =
        unbounded, the historical behaviour).
    """

    def __init__(self, session: ScreeningSession,
                 window: float = 0.005, max_dies: int = 100_000,
                 metrics: Optional[MetricsRegistry] = None,
                 max_queue: Optional[int] = None) -> None:
        if max_dies < 1:
            raise ValueError("max_dies must be positive")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be positive (or None)")
        self.session = session
        self.window = float(window)
        self.max_dies = int(max_dies)
        self.max_queue = max_queue
        self.metrics = metrics
        self._cond = threading.Condition()
        self._queue: List[_Pending] = []
        self._closed = False
        self._worker = threading.Thread(
            target=self._loop, name="repro-batcher", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, request: ScreeningRequest,
               timeout: Optional[float] = None) -> CampaignResult:
        """Run ``request``, coalescing it with concurrent compatible
        requests; blocks until this request's own slice is ready.

        Non-coalescible requests (streams, noise, trace/cut
        populations) execute directly on the session.  ``timeout``
        bounds the wait: on expiry the request is withdrawn from the
        queue (if still there) and :class:`DeadlineExceeded` raises.
        Raises :class:`QueueFull` when ``max_queue`` requests are
        already waiting.
        """
        population = self._coalescible_population(request)
        if population is None:
            return self.session.submit(request)
        pending = _Pending(request, population)
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if self.max_queue is not None \
                    and len(self._queue) >= self.max_queue:
                raise QueueFull(len(self._queue),
                                retry_after=max(self.window, 0.05))
            self._queue.append(pending)
            self._cond.notify_all()
        if not pending.done.wait(timeout):
            with self._cond:
                # Withdraw if a flush has not claimed it yet, so an
                # abandoned request is never executed.
                if pending in self._queue:
                    self._queue.remove(pending)
                    pending.done.set()
            raise DeadlineExceeded(
                f"no result within {timeout}s "
                f"({len(pending.population)} dies queued)")
        if pending.error is not None:
            raise pending.error
        return pending.result

    def close(self) -> None:
        """Stop accepting requests and drain the queue."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._worker.join()
        # The worker drains before exiting; anything still queued here
        # means it died earlier -- fail the waiters rather than hang.
        with self._cond:
            leftovers, self._queue = self._queue, []
        self._fail_pendings(
            leftovers, RuntimeError("batcher closed before flush"))

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush."""
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    @staticmethod
    def _coalescible_population(request: ScreeningRequest
                                ) -> Optional[SpecPopulation]:
        """The request's spec population, or None when it cannot
        coalesce (non-run modes and non-spec populations)."""
        if request.mode != "run":
            return None
        population = request.population
        if isinstance(population, SpecPopulation):
            return population
        # Raw spec sequences wrap exactly like the engine would wrap
        # them solo, so slice labels match the solo run's labels.
        if isinstance(population, (list, tuple)) and population:
            try:
                from repro.campaign.engine import CampaignEngine

                wrapped = CampaignEngine._as_population(list(population))
            except (TypeError, ValueError):
                return None
            if isinstance(wrapped, SpecPopulation):
                return wrapped
        return None

    def _group_key(self, request: ScreeningRequest) -> Tuple:
        """Requests sharing this key may share one engine pass."""
        # Resolving "auto" here pins the group to one concrete
        # threshold (cached after the first resolution), so verdicts
        # of the combined pass match every member's solo verdicts.
        threshold = self.session.engine._resolve_threshold(request.band)
        return (threshold, request.keep_signatures, request.encoders)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                # Linger: give concurrent clients the window to join.
                deadline = time.monotonic() + self.window
                while not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch, self._queue = self._queue, []
            try:
                self._flush(batch)
            except BaseException as error:
                # A flush must never kill the worker: a dead worker
                # leaves every queued and future submission waiting
                # forever.  Fail this batch's waiters and keep serving.
                self._fail_pendings(batch, error)

    @staticmethod
    def _fail_pendings(pendings: List[_Pending],
                       error: BaseException) -> None:
        for pending in pendings:
            if not pending.done.is_set():
                if pending.error is None:
                    pending.error = error
                pending.done.set()

    def _flush(self, batch: List[_Pending]) -> None:
        groups: Dict[Tuple, List[_Pending]] = {}
        order: List[Tuple] = []
        for pending in batch:
            if pending.done.is_set():
                continue  # withdrawn by a submit() deadline
            try:
                key = self._group_key(pending.request)
            except Exception as error:  # bad band spec etc.
                pending.error = error
                pending.done.set()
                continue
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(pending)
        for key in order:
            group = groups[key]
            # Respect the die cap: split an oversized group into
            # successive packed passes.
            start = 0
            while start < len(group):
                stop = start
                dies = 0
                while stop < len(group):
                    size = len(group[stop].population)
                    if stop > start and dies + size > self.max_dies:
                        break
                    dies += size
                    stop += 1
                self._run_group(key[0], group[start:stop])
                start = stop

    def _run_group(self, threshold: Optional[float],
                   group: List[_Pending]) -> None:
        try:
            combined = concatenate_populations(
                [pending.population for pending in group])
            head = group[0].request
            # A solo group keeps its requester's identity on the packed
            # pass; a combined pass belongs to several request ids, so
            # the flush span carries them all as an attribute instead.
            request_ids = [pending.request.request_id
                           for pending in group
                           if pending.request.request_id is not None]
            solo = group[0].request if len(group) == 1 else None
            request = ScreeningRequest(
                population=combined, mode="run", band=threshold,
                keep_signatures=head.keep_signatures,
                encoders=head.encoders,
                client=solo.client if solo is not None else None,
                request_id=(solo.request_id if solo is not None
                            else None))
            with span("batcher.flush", clients=len(group),
                      dies=len(combined), request_ids=request_ids):
                result = self.session.submit(request)
                if self.metrics is not None:
                    self.metrics.window("coalesced_requests").observe(
                        len(group))
                    self.metrics.window("coalesced_dies").observe(
                        len(combined))
                offset = 0
                for pending in group:
                    n = len(pending.population)
                    with span("batcher.slice",
                              client=pending.request.client or "",
                              dies=n,
                              request_id=pending.request.request_id):
                        pending.result = result.slice(
                            offset, offset + n)
                    offset += n
        except BaseException as error:
            for pending in group:
                if pending.error is None:
                    pending.error = error
        finally:
            for pending in group:
                pending.done.set()
