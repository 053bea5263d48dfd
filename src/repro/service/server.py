"""Screening-as-a-service: the stdlib HTTP front end.

One long-lived :class:`ScreeningServer` (a ``ThreadingHTTPServer``)
exposes the campaign engine to many concurrent clients:

=============  ======  ==================================================
``/campaign``  POST    screen a die-lot, return per-die NDFs + verdicts
``/diagnose``  POST    screen + match failing dies against the warm
                       fault dictionary
``/healthz``   GET     liveness + warm-state summary (JSON)
``/metrics``   GET     Prometheus-style text scrape
=============  ======  ==================================================

Every request thread goes through per-client token-bucket rate
limiting (HTTP 429 + ``Retry-After`` when the bucket is empty), then
hands its request to the :class:`~repro.service.batcher.
CoalescingBatcher`, which packs concurrent compatible lots into one
engine pass and scatters per-client slices back -- bit-identical to
solo runs.  All state (golden cache, calibration, compiled dictionary)
lives in one warm :class:`~repro.service.session.ScreeningSession`.

The failure envelope is explicit (``docs/service.md``):

- ``Idempotency-Key`` headers dedupe retried POSTs through an
  :class:`IdempotencyCache` -- a replayed lot is answered from the
  first execution's cached 2xx response, never executed twice;
- ``deadline`` bounds each screening submission (HTTP 504 on expiry);
- ``max_queue`` bounds the batcher wait queue (HTTP 503 +
  ``Retry-After`` load shedding when full);
- :meth:`ScreeningServer.drain` refuses new work (503) while letting
  in-flight requests finish -- the CLI wires it to SIGTERM;
- :func:`build_server`'s ``store=`` persists warm artifacts across
  restarts (``docs/persistence.md``).

Request JSON (see ``docs/service.md`` for the full schema)::

    {"kind": "mc", "dies": 50, "sigma": 0.03, "seed": 7}
    {"kind": "sweep", "deviations": [-0.1, 0.0, 0.1]}
    {"kind": "traces", "y": [[...], [...]]}

The server is dependency-free (``http.server`` + ``json``); run it
from the CLI with ``repro serve``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Set, Tuple, Union
from urllib.parse import urlsplit

import numpy as np

from repro.campaign.request import ScreeningRequest
from repro.obs.logs import log_event
from repro.obs.metrics import MetricsRegistry, default_registry, timed
from repro.obs.trace import (
    REQUEST_ID_HEADER,
    get_request_id,
    new_request_id,
    request_context,
    span,
)
from repro.service.batcher import (
    CoalescingBatcher,
    DeadlineExceeded,
    QueueFull,
)
from repro.service.client import IDEMPOTENCY_HEADER
from repro.service.ratelimit import RateLimiter
from repro.service.session import ScreeningSession
from repro.testing.faultinject import fail_if_armed, should_fail

#: Header carrying the client identity (falls back to the peer IP).
CLIENT_HEADER = "X-Client"

#: Hard cap on request bodies (a million-sample trace stack is a
#: library workload, not an HTTP payload).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Seconds :meth:`ScreeningServer.close` waits for busy connections
#: to answer their current request.
CLOSE_GRACE = 5.0

#: Seconds between the accept loop's checks for a shutdown request:
#: the longest :meth:`ScreeningServer.close` (and ``drain``) waits for
#: the loop to stop.  ``serve_forever``'s own default is 0.5 s.
POLL_INTERVAL = 0.05


class BadRequest(ValueError):
    """Client-side request error (rendered as HTTP 400)."""


class IdempotencyCache:
    """Dedupe of retried POSTs, keyed (client, endpoint, key).

    The contract behind the client's ``Idempotency-Key`` header:

    - the first request carrying a key *executes*; its 2xx response
      body is cached and every later request with the same key gets
      the stored body back -- the lot never runs twice;
    - only success is cached.  A failed execution drops its claim, so
      a retry after a 5xx/504 *re-executes* -- exactly what the client
      wants from a failure it retried through;
    - a duplicate arriving while the first execution is still running
      waits on it instead of racing it (then replays, or re-executes
      if the first attempt failed).

    Bounded LRU; entries are whole JSON-able response bodies, which
    for this service are small (verdict lists, not traces).
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._done: "OrderedDict[Tuple, Tuple[int, Dict]]" = \
            OrderedDict()
        self._inflight: Dict[Tuple, threading.Event] = {}
        # Request id of each key's *original* execution, kept apart
        # from _done so the cached (status, body) shape stays stable.
        self._request_ids: Dict[Tuple, str] = {}

    def claim(self, key: Tuple) -> Tuple[str, Union[
            None, Tuple[int, Dict], threading.Event]]:
        """One of ``("replay", (status, body))`` (already executed),
        ``("wait", event)`` (someone is executing it right now) or
        ``("execute", None)`` (the caller owns the execution and must
        call :meth:`finish`)."""
        with self._lock:
            stored = self._done.get(key)
            if stored is not None:
                self._done.move_to_end(key)
                return "replay", stored
            event = self._inflight.get(key)
            if event is not None:
                return "wait", event
            self._inflight[key] = threading.Event()
            return "execute", None

    def finish(self, key: Tuple, status: int, body: Dict,
               request_id: Optional[str] = None) -> None:
        """Record the execution outcome and release any waiters."""
        with self._lock:
            event = self._inflight.pop(key, None)
            if 200 <= status < 300:
                self._done[key] = (status, body)
                if request_id is not None:
                    self._request_ids[key] = request_id
                while len(self._done) > self.maxsize:
                    evicted, __ = self._done.popitem(last=False)
                    self._request_ids.pop(evicted, None)
        if event is not None:
            event.set()

    def original_request_id(self, key: Tuple) -> Optional[str]:
        """Request id of the execution a replay is answered from."""
        with self._lock:
            return self._request_ids.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)


def population_from_payload(payload: Dict, golden_spec):
    """Build the requested population from one JSON payload.

    ``kind`` selects the builder: ``"mc"`` (Monte Carlo dies;
    ``dies``, ``sigma``, ``sigma_q``, ``seed``), ``"sweep"``
    (``deviations`` list) or ``"traces"`` (``y`` rows on the
    session's capture grid).  Monte Carlo lots are deterministic in
    ``(seed, die index)``, so a client re-sending the same payload
    gets bit-identical dies -- the property the smoke test leans on.
    """
    from repro.campaign.scenarios import (
        deviation_sweep_population,
        montecarlo_dies,
        trace_population,
    )

    kind = payload.get("kind", "mc")
    if kind == "mc":
        dies = int(payload.get("dies", 32))
        if dies < 0:
            raise BadRequest("dies must be non-negative")
        if dies > 1_000_000:
            raise BadRequest("lot too large for one request; "
                             "split it or use the library API")
        return montecarlo_dies(
            golden_spec, dies,
            sigma_f0=float(payload.get("sigma", 0.03)),
            sigma_q=float(payload.get("sigma_q", 0.0)),
            seed=int(payload.get("seed", 0)))
    if kind == "sweep":
        deviations = payload.get("deviations")
        if not isinstance(deviations, (list, tuple)) or not deviations:
            raise BadRequest("sweep needs a non-empty 'deviations' "
                             "list")
        return deviation_sweep_population(
            golden_spec, [float(d) for d in deviations])
    if kind == "traces":
        rows = payload.get("y")
        if not isinstance(rows, list) or not rows:
            raise BadRequest("traces need a non-empty 'y' row list")
        try:
            stack = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as error:
            raise BadRequest(f"bad trace rows: {error}") from None
        if stack.ndim != 2:
            raise BadRequest("trace rows must form a rectangular "
                             "(N, samples) stack")
        return trace_population(stack, payload.get("labels"))
    raise BadRequest(f"unknown population kind {kind!r} "
                     "(expected mc, sweep or traces)")


def request_from_payload(payload: Dict, golden_spec,
                         client: Optional[str] = None,
                         keep_signatures: bool = False,
                         request_id: Optional[str] = None
                         ) -> ScreeningRequest:
    """One :class:`ScreeningRequest` from a /campaign-style payload."""
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    band = payload.get("band", "auto")
    if band is not None and band != "auto":
        try:
            band = float(band)
        except (TypeError, ValueError):
            raise BadRequest("band must be 'auto', a number or null") \
                from None
    return ScreeningRequest(
        population=population_from_payload(payload, golden_spec),
        band=band, keep_signatures=keep_signatures,
        client=client, request_id=request_id)


def campaign_payload(result, include_ndfs: bool = True) -> Dict:
    """JSON-ready view of one per-client campaign result."""
    payload = {
        "dies": result.num_dies,
        "threshold": result.threshold,
        "executor": result.executor,
        "labels": list(result.labels or []),
        "timing": {k: float(v) for k, v in result.timing.items()},
    }
    if include_ndfs:
        payload["ndfs"] = [float(v) for v in result.ndfs]
    if result.verdicts is not None:
        payload["verdicts"] = [bool(v) for v in result.verdicts]
        payload["pass"] = result.pass_count
        payload["fail"] = result.fail_count
    return payload


class ScreeningServer(ThreadingHTTPServer):
    """The long-lived multi-client screening front end.

    One request-handling thread per connection
    (``ThreadingHTTPServer``); the session, batcher, limiter and
    metrics registry hang off the server object so every handler
    thread shares the same warm state.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 session: ScreeningSession,
                 rate: Optional[float] = None,
                 burst: Optional[float] = None,
                 window: float = 0.005,
                 max_dies: int = 100_000,
                 metrics: Optional[MetricsRegistry] = None,
                 deadline: Optional[float] = None,
                 max_queue: Optional[int] = None) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        # Default to the process-wide registry: engine-level series
        # (engine_stage_seconds, cache/store counters) recorded by the
        # pipeline then appear on this server's /metrics for free.
        self.metrics = metrics if metrics is not None \
            else default_registry()
        self.started = time.time()
        #: Unix timestamp of the last 5xx answered (None = never).
        self.last_error: Optional[float] = None
        if session.metrics is None:
            session.metrics = self.metrics
        self.session = session
        self.limiter = RateLimiter(rate, burst)
        self.batcher = CoalescingBatcher(
            session, window=window, max_dies=max_dies,
            metrics=self.metrics, max_queue=max_queue)
        self.deadline = deadline
        self.idempotency = IdempotencyCache()
        self.draining = False
        self._inflight_lock = threading.Lock()
        self._inflight_count = 0
        self._idle = threading.Event()
        self._idle.set()
        # Accepted sockets whose handler has not finished: kept-alive
        # connections that close() must end.
        self._connections: Set[socket.socket] = set()
        self._connections_done = threading.Condition()
        self._serve_thread: Optional[threading.Thread] = None
        super().__init__(address, _Handler)

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def warm(self, dictionary: bool = True) -> None:
        """Pre-derive golden/band/dictionary before serving."""
        self.session.warm(dictionary=dictionary)

    def start(self) -> "ScreeningServer":
        """Serve in a background thread (tests, embedded use)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, args=(POLL_INTERVAL,),
            name="repro-serve", daemon=True)
        self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop serving, end every open connection, drain the batcher.

        An idle kept-alive connection is closed at once; a busy one
        after its handler has answered the request it is on (waiting
        up to :data:`CLOSE_GRACE` seconds), so a client reusing a
        connection sees it closed rather than sending into a server
        that has gone.
        """
        self.shutdown()
        self.server_close()
        with self._connections_done:
            for connection in self._connections:
                try:
                    # EOF to the handler's next read; replies still go.
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self._connections_done.wait_for(
                lambda: not self._connections, CLOSE_GRACE)
        self.batcher.close()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._serve_thread = None

    def process_request(self, request, client_address) -> None:
        with self._connections_done:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._connections_done:
            self._connections.discard(request)
            self._connections_done.notify_all()

    # ------------------------------------------------------------------
    # Graceful drain (the CLI's SIGTERM path)
    # ------------------------------------------------------------------
    def _enter_request(self) -> None:
        with self._inflight_lock:
            self._inflight_count += 1
            self._idle.clear()

    def _exit_request(self) -> None:
        with self._inflight_lock:
            self._inflight_count -= 1
            if self._inflight_count == 0:
                self._idle.set()

    @property
    def inflight(self) -> int:
        """Screening requests currently executing."""
        with self._inflight_lock:
            return self._inflight_count

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight work.

        Sets :attr:`draining` (new screening POSTs get 503 +
        ``Retry-After`` and a retrying client fails over), waits up to
        ``timeout`` seconds for in-flight requests to complete, then
        closes the server.  Returns True when everything in flight
        finished inside the timeout.
        """
        self.draining = True
        drained = self._idle.wait(timeout)
        self.close()
        return drained


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests; all state is on the server."""

    server: ScreeningServer
    protocol_version = "HTTP/1.1"
    # A reply is two writes (head, body); with Nagle on, the second
    # waits for the client's delayed ACK of the first on a kept-alive
    # connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        # http.server's default plain-text lines stay suppressed;
        # access logging is the structured JSON record _send emits
        # through repro.obs.logs (opt-in via set_log_sink).
        pass

    def _client_id(self) -> str:
        header = self.headers.get(CLIENT_HEADER)
        if header:
            return header.strip()
        return self.client_address[0]

    def _request_id(self) -> str:
        """The client's ``X-Repro-Request-Id``, or a server-minted one."""
        header = self.headers.get(REQUEST_ID_HEADER)
        if header:
            return header.strip()
        return new_request_id()

    def _send(self, status: int, body: bytes, content_type: str,
              extra: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        rid = get_request_id()
        if rid is not None:
            self.send_header(REQUEST_ID_HEADER, rid)
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        if status >= 500:
            self.server.last_error = time.time()
        started = getattr(self, "_request_started", None)
        log_event(
            "http.request", method=self.command,
            path=urlsplit(self.path).path, status=status,
            duration_ms=round((time.perf_counter() - started) * 1e3, 3)
            if started is not None else None,
            client=self._client_id())

    def _send_json(self, status: int, payload: Dict,
                   extra: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json", extra)

    def _read_body(self) -> bytes:
        """The request body, read whole before any answer: bytes left
        unread would be parsed as the connection's next request."""
        if self.headers.get("Transfer-Encoding"):
            raise BadRequest("send the body with a Content-Length")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise BadRequest("bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise BadRequest("request body too large")
        return self.rfile.read(length)

    def _read_payload(self) -> Dict:
        try:
            payload = json.loads(self._body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"bad JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _publish_store_metrics(self) -> None:
        """Mirror the store counters into gauges before a scrape."""
        info = self.server.session.store_info
        if info is None:
            return
        metrics = self.server.metrics
        metrics.gauge("store_hits").set(info.hits)
        metrics.gauge("store_misses").set(info.misses)
        metrics.gauge("store_writes").set(info.writes)
        metrics.gauge("store_quarantined").set(info.quarantined)
        metrics.gauge("store_errors").set(info.errors)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._request_started = time.perf_counter()
        path = urlsplit(self.path).path
        with request_context(self._request_id()), \
                span("http.request", method="GET", path=path):
            self._get(path)

    def _get(self, path: str) -> None:
        if path == "/healthz":
            metrics = self.server.metrics
            info = self.server.session.cache_info
            body = {
                "status": "draining" if self.server.draining else "ok",
                "submitted": self.server.session.submitted,
                "uptime_seconds": round(
                    time.time() - self.server.started, 3),
                "last_error": self.server.last_error,
                "cache": {"hits": info.hits, "misses": info.misses,
                          "size": info.size},
                "queue_depth": self.server.batcher.queue_depth,
                "inflight": self.server.inflight,
                "metrics_series": sum(
                    len(group) for group in
                    metrics.snapshot().values()),
            }
            store = self.server.session.store_info
            if store is not None:
                body["store"] = {
                    "root": str(self.server.session.store.root),
                    "hits": store.hits, "misses": store.misses,
                    "writes": store.writes,
                    "quarantined": store.quarantined,
                    "errors": store.errors,
                }
            self._send_json(200, body)
            return
        if path == "/metrics":
            self._publish_store_metrics()
            self._send(200, self.server.metrics.render().encode("utf-8"),
                       "text/plain; version=0.0.4; charset=utf-8")
            return
        self._send_json(404, {"error": f"no such endpoint {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._request_started = time.perf_counter()
        path = urlsplit(self.path).path
        with request_context(self._request_id()), \
                span("http.request", method="POST", path=path):
            try:
                self._body = self._read_body()
            except BadRequest as error:
                # The body stays unread, so the connection cannot
                # carry another request.
                self._send_json(400, {"error": str(error)},
                                {"Connection": "close"})
                return
            if path == "/campaign":
                self._screen(diagnose=False)
                return
            if path == "/diagnose":
                self._screen(diagnose=True)
                return
            self._send_json(404,
                            {"error": f"no such endpoint {path!r}"})

    # ------------------------------------------------------------------
    # The two screening endpoints
    # ------------------------------------------------------------------
    def _screen(self, diagnose: bool) -> None:
        endpoint = "diagnose" if diagnose else "campaign"
        metrics = self.server.metrics
        metrics.counter("requests_total", endpoint=endpoint).inc()
        client = self._client_id()
        if self.server.draining:
            metrics.counter("shed_total", endpoint=endpoint,
                            kind="draining").inc()
            self._respond(endpoint, 503,
                          {"error": "draining", "retry_after": 1.0},
                          {"Retry-After": "1.000"})
            return
        admitted, retry = self.server.limiter.allow(client)
        if not admitted:
            metrics.counter("throttled_total", endpoint=endpoint).inc()
            self._respond(endpoint, 429,
                          {"error": "rate limit exceeded",
                           "retry_after": retry},
                          {"Retry-After": f"{retry:.3f}"})
            return
        # Idempotency: a replayed key answers from the first
        # execution's cached response; a concurrent duplicate waits
        # for it instead of racing it.
        header = self.headers.get(IDEMPOTENCY_HEADER)
        idem = (client, endpoint, header.strip()) if header else None
        if idem is not None:
            wait_budget = self.server.deadline or 120.0
            while True:
                action, value = self.server.idempotency.claim(idem)
                if action == "execute":
                    break
                if action == "replay":
                    status, body = value
                    metrics.counter("idempotent_replays_total",
                                    endpoint=endpoint).inc()
                    # The replayed body carries the *original*
                    # execution's request id -- the log line joins
                    # this retry to the work that actually ran.
                    original = self.server.idempotency \
                        .original_request_id(idem)
                    log_event("idempotent.replay", endpoint=endpoint,
                              client=client,
                              original_request_id=original)
                    self._respond(endpoint, status, body,
                                  {"Idempotency-Replay": "true"})
                    return
                if not value.wait(wait_budget):  # action == "wait"
                    metrics.counter("errors_total", endpoint=endpoint,
                                    kind="deadline").inc()
                    self._respond(endpoint, 504, {
                        "error": "deadline exceeded waiting for the "
                                 "original execution of this "
                                 "idempotency key"})
                    return
        status, body, extra = self._execute(endpoint, diagnose, client)
        if idem is not None:
            # Record the outcome *before* answering: a crash between
            # execution and response still lets the client's retry
            # replay the stored result instead of re-running the lot.
            self.server.idempotency.finish(idem, status, body,
                                           request_id=get_request_id())
        if should_fail("server.handler.close"):
            # Fault hook: simulate the worker dying after executing
            # but before answering -- the client sees a connection
            # reset, retries, and must NOT trigger a second execution.
            self.close_connection = True
            self.connection.close()
            return
        self._respond(endpoint, status, body, extra)

    def _respond(self, endpoint: str, status: int, body: Dict,
                 extra: Optional[Dict[str, str]] = None) -> None:
        try:
            self._send_json(status, body, extra)
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-response; nothing to answer.
            self.server.metrics.counter(
                "errors_total", endpoint=endpoint,
                kind="disconnect").inc()

    def _execute(self, endpoint: str, diagnose: bool, client: str
                 ) -> Tuple[int, Dict, Optional[Dict[str, str]]]:
        """Run one screening request; never raises, returns
        ``(status, json_body, extra_headers)``."""
        metrics = self.server.metrics
        inflight = metrics.gauge("inflight", endpoint=endpoint)
        inflight.inc()
        self.server._enter_request()
        batcher = self.server.batcher
        try:
            # Announced from here until the batcher queues it, so a
            # flush already waiting lingers for this request.
            with batcher.arriving():
                fail_if_armed("server.handler.error")
                payload = self._read_payload()
                request = request_from_payload(
                    payload,
                    self.server.session.engine.config.golden_spec,
                    client=client, keep_signatures=diagnose,
                    request_id=get_request_id())
                with timed(metrics.window("request_seconds",
                                          endpoint=endpoint)):
                    result = batcher.submit(
                        request, timeout=self.server.deadline)
            include_ndfs = bool(payload.get("include_ndfs", True))
            body = campaign_payload(result, include_ndfs=include_ndfs)
            body["client"] = client
            body["request_id"] = get_request_id()
            if diagnose:
                diagnosis = self.server.session.diagnose_result(
                    result,
                    top_k=int(payload.get("top_k", 3)),
                    metric=str(payload.get("metric", "ndf")))
                body["diagnosis"] = diagnosis.to_payload()
            return 200, body, None
        except BadRequest as error:
            metrics.counter("errors_total", endpoint=endpoint,
                            kind="bad_request").inc()
            return 400, {"error": str(error)}, None
        except QueueFull as error:
            metrics.counter("shed_total", endpoint=endpoint,
                            kind="queue_full").inc()
            return (503,
                    {"error": "overloaded", "queue_depth": error.depth,
                     "retry_after": error.retry_after},
                    {"Retry-After": f"{error.retry_after:.3f}"})
        except DeadlineExceeded as error:
            metrics.counter("errors_total", endpoint=endpoint,
                            kind="deadline").inc()
            return 504, {"error": f"deadline exceeded: {error}"}, None
        except Exception as error:  # engine/internal failure
            metrics.counter("errors_total", endpoint=endpoint,
                            kind="internal").inc()
            return (500,
                    {"error": f"{type(error).__name__}: {error}"},
                    None)
        finally:
            inflight.dec()
            self.server._exit_request()


def build_server(host: str = "127.0.0.1", port: int = 8765,
                 samples_per_period: int = 2048,
                 tolerance: float = 0.05,
                 rate: Optional[float] = None,
                 burst: Optional[float] = None,
                 window: float = 0.005,
                 max_dies: int = 100_000,
                 metrics: Optional[MetricsRegistry] = None,
                 session: Optional[ScreeningSession] = None,
                 store=None,
                 deadline: Optional[float] = None,
                 max_queue: Optional[int] = None) -> ScreeningServer:
    """A screening server over the calibrated paper bench.

    ``port=0`` binds an ephemeral port (tests); read the bound address
    back from :attr:`ScreeningServer.url`.  ``store`` persists warm
    artifacts on disk (path, :class:`repro.store.ArtifactStore`, or
    True for the default root); ``deadline`` bounds each screening
    request in seconds (504 past it); ``max_queue`` bounds the batcher
    queue (503 + ``Retry-After`` when full).
    """
    metrics = metrics if metrics is not None else default_registry()
    if session is None:
        session = ScreeningSession.from_paper(
            samples_per_period=samples_per_period, tolerance=tolerance,
            metrics=metrics, store=store)
    return ScreeningServer((host, port), session, rate=rate,
                           burst=burst, window=window,
                           max_dies=max_dies, metrics=metrics,
                           deadline=deadline, max_queue=max_queue)
