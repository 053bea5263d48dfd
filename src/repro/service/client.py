"""Minimal stdlib client for the screening service.

``ServiceClient`` speaks HTTP/1.1 through :mod:`http.client` so
scripts, tests and the CLI can talk to a running ``repro serve``
without any HTTP dependency.  Each calling thread keeps one connection
open across its calls::

    client = ServiceClient("http://127.0.0.1:8765", client_id="lineA")
    verdict = client.campaign(kind="mc", dies=50, sigma=0.03, seed=7)
    print(verdict["pass"], "/", verdict["dies"], "dies passed")

Errors come back as :class:`ServiceError` carrying the HTTP status and
the decoded error payload; a 429 additionally exposes ``retry_after``.
Transport-level failures (connection refused/reset, DNS, timeouts)
normalize into :class:`ServiceUnavailable` -- a ``ServiceError`` with
status 0 -- so callers have exactly one exception surface.

Pass a :class:`RetryPolicy` to make the client storm-proof: transient
failures (connection-level, 429, 5xx) retry with exponentially backed
off, jittered delays, honoring the server's 429 ``Retry-After`` hint.
Every POST carries an ``Idempotency-Key`` header the server dedupes,
so a retried lot is never *executed* twice -- the replay returns the
first execution's cached response (see ``docs/service.md``).
"""

from __future__ import annotations

import http.client
import json
import random
import select
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, Optional
from urllib.parse import urlsplit

from repro.obs.logs import log_event
from repro.obs.trace import REQUEST_ID_HEADER, new_request_id

#: Header carrying the client-chosen request identity the server
#: dedupes replayed POSTs on.
IDEMPOTENCY_HEADER = "Idempotency-Key"


class ServiceError(RuntimeError):
    """A non-2xx response from the screening service."""

    def __init__(self, status: int, payload: Dict) -> None:
        message = payload.get("error") if isinstance(payload, dict) \
            else str(payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload if isinstance(payload, dict) else {}

    @property
    def retry_after(self) -> Optional[float]:
        """Throttle hint in seconds (429/503 responses), else None."""
        value = self.payload.get("retry_after")
        return float(value) if value is not None else None


class ServiceUnavailable(ServiceError):
    """The service could not be reached at the transport level.

    Connection refused/reset, DNS failure, socket timeout -- anything
    below HTTP.  Reported with status 0 and reason ``unavailable`` so
    the one ``except ServiceError`` callers already write catches it,
    and so :class:`RetryPolicy` treats it as transient.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(0, {"error": "unavailable",
                             "reason": reason})
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """When and how the client retries a failed request.

    Retries fire only for *transient* failures -- transport-level
    errors (status 0), 429 throttles and 5xx server errors; any other
    4xx is the caller's bug and raises immediately.  Delays back off
    exponentially (``base_delay * factor**attempt``, capped at
    ``max_delay``) with up to ``jitter`` fractional randomization so
    a fleet of clients does not re-storm in lockstep, and a 429/503
    ``retry_after`` hint acts as a floor -- the server knows its
    drain better than the backoff curve does.

    Attributes
    ----------
    max_attempts:
        Total tries including the first (1 = no retries).
    base_delay, factor, max_delay:
        The exponential backoff curve, in seconds.
    jitter:
        Fraction of each delay added uniformly at random (0 disables;
        tests pin ``rng`` for determinism).
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")

    def retryable(self, error: ServiceError) -> bool:
        """Transient failures only: transport, throttle, 5xx."""
        return (error.status == 0 or error.status == 429
                or 500 <= error.status < 600)

    def delay(self, attempt: int, error: ServiceError,
              rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number ``attempt + 1`` (0-based)."""
        backoff = min(self.max_delay,
                      self.base_delay * self.factor ** attempt)
        if self.jitter > 0:
            draw = (rng.random() if rng is not None
                    else random.random())
            backoff *= 1.0 + self.jitter * draw
        hint = error.retry_after
        if hint is not None:
            backoff = max(backoff, float(hint))
        return backoff


def _closed_by_peer(connection: http.client.HTTPConnection) -> bool:
    """True when an idle connection cannot carry another request.

    Between replies nothing is due from the server, so a readable
    socket means it was closed (EOF) or broke protocol.
    """
    sock = connection.sock
    if sock is None:
        return False  # not connected yet: the request connects it
    try:
        readable, __, __ = select.select([sock], [], [], 0)
    except (OSError, ValueError):
        return True
    return bool(readable)


class ServiceClient:
    """One client identity against one screening service.

    Each calling thread keeps one HTTP/1.1 connection open across its
    calls.  Before a call reuses it, a connection the server has
    closed is dropped and a new one opened; a request that was sent
    is never re-sent by the transport, so a failed send surfaces as
    :class:`ServiceUnavailable` and only :class:`RetryPolicy` retries
    it.

    Parameters
    ----------
    base_url, client_id, timeout:
        Where to connect, who to bill the rate-limiter bucket to, and
        the per-request socket timeout.
    retry:
        Optional :class:`RetryPolicy`.  None (default) preserves
        fail-fast semantics: every failure raises on first contact.
    """

    def __init__(self, base_url: str, client_id: str = "default",
                 timeout: float = 120.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"not an http:// service URL: {base_url!r}")
        self._host, self._port = parts.hostname, parts.port
        self._prefix = parts.path
        self._local = threading.local()
        self.client_id = client_id
        self.timeout = float(timeout)
        self.retry = retry
        #: Request id of the most recent logical request (all of its
        #: retry attempts shared it) -- lets callers join their side
        #: of a story to the server's spans and log lines.
        self.last_request_id: Optional[str] = None
        # Injection points for the robustness tests: deterministic
        # jitter and instant sleeps.
        self._rng: Optional[random.Random] = None
        self._sleep = time.sleep

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, reopened if the server
        closed it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and _closed_by_peer(connection):
            connection.close()
            connection = None
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout)
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        """Close the calling thread's connection; the next call opens
        a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def _request_once(self, path: str, payload: Optional[Dict],
                      headers: Dict[str, str]) -> bytes:
        data = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers = dict(headers)
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        try:
            connection.request("GET" if data is None else "POST",
                               self._prefix + path, body=data,
                               headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            # One exception surface: transport failures (connection
            # refused/reset, DNS, timeouts) become status-0 errors.
            self._drop_connection()
            raise ServiceUnavailable(str(error)) from None
        except BaseException:
            # A half-read reply leaves the connection unusable.
            self._drop_connection()
            raise
        if response.will_close:
            self._drop_connection()
        if not 200 <= response.status < 300:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                body = {"error": raw.decode("utf-8", "replace")}
            raise ServiceError(response.status, body)
        return raw

    def _request(self, path: str, payload: Optional[Dict] = None
                 ) -> bytes:
        # One request id per *logical* request: every retry attempt
        # replays the same id, so server-side spans and log lines of
        # the original execution and every replay join on it.
        request_id = new_request_id()
        self.last_request_id = request_id
        headers = {"X-Client": self.client_id,
                   REQUEST_ID_HEADER: request_id}
        if payload is not None:
            # Same story for the idempotency key: the server executes
            # the lot once and answers the replays from its dedup
            # cache.
            headers[IDEMPOTENCY_HEADER] = uuid.uuid4().hex
        attempts = self.retry.max_attempts if self.retry else 1
        for attempt in range(attempts):
            try:
                return self._request_once(path, payload, headers)
            except ServiceError as error:
                final = attempt + 1 >= attempts
                if final or self.retry is None \
                        or not self.retry.retryable(error):
                    raise
                log_event("client.retry", request_id=request_id,
                          path=path, attempt=attempt + 1,
                          status=error.status)
                self._sleep(self.retry.delay(attempt, error,
                                             self._rng))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_json(self, path: str,
                      payload: Optional[Dict] = None) -> Dict:
        return json.loads(self._request(path, payload).decode("utf-8"))

    # ------------------------------------------------------------------
    def campaign(self, **payload) -> Dict:
        """POST /campaign -- screen one die-lot, return the verdicts."""
        return self._request_json("/campaign", payload)

    def diagnose(self, **payload) -> Dict:
        """POST /diagnose -- screen + dictionary-match failing dies."""
        return self._request_json("/diagnose", payload)

    def healthz(self) -> Dict:
        """GET /healthz -- liveness and warm-state summary."""
        return self._request_json("/healthz")

    def metrics_text(self) -> str:
        """GET /metrics -- the raw text scrape."""
        return self._request("/metrics").decode("utf-8")

    def wait_ready(self, timeout: float = 30.0,
                   interval: float = 0.1) -> Dict:
        """Poll /healthz until the service answers (startup races).

        Not-yet-ready covers more than "nothing is listening":
        transport failures *and* 5xx responses (503 while the session
        warms or drains) keep the poll going; only a healthy answer
        returns, and only a 4xx -- a caller bug, the server *did*
        answer -- raises early.
        """
        deadline = time.monotonic() + timeout
        last: Exception = TimeoutError("service never became ready")
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except ServiceError as error:
                if 400 <= error.status < 500:
                    raise
                last = error
                time.sleep(interval)
        raise TimeoutError(
            f"service at {self.base_url} not ready after {timeout}s "
            f"(last error: {last})")
