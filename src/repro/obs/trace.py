"""Dependency-free tracing: nested spans over the screening pipeline.

One :class:`Tracer` records completed :class:`SpanRecord` entries into
a bounded ring buffer; instrumented code opens spans through the
module-level :func:`span` helper::

    from repro.obs import Tracer, install_tracer, span

    tracer = Tracer()
    install_tracer(tracer)
    with span("stage.encode", dies=500):
        ...
    tracer.write_chrome_trace("trace.json")   # chrome://tracing

Design constraints (locked down by ``tests/obs/``):

* **Off by default, ~one branch when off.**  No tracer is installed
  unless :func:`install_tracer` (or the :func:`tracing` context
  manager) ran; :func:`span` then returns a stateless shared no-op
  span whose enter/exit do nothing.  The hot path pays a module
  attribute load and an ``is None`` check per span.
* **Never perturbs results.**  Spans only observe wall-clock and
  attach attributes; verdict bit-identity with tracing on is asserted
  per executor.
* **Thread-safe, nesting-aware.**  Parent linkage rides a
  ``contextvars.ContextVar``, so concurrent server threads each get
  their own span stack; the ring buffer append is lock-guarded.
* **Exportable.**  JSONL (one record per line) and Chrome
  ``trace_event`` JSON (loadable in ``chrome://tracing`` or Perfetto;
  see ``docs/observability.md``).

Request-id propagation lives here too: :func:`request_context` binds
an id to the current thread/task, and every span opened inside the
binding records it as a ``request_id`` attribute -- how a client's
``X-Repro-Request-Id`` header joins server-side spans and log lines.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import socket
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional

#: HTTP header carrying one logical request's identity end to end
#: (client retry attempts reuse the id; the server echoes it back).
REQUEST_ID_HEADER = "X-Repro-Request-Id"

_REQUEST_ID: "contextvars.ContextVar[Optional[str]]" = \
    contextvars.ContextVar("repro_request_id", default=None)


def new_request_id() -> str:
    """A fresh request id (uuid4 hex)."""
    return uuid.uuid4().hex


def get_request_id() -> Optional[str]:
    """The request id bound to the current thread/task (or None)."""
    return _REQUEST_ID.get()


def set_request_id(request_id: Optional[str]):
    """Bind a request id; returns the token for :func:`reset_request_id`."""
    return _REQUEST_ID.set(request_id)


def reset_request_id(token) -> None:
    """Restore the binding that ``token``'s :func:`set_request_id` replaced."""
    _REQUEST_ID.reset(token)


@contextmanager
def request_context(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``request_id`` for the duration of a block.

    Spans opened inside the block (same thread) auto-attach it as
    their ``request_id`` attribute; :func:`repro.obs.logs.log_event`
    lines pick it up the same way.
    """
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (immutable; what the ring buffer stores)."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float            #: ``time.perf_counter()`` at entry
    duration: float         #: seconds
    thread_id: int
    attributes: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    #: Recording process, when the span crossed a process boundary
    #: (None = recorded in the exporting process).  Worker-side spans
    #: carry their worker's pid home so the Chrome trace shows one
    #: track per process.
    pid: Optional[int] = None
    #: Recording host, when the span crossed a *machine* boundary
    #: (None = recorded on the exporting host).  TCP shard workers on
    #: other machines stamp their hostname so one merged trace still
    #: says where each span ran -- pids alone collide across hosts.
    host: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the span's block exited without an exception."""
        return self.error is None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (the JSONL export row)."""
        row: Dict[str, object] = {
            "name": self.name, "span_id": self.span_id,
            "parent_id": self.parent_id, "start": self.start,
            "duration": self.duration, "thread_id": self.thread_id,
        }
        if self.attributes:
            row["attributes"] = dict(self.attributes)
        if self.error is not None:
            row["error"] = self.error
        if self.pid is not None:
            row["pid"] = self.pid
        if self.host is not None:
            row["host"] = self.host
        return row

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "SpanRecord":
        """Rebuild a record exported by :meth:`to_dict`.

        The wire format worker processes use to send their spans back
        to the coordinating process (:meth:`Tracer.absorb`).
        """
        return cls(
            name=str(row["name"]), span_id=int(row["span_id"]),
            parent_id=(None if row.get("parent_id") is None
                       else int(row["parent_id"])),
            start=float(row["start"]),
            duration=float(row["duration"]),
            thread_id=int(row.get("thread_id", 0)),
            attributes=dict(row.get("attributes") or {}),
            error=(None if row.get("error") is None
                   else str(row["error"])),
            pid=(None if row.get("pid") is None
                 else int(row["pid"])),
            host=(None if row.get("host") is None
                  else str(row["host"])))


class Span:
    """A live span handle (context manager).

    Only exists while a tracer is installed; the disabled path uses
    the shared :data:`NULL_SPAN` instead.  ``set(**attrs)`` attaches
    attributes at any point before exit.
    """

    __slots__ = ("_tracer", "name", "attributes", "_span_id",
                 "_parent_id", "_token", "_start")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self._span_id: Optional[int] = None
        self._parent_id: Optional[int] = None
        self._token = None
        self._start = 0.0

    def set(self, **attributes: object) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._span_id = next(tracer._ids)
        self._parent_id = tracer._current.get()
        self._token = tracer._current.set(self._span_id)
        rid = _REQUEST_ID.get()
        if rid is not None and "request_id" not in self.attributes:
            self.attributes["request_id"] = rid
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        tracer._current.reset(self._token)
        error = None if exc_type is None \
            else f"{exc_type.__name__}: {exc}"
        tracer._record(SpanRecord(
            name=self.name, span_id=self._span_id,
            parent_id=self._parent_id, start=self._start,
            duration=duration, thread_id=threading.get_ident(),
            attributes=self.attributes, error=error))
        return False


class _NullSpan:
    """The shared do-nothing span of the disabled path.

    Stateless and reusable, so the module-level :func:`span` helper
    costs one ``is None`` branch plus returning this singleton when no
    tracer is installed.
    """

    __slots__ = ()

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The span every :func:`span` call returns while tracing is off.
NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe span recorder with a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Ring-buffer size in completed spans; the oldest records drop
        first (the :attr:`dropped` counter says how many).
    name:
        Process label used by the Chrome-trace export.
    trace_id:
        Identity of the distributed trace this tracer contributes to.
        Defaults to a fresh uuid4 hex; worker processes joining a
        parent trace pass the parent's id
        (:func:`context_tracer`) so every process records under one
        trace identity.
    """

    def __init__(self, capacity: int = 65536, name: str = "repro",
                 trace_id: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("tracer needs room for one span")
        self.capacity = int(capacity)
        self.name = str(name)
        self.trace_id = (uuid.uuid4().hex if trace_id is None
                         else str(trace_id))
        self._records: "deque[SpanRecord]" = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: "contextvars.ContextVar[Optional[int]]" = \
            contextvars.ContextVar("repro_current_span", default=None)
        self._dropped = 0
        # perf_counter -> epoch offset, captured once so exported
        # timestamps are consistent within a trace.
        self._epoch_offset = time.time() - time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> Span:
        """A new span under the caller's current span (if any)."""
        return Span(self, str(name), dict(attributes))

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._records) == self._records.maxlen:
                self._dropped += 1
            self._records.append(record)

    # ------------------------------------------------------------------
    def records(self) -> List[SpanRecord]:
        """Completed spans in completion order (children first)."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring buffer so far."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        """Drop every record (the dropped counter resets too)."""
        with self._lock:
            self._records.clear()
            self._dropped = 0

    def absorb(self, records: Iterable[SpanRecord]) -> int:
        """Adopt spans recorded in another process.

        Worker processes trace under a :func:`context_tracer` (same
        ``trace_id``, pid-salted span ids, parent pre-linked to the
        coordinating span) and ship their completed records home;
        the parent absorbs them so one export shows the whole
        distributed campaign.  Returns how many records were adopted.
        """
        count = 0
        with self._lock:
            for record in records:
                if len(self._records) == self._records.maxlen:
                    self._dropped += 1
                self._records.append(record)
                count += 1
        return count

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> str:
        """Write one JSON object per completed span, one per line;
        returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record.to_dict(), sort_keys=True)
                             + "\n")
        return path

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome ``trace_event`` JSON (complete events, ``ph="X"``).

        Load the saved file in ``chrome://tracing`` or
        https://ui.perfetto.dev -- spans nest by thread track, and
        attributes land in each slice's ``args`` panel.
        """
        pid = os.getpid()
        events: List[Dict[str, object]] = []
        for record in self.records():
            args: Dict[str, object] = {
                key: _json_safe(value)
                for key, value in record.attributes.items()}
            args["span_id"] = record.span_id
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
            if record.error is not None:
                args["error"] = record.error
            if record.host is not None:
                args["host"] = record.host
            events.append({
                "name": record.name, "ph": "X", "cat": "repro",
                "ts": (self._epoch_offset + record.start) * 1e6,
                "dur": record.duration * 1e6,
                "pid": record.pid if record.pid is not None else pid,
                "tid": record.thread_id, "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"tracer": self.name,
                              "trace_id": self.trace_id,
                              "dropped_spans": self.dropped}}

    def write_chrome_trace(self, path: str) -> str:
        """Persist :meth:`chrome_trace` as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
        return path


def _json_safe(value: object) -> object:
    """Attribute values the exports can serialize (repr fallback)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return repr(value)


# ----------------------------------------------------------------------
# The module-level active tracer (the one-branch disabled path)
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Make ``tracer`` the process-wide active tracer.

    Returns the previously active tracer (None when tracing was off),
    so callers can restore it; ``install_tracer(None)`` disables
    tracing.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def uninstall_tracer() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was active (or None)."""
    return install_tracer(None)


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or None while tracing is disabled."""
    return _ACTIVE


def tracing_enabled() -> bool:
    """True while a tracer is installed."""
    return _ACTIVE is not None


def span(name: str, **attributes: object):
    """A span on the active tracer, or the shared no-op span.

    This is the instrumentation entry point the pipeline calls; while
    tracing is disabled it costs one branch and allocates nothing.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


# ----------------------------------------------------------------------
# Cross-process trace-context propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """The ``(trace_id, parent_span_id)`` pair a worker inherits.

    Captured in the coordinating process with
    :func:`current_trace_context`, serialized into the worker payload
    (:meth:`to_dict` is plain JSON), and turned back into a live
    tracer with :func:`context_tracer` on the far side.  Worker spans
    then parent-link to the coordinator's span, and
    :meth:`Tracer.absorb` reassembles one trace.
    """

    trace_id: str
    parent_span_id: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id,
                "parent_span_id": self.parent_span_id}

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "TraceContext":
        parent = row.get("parent_span_id")
        return cls(trace_id=str(row["trace_id"]),
                   parent_span_id=None if parent is None
                   else int(parent))


def current_trace_context() -> Optional[TraceContext]:
    """The active tracer's identity + current span, or None.

    None while tracing is disabled -- callers use that to skip the
    propagation machinery entirely on the untraced path.
    """
    tracer = _ACTIVE
    if tracer is None:
        return None
    return TraceContext(trace_id=tracer.trace_id,
                        parent_span_id=tracer._current.get())


#: The span-id counter of each process's context tracers, by pid (a
#: forked child must not continue its parent's sequence).
_CONTEXT_IDS: Dict[int, Iterator[int]] = {}


def context_tracer(context: TraceContext,
                   capacity: int = 65536,
                   name: str = "repro-worker") -> Tracer:
    """A worker-side tracer joined to ``context``'s trace.

    Spans it records carry the inherited ``trace_id``, default-parent
    to ``context.parent_span_id`` (so the worker's root spans nest
    under the coordinator's dispatching span), stamp the worker's pid,
    and draw span ids from a pid-salted counter so ids stay unique
    when the parent absorbs records from many workers.
    """
    tracer = Tracer(capacity=capacity, name=name,
                    trace_id=context.trace_id)
    tracer._current = contextvars.ContextVar(
        "repro_current_span", default=context.parent_span_id)
    # 24 bits of pid in the high word keeps worker ids disjoint from
    # the parent's small sequential ids and from sibling workers; one
    # counter per process keeps them disjoint between the tracers of
    # successive chunks or campaigns in a long-lived worker.
    pid = os.getpid()
    ids = _CONTEXT_IDS.get(pid)
    if ids is None:
        ids = _CONTEXT_IDS[pid] = itertools.count(
            ((pid & 0xFFFFFF) << 32) + 1)
    tracer._ids = ids
    return tracer


def stamped_records(tracer: Tracer) -> List[Dict[str, object]]:
    """``tracer``'s records as JSON rows, pid- and host-stamped.

    The worker-side complement of :meth:`Tracer.absorb`: each record
    gets this process's pid and hostname (unless already stamped) so
    the parent's Chrome export draws the worker on its own process
    track and a multi-host trace says which machine ran each span.
    """
    pid = os.getpid()
    host = socket.gethostname()
    rows = []
    for record in tracer.records():
        if record.pid is None or record.host is None:
            record = replace(
                record,
                pid=record.pid if record.pid is not None else pid,
                host=record.host if record.host is not None else host)
        rows.append(record.to_dict())
    return rows


@contextmanager
def tracing(tracer: Optional[Tracer] = None,
            capacity: int = 65536) -> Iterator[Tracer]:
    """Install a tracer for a block, restoring the previous one after.

    ::

        with tracing() as tracer:
            engine.run(population)
        print(len(tracer), "spans")
    """
    tracer = tracer if tracer is not None else Tracer(capacity=capacity)
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)


__all__ = [
    "NULL_SPAN",
    "REQUEST_ID_HEADER",
    "Span",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "context_tracer",
    "current_trace_context",
    "current_tracer",
    "get_request_id",
    "install_tracer",
    "new_request_id",
    "request_context",
    "reset_request_id",
    "set_request_id",
    "span",
    "stamped_records",
    "tracing",
    "tracing_enabled",
    "uninstall_tracer",
]
