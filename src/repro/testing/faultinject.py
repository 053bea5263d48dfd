"""Named fault points: make the crash-safety layer fail on demand.

The robustness suite needs deterministic failures at exact moments --
a store payload torn between write and rename, an engine raising
mid-batch, a handler crashing after the rate limiter admitted the
request, a checkpointed stream dying between chunks.  Each such moment
is a *fault point*: production code calls
``should_fail("store.write.tear")`` at the instrumented site, which is
an inert dictionary probe unless that name was armed.

Arming happens two ways:

* in-process, scoped, via the :func:`inject` context manager::

      with inject("session.submit.error"):
          ...  # the next pass through the site trips once

* cross-process, via the ``REPRO_FAULTS`` environment variable, parsed
  on first use (the crash-restart smoke boots ``repro serve`` with
  faults armed)::

      REPRO_FAULTS="server.handler.error:2,session.slow" repro serve ...

Each armed fault carries ``times`` (how many trips fire; ``-1`` =
every trip) and ``after`` (trips skipped before the first firing) so a
test can kill the Nth store write or the Kth streamed chunk precisely.

Well-known fault points wired through the codebase:

=============================  =========================================
``store.write.tear``           truncate a store payload after fsync,
                               before rename (simulated torn write)
``store.index.tear``           truncate the JSON index mid-rewrite
``store.read.corrupt``         flip payload bytes on disk before a read
``checkpoint.write.tear``      write only the first half of a
                               checkpoint append (a torn last record)
``session.submit.error``       raise inside ``ScreeningSession.submit``
``session.slow``               sleep inside ``ScreeningSession.submit``
                               (``REPRO_FAULT_SLOW_S`` secs, def. 0.2)
``server.handler.error``       raise inside the request handler after
                               admission (rendered as HTTP 500)
``server.handler.close``       drop the connection without a response
                               (clients see a connection reset)
``stream.chunk.crash``         raise between streamed-campaign chunks,
                               after the checkpoint write
``shard.worker.kill``          SIGKILL a shard worker right after a
                               progress report (armed in the worker's
                               environment; the coordinator forwards
                               ``REPRO_SHARD_WORKER_FAULTS`` to its
                               first spawn only)
``shard.worker.error``         raise inside a shard assignment (the
                               worker reports ``error`` and exits 1)
``shard.transport.drop``       silently discard one protocol line on
                               a shard transport (either direction)
``shard.transport.delay``      deliver one shard protocol line late
                               (``REPRO_FAULT_SLOW_S`` seconds) --
                               latency, never loss
``shard.transport.partition``  sever a shard worker channel abruptly
                               (socket close / pipe kill mid-line),
                               as a network partition would
=============================  =========================================
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional

#: Environment variable holding comma-separated armed faults, each
#: ``name``, ``name:times`` or ``name:times:after``.
ENV_VAR = "REPRO_FAULTS"


class FaultInjected(RuntimeError):
    """The error an armed fault point raises by default."""

    def __init__(self, name: str) -> None:
        super().__init__(f"injected fault at {name!r}")
        self.fault = name


class _Fault:
    """One armed fault point's firing schedule."""

    __slots__ = ("name", "times", "after", "fired")

    def __init__(self, name: str, times: int, after: int) -> None:
        self.name = name
        self.times = int(times)
        self.after = int(after)
        self.fired = 0

    def trip(self) -> bool:
        """Account one pass through the site; True when it fires."""
        if self.after > 0:
            self.after -= 1
            return False
        if self.times < 0:
            self.fired += 1
            return True
        if self.fired < self.times:
            self.fired += 1
            return True
        return False

    @property
    def exhausted(self) -> bool:
        return self.times >= 0 and self.fired >= self.times

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"_Fault({self.name!r}, times={self.times}, "
                f"after={self.after}, fired={self.fired})")


_LOCK = threading.Lock()
_FAULTS: Dict[str, _Fault] = {}
_ENV_LOADED = False


def _load_env_locked() -> None:
    """Arm faults named by ``REPRO_FAULTS`` (idempotent)."""
    global _ENV_LOADED
    if _ENV_LOADED:
        return
    _ENV_LOADED = True
    spec = os.environ.get(ENV_VAR, "").strip()
    if not spec:
        return
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        name = parts[0]
        times = int(parts[1]) if len(parts) > 1 and parts[1] else 1
        after = int(parts[2]) if len(parts) > 2 and parts[2] else 0
        _FAULTS[name] = _Fault(name, times, after)


def arm(name: str, times: int = 1, after: int = 0) -> _Fault:
    """Arm ``name`` to fire ``times`` trips (-1 = forever) after
    skipping the first ``after`` trips.  Re-arming replaces the
    schedule.  Returns the schedule object (its ``fired`` counter
    keeps counting even after the fault exhausts and unregisters)."""
    with _LOCK:
        _load_env_locked()
        fault = _Fault(name, times, after)
        _FAULTS[name] = fault
        return fault


def disarm(name: str) -> None:
    """Remove one armed fault (no-op when not armed)."""
    with _LOCK:
        _load_env_locked()
        _FAULTS.pop(name, None)


def disarm_all() -> None:
    """Remove every armed fault (test teardown)."""
    with _LOCK:
        _load_env_locked()
        _FAULTS.clear()


def active_faults() -> List[str]:
    """Names currently armed (env faults included)."""
    with _LOCK:
        _load_env_locked()
        return sorted(_FAULTS)


def should_fail(name: str) -> bool:
    """Account one pass through fault point ``name``.

    Returns True when the site must fail *now* (the caller implements
    the failure: raise, truncate, sleep, drop the connection).  Inert
    -- one lock acquisition and a dict probe -- unless armed.
    """
    with _LOCK:
        _load_env_locked()
        fault = _FAULTS.get(name)
        if fault is None:
            return False
        fire = fault.trip()
        if fault.exhausted:
            del _FAULTS[name]
        return fire


def fail_if_armed(name: str) -> None:
    """Raise :class:`FaultInjected` when the site must fail now."""
    if should_fail(name):
        raise FaultInjected(name)


class inject:
    """Context manager arming one fault for the enclosed block.

    ::

        with inject("session.submit.error"):
            ...         # first trip inside the block raises

    On exit the fault is disarmed even if it never fired, so a test
    cannot leak an armed fault into its neighbours.
    """

    def __init__(self, name: str, times: int = 1, after: int = 0) -> None:
        self.name = name
        self.times = times
        self.after = after
        self._fault: Optional[_Fault] = None

    def __enter__(self) -> "inject":
        self._fault = arm(self.name, self.times, self.after)
        return self

    def __exit__(self, *exc) -> None:
        disarm(self.name)

    @property
    def fired(self) -> int:
        """Trips fired so far (valid during and after the block)."""
        return self._fault.fired if self._fault is not None else 0


def slow_seconds(default: float = 0.2) -> float:
    """Sleep duration of the ``session.slow`` fault point."""
    try:
        return float(os.environ.get("REPRO_FAULT_SLOW_S", default))
    except (TypeError, ValueError):
        return default


def reset_env_cache() -> None:
    """Forget the parsed ``REPRO_FAULTS`` value (tests monkeypatching
    the environment call this to force a re-parse)."""
    global _ENV_LOADED
    with _LOCK:
        _ENV_LOADED = False


__all__ = [
    "ENV_VAR",
    "FaultInjected",
    "active_faults",
    "arm",
    "disarm",
    "disarm_all",
    "fail_if_armed",
    "inject",
    "reset_env_cache",
    "should_fail",
    "slow_seconds",
]
