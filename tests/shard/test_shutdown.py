"""Worker shutdown runs in parallel, and the fixed costs are attributed.

Closing a :class:`WorkerSet` tells every live worker to stop before it
waits on any, so closing waits out one worker exit instead of the sum.
The fake-transport tests pin that order and the kill-on-timeout path
without spawning anything; the traced campaign checks the
``shard.shutdown`` span of the engine's close, that no process saves a
checkpoint, and the ``shard_worker_startup_seconds`` histogram on real
pipe workers.
"""

from __future__ import annotations

import subprocess

import pytest

from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.metrics import default_registry
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet
from repro.shard.coordinator import SHUTDOWN_GRACE, WorkerSet, _Worker
from repro.shard.protocol import decode_message
from repro.shard.transport import Transport, TransportClosed

pytestmark = pytest.mark.campaign


class _FakeTransport(Transport):
    """A worker channel that logs every call into a shared list."""

    kind = "fake"

    def __init__(self, name, log, alive=True, hangs=False,
                 closed=False):
        self.name = name
        self.log = log
        self._alive = alive
        self.hangs = hangs
        self.closed = closed
        self.timeouts = []

    def _write_line(self, line):
        if self.closed:
            raise TransportClosed(f"{self.name} closed")
        self.log.append(("send", self.name,
                         decode_message(line)["type"]))

    def alive(self):
        return self._alive

    def wait(self, timeout=None):
        self.log.append(("wait", self.name))
        self.timeouts.append(timeout)
        if self.hangs:
            raise subprocess.TimeoutExpired("repro shard-worker", timeout)

    def close(self):
        self.log.append(("close", self.name))

    def kill(self):
        self.log.append(("kill", self.name))


def _worker_set(*transports):
    """A set holding one idle worker per transport."""
    workers = WorkerSet()
    workers._idle = [_Worker(slot, transport)
                     for slot, transport in enumerate(transports)]
    return workers


def test_shutdown_reaches_every_worker_before_any_wait():
    log = []
    stuck = _FakeTransport("stuck", log, hangs=True)
    clean = _FakeTransport("clean", log)
    workers = _worker_set(stuck, clean)
    tracer = Tracer()
    install_tracer(tracer)
    try:
        workers.close()
    finally:
        uninstall_tracer()
    assert log == [("send", "stuck", "shutdown"),
                   ("send", "clean", "shutdown"),
                   ("wait", "stuck"), ("kill", "stuck"),
                   ("wait", "clean"), ("close", "clean")]
    for transport in (stuck, clean):
        assert 0.0 <= transport.timeouts[0] <= SHUTDOWN_GRACE
    assert workers._idle == []
    [record] = [r for r in tracer.records() if r.name == "shard.shutdown"]
    assert record.attributes["workers"] == 2


def test_shutdown_skips_dead_and_kills_unreachable():
    log = []
    dead = _FakeTransport("dead", log, alive=False)
    unreachable = _FakeTransport("unreachable", log, closed=True)
    clean = _FakeTransport("clean", log)
    workers = _worker_set(dead, unreachable, clean)
    workers.close()
    assert log == [("kill", "unreachable"),
                   ("send", "clean", "shutdown"),
                   ("wait", "clean"), ("close", "clean")]
    assert workers._idle == []


def test_traced_campaign_attributes_startup_saves_and_shutdown(
        small_engine):
    startup = default_registry().histogram("shard_worker_startup_seconds")
    before = startup.count
    tracer = Tracer()
    install_tracer(tracer)
    try:
        small_engine.run_sharded(
            MonteCarloFleet(PAPER_BIQUAD, 8, sigma_f0=0.05, seed=3,
                            chunk_size=4),
            shards=2, band="auto", heartbeat=15.0)
        small_engine.close()
    finally:
        uninstall_tracer()
    assert startup.count == before + 2
    records = tracer.records()
    # Rows travel home in progress lines: neither the workers nor the
    # coordinator (no workdir) save a checkpoint.
    assert {r.attributes["pid"] for r in records
            if r.name == "shard.worker.run"}
    assert not [r for r in records if r.name == "checkpoint.save"]
    [campaign] = [r for r in records if r.name == "shard.campaign"]
    [shutdown] = [r for r in records if r.name == "shard.shutdown"]
    # The engine's close, a root span after the campaign span closed.
    assert shutdown.parent_id is None
    assert shutdown.start >= campaign.start + campaign.duration
    assert shutdown.attributes["workers"] == 2
