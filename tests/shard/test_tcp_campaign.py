"""Multi-node campaigns over loopback TCP: the no-shared-FS contract.

The coordinator listens, workers dial in with ``repro shard-worker
--connect``, and every row crosses the wire base64-encoded inside
``progress`` lines -- nothing here assumes the worker can see the
coordinator's filesystem.  The drills sever a worker mid-shard (an
abrupt socket close, exactly what a partition or a dead host
produces) and require the merged result to stay **bit-identical** to
the monolithic run, with the resume starting from the rows the
coordinator holds rather than from zero.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD
from repro.shard import (
    MonteCarloFleet,
    ShardCoordinator,
    ShardWorkerError,
)
from repro.shard.worker import connect_main

pytestmark = pytest.mark.campaign

DIES = 12
SIGMA = 0.05
SEED = 3
HEARTBEAT = 15.0
SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def _mc_fleet(count=DIES, chunk=2):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA,
                           seed=SEED, chunk_size=chunk)


def _worker_env(faults=None):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SHARD_WORKER_FAULTS", None)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_ROOT if not existing \
        else SRC_ROOT + os.pathsep + existing
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    return env


def _start_worker(host, port, faults=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-worker",
         "--connect", f"{host}:{port}"],
        env=_worker_env(faults), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


class _Campaign:
    """Run a listening coordinator on a thread; workers dial in."""

    def __init__(self, engine, fleet, **kwargs):
        self.coordinator = ShardCoordinator(
            engine.config, engine.band().threshold, fleet,
            heartbeat=HEARTBEAT, listen=("127.0.0.1", 0), **kwargs)
        self.address = self.coordinator.address
        self.result = None
        self.error = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        try:
            self.result = self.coordinator.run()
        except BaseException as error:  # surfaced in join()
            self.error = error

    def join(self, timeout=180.0):
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "campaign did not finish"
        if self.error is not None:
            raise self.error
        return self.result


def _monolithic(engine, fleet, count=DIES):
    return engine.run_stream(fleet.chunks(0, count),
                             band=engine.band().threshold)


def test_two_tcp_workers_merge_bit_identical(small_engine):
    fleet = _mc_fleet()
    campaign = _Campaign(small_engine, fleet, shards=4, workers=2)
    host, port = campaign.address
    workers = [_start_worker(host, port) for _ in range(2)]
    try:
        merged, stats = campaign.join()
    finally:
        for proc in workers:
            proc.wait(timeout=30)
    reference = _monolithic(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert merged.complete
    assert stats["completed"] == 4.0
    assert stats["reassigned"] == 0.0
    assert stats["workers"] == 2.0


def _thread_worker(host, port):
    """An in-process TCP worker: dials at once (no interpreter start)."""
    thread = threading.Thread(target=connect_main, args=(host, port),
                              daemon=True)
    thread.start()
    return thread


def test_explicit_workers_hold_dispatch_until_all_said_hello(
        small_engine):
    fleet = _mc_fleet()
    campaign = _Campaign(small_engine, fleet, shards=4, workers=2)
    coordinator = campaign.coordinator
    host, port = campaign.address
    first = _thread_worker(host, port)
    deadline = time.monotonic() + 60.0
    while not any(w.hello_seen for w in
                  list(coordinator._workers.values())):
        assert time.monotonic() < deadline, "no hello"
        time.sleep(0.02)
    # Without the barrier the greeted worker would hold a shard within
    # one loop turn; with it, nothing goes out until the second hello.
    time.sleep(0.3)
    assert coordinator.stats["dispatched"] == 0.0
    second = _thread_worker(host, port)
    merged, stats = campaign.join()
    for thread in (first, second):
        thread.join(timeout=30)
        assert not thread.is_alive()
    reference = _monolithic(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["workers"] == 2.0
    assert stats["completed"] == 4.0


def test_dispatch_barrier_opens_after_rejoin_grace(small_engine):
    fleet = _mc_fleet()
    campaign = _Campaign(small_engine, fleet, shards=2, workers=2,
                         rejoin_grace=1.0)
    host, port = campaign.address
    lone = _thread_worker(host, port)
    merged, stats = campaign.join()
    lone.join(timeout=30)
    assert not lone.is_alive()
    reference = _monolithic(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["workers"] == 1.0
    assert stats["completed"] == 2.0


def test_worker_severed_mid_shard_resumes_from_shipped_checkpoint(
        small_engine):
    """The headline drill: one of two TCP workers dies mid-shard
    (abrupt socket close, as a partition produces).  The survivor
    takes the shard over and resumes from the checkpoint bytes the
    dead worker shipped home -- bit-identical merge, no shared FS."""
    fleet = _mc_fleet()
    campaign = _Campaign(small_engine, fleet, shards=2, workers=2)
    host, port = campaign.address
    # Worker A SIGKILLs itself right after its second progress report
    # -- past two row records it sent home, so the resume is real --
    # while worker B screens its own shard concurrently.
    doomed = _start_worker(host, port,
                           faults="shard.worker.kill:1:1")
    survivor = _start_worker(host, port)
    try:
        merged, stats = campaign.join()
    finally:
        doomed.wait(timeout=30)
        survivor.wait(timeout=30)
    reference = _monolithic(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] >= 1.0
    assert stats["dispatched"] >= 3.0  # 2 planned + the re-dispatch


def test_late_rejoining_worker_is_inited_and_handed_pending_shards(
        small_engine):
    """Kill the only worker mid-shard, then connect a brand-new one:
    it must be re-inited on accept and resume the pending shard from
    the rows the coordinator holds (resume_at), not from zero."""
    fleet = _mc_fleet()
    with tracing() as tracer:
        campaign = _Campaign(small_engine, fleet, shards=2)
        host, port = campaign.address
        doomed = _start_worker(host, port,
                               faults="shard.worker.kill:1:1")
        doomed.wait(timeout=120)
        time.sleep(0.5)  # the campaign is now workerless, mid-shard
        rejoiner = _start_worker(host, port)
        try:
            merged, stats = campaign.join()
        finally:
            rejoiner.wait(timeout=30)
    reference = _monolithic(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] == 1.0
    # The rejoiner's worker-side spans came home over the socket and
    # prove the resume started past the shard's own lo.
    runs = [r for r in tracer.records()
            if r.name == "shard.worker.run"]
    assert runs, "worker spans did not ride home over TCP"
    assert any(r.attributes["resume_at"] > r.attributes["lo"]
               for r in runs)


def test_garbage_speaking_client_is_dropped_campaign_survives(
        small_engine):
    """The fuzz wall, live: a client that connects and speaks junk is
    lost (protocol desync) without crashing the coordinator; a real
    worker finishes the campaign bit-identical."""
    fleet = _mc_fleet()
    campaign = _Campaign(small_engine, fleet, shards=2)
    host, port = campaign.address
    fuzzer = socket.create_connection((host, port), timeout=10.0)
    fuzzer.sendall(b"\x00\xffthis is not json at all{{{]\n")
    worker = _start_worker(host, port)
    try:
        merged, stats = campaign.join()
    finally:
        worker.wait(timeout=30)
        fuzzer.close()
    reference = _monolithic(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["completed"] == 2.0


def test_workerless_campaign_fails_after_rejoin_grace(small_engine):
    campaign = _Campaign(small_engine, _mc_fleet(), shards=2,
                         rejoin_grace=1.0)
    with pytest.raises(ShardWorkerError, match="--connect"):
        campaign.join(timeout=60.0)


def test_engine_listen_path_reports_tcp_executor(small_engine):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    fleet = _mc_fleet()
    outcome = {}

    def run():
        try:
            outcome["result"] = small_engine.run_sharded(
                fleet, shards=2, band="auto", heartbeat=HEARTBEAT,
                listen=f"127.0.0.1:{port}")
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    worker = _start_worker("127.0.0.1", port)
    thread.join(timeout=180.0)
    worker.wait(timeout=30)
    assert "error" not in outcome, outcome.get("error")
    result = outcome["result"]
    assert result.executor == "sharded-tcp[2]"
    reference = _monolithic(small_engine, fleet)
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    np.testing.assert_array_equal(result.verdicts, reference.verdicts)
