"""Warm shard workers: one worker set per engine, reused by every
sharded campaign.

Every check here reads events and counters -- the startup histogram,
the set's idle pids, span attributes, shard stats -- and never sleeps,
except the check that an idle worker is silent, which has to let
heartbeat intervals pass.
Each result is compared with ``array_equal`` to the in-process
``run_stream`` over the same fleet.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.campaign import CampaignEngine
from repro.monitor.configurations import table1_encoder
from repro.monitor.second_signature import second_signature_bank
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.metrics import default_registry
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.shard import MonteCarloFleet, ShardWorkerError
from repro.shard.coordinator import WorkerSet

pytestmark = pytest.mark.campaign

SIGMA = 0.05
HEARTBEAT = 15.0


def _fleet(seed=3, count=12, chunk=2):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA,
                           seed=seed, chunk_size=chunk)


def _assert_matches_stream(engine, result, fleet):
    reference = engine.run_stream(fleet.chunks(0, len(fleet)),
                                  band=result.threshold)
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    np.testing.assert_array_equal(result.verdicts, reference.verdicts)
    np.testing.assert_array_equal(result.f0_deviations,
                                  reference.f0_deviations)
    assert list(result.labels) == list(reference.labels)


@pytest.fixture()
def spawned(monkeypatch):
    """Pids of every worker process a set spawns during the test."""
    pids = []
    spawn = WorkerSet.spawn

    def recording_spawn(self, sink):
        worker = spawn(self, sink)
        pids.append(worker.transport.proc.pid)
        return worker

    monkeypatch.setattr(WorkerSet, "spawn", recording_spawn)
    return pids


def _startups() -> int:
    return default_registry().histogram(
        "shard_worker_startup_seconds").count


def _alive(pid: int) -> bool:
    """True while ``pid`` runs a shard worker (reaped pids are gone)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"shard-worker" in fh.read()
    except OSError:
        return False


def _traced(engine, fleet, tracer, **kwargs):
    install_tracer(tracer)
    try:
        return engine.run_sharded(fleet, shards=2, band="auto",
                                  heartbeat=HEARTBEAT, **kwargs)
    finally:
        uninstall_tracer()


def test_second_campaign_leases_the_first_ones_workers(small_engine):
    """(a) The second campaign spawns nothing, runs on the same pids,
    and its trace shows the saving: warm ``shard.worker.init`` spans,
    no golden build, no shutdown."""
    first = small_engine.run_sharded(_fleet(seed=1), shards=2,
                                     band="auto", heartbeat=HEARTBEAT)
    pids = sorted(small_engine._workers.pids)
    assert len(pids) == 2
    before = _startups()
    tracer = Tracer()
    second = _traced(small_engine, _fleet(seed=2), tracer)
    assert _startups() == before
    assert sorted(small_engine._workers.pids) == pids
    records = tracer.records()
    inits = [r for r in records if r.name == "shard.worker.init"]
    assert sorted(r.attributes["pid"] for r in inits) == pids
    assert all(r.attributes["warm"] is True for r in inits)
    names = {r.name for r in records}
    assert "cache.compute" not in names
    assert "shard.shutdown" not in names
    assert {r.attributes["pid"] for r in records
            if r.name == "shard.worker.run"} <= set(pids)
    _assert_matches_stream(small_engine, first, _fleet(seed=1))
    _assert_matches_stream(small_engine, second, _fleet(seed=2))


def test_traced_and_untraced_campaigns_keep_their_own_spans(
        small_engine):
    """(b) Traced, untraced, traced again on the same workers and the
    same tracer: only the traced campaigns' worker spans come home,
    each exactly once, and no two share a span id."""
    tracer = Tracer()
    _traced(small_engine, _fleet(seed=1), tracer)
    small_engine.run_sharded(_fleet(seed=2), shards=2, band="auto",
                             heartbeat=HEARTBEAT)
    _traced(small_engine, _fleet(seed=3), tracer)
    records = tracer.records()
    ids = [r.span_id for r in records]
    assert len(ids) == len(set(ids))
    campaigns = sorted((r for r in records
                        if r.name == "shard.campaign"),
                       key=lambda r: r.start)
    assert len(campaigns) == 2
    for name in ("shard.worker.init", "shard.worker.run"):
        # Two workers, two shards: each traced campaign brings home
        # two of each, parented to its own campaign span.
        parents = sorted(r.parent_id for r in records if r.name == name)
        assert parents == sorted(2 * [c.span_id for c in campaigns])
    warm = {r.parent_id: r.attributes["warm"] for r in records
            if r.name == "shard.worker.init"}
    assert warm == {campaigns[0].span_id: False,
                    campaigns[1].span_id: True}


def test_drill_armed_between_campaigns_lands_in_fresh_workers(
        small_engine, monkeypatch, spawned):
    """(c) Setting REPRO_SHARD_WORKER_FAULTS between campaigns replaces
    the warm workers; the kill drill still kills exactly once and the
    shard resumes from its checkpoint."""
    small_engine.run_sharded(_fleet(seed=1), shards=2, band="auto",
                             heartbeat=HEARTBEAT)
    warm = small_engine._workers.pids
    assert sorted(warm) == sorted(spawned)
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.kill:1:1")
    tracer = Tracer()
    result = _traced(small_engine, _fleet(seed=2), tracer)
    assert not any(_alive(pid) for pid in warm)
    assert result.shard_stats["reassigned"] == 1.0
    assert len(spawned) == 2 + 3  # two fresh workers, one respawn
    runs = [r for r in tracer.records() if r.name == "shard.worker.run"]
    assert any(r.attributes["resume_at"] > r.attributes["lo"]
               for r in runs), "the reassigned shard restarted"
    _assert_matches_stream(small_engine, result, _fleet(seed=2))
    # Same environment: the survivors are leased, nothing is killed.
    again = small_engine.run_sharded(_fleet(seed=4), shards=2,
                                     band="auto", heartbeat=HEARTBEAT)
    assert again.shard_stats["reassigned"] == 0.0
    assert len(spawned) == 5
    _assert_matches_stream(small_engine, again, _fleet(seed=4))


def test_failed_campaign_returns_no_worker(small_engine, monkeypatch,
                                           spawned):
    """(d) A campaign that raises stops every worker it leased."""
    small_engine.run_sharded(_fleet(seed=1), shards=2, band="auto",
                             heartbeat=HEARTBEAT)
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS", "shard.worker.error")
    with pytest.raises(ShardWorkerError):
        small_engine.run_sharded(_fleet(seed=2), shards=2, band="auto",
                                 heartbeat=HEARTBEAT)
    assert small_engine._workers.pids == []
    assert len(spawned) == 4
    assert not any(_alive(pid) for pid in spawned)
    monkeypatch.delenv("REPRO_SHARD_WORKER_FAULTS")
    result = small_engine.run_sharded(_fleet(seed=2), shards=2,
                                      band="auto", heartbeat=HEARTBEAT)
    _assert_matches_stream(small_engine, result, _fleet(seed=2))


def test_replacement_for_a_lost_worker_is_reused(small_engine,
                                                 monkeypatch, spawned):
    """(e) The worker respawned for a killed one stays in the set and
    screens the next campaign."""
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.kill:1:1")
    first = small_engine.run_sharded(_fleet(seed=1), shards=2,
                                     band="auto", heartbeat=HEARTBEAT)
    assert first.shard_stats["reassigned"] == 1.0
    assert len(spawned) == 3
    # The first spawn carried the drill; its replacement was the third.
    pids = sorted(small_engine._workers.pids)
    assert pids == sorted(spawned[1:])
    assert not _alive(spawned[0])
    tracer = Tracer()
    second = _traced(small_engine, _fleet(seed=2), tracer)
    assert len(spawned) == 3
    assert second.shard_stats["reassigned"] == 0.0
    assert sorted(r.attributes["pid"] for r in tracer.records()
                  if r.name == "shard.worker.init") == pids
    _assert_matches_stream(small_engine, second, _fleet(seed=2))


def test_lost_and_stopped_workers_close_their_pipes(small_engine,
                                                  monkeypatch):
    """A lost worker's stdin and stdout wrappers are closed, and so are
    those of every worker the set stops: none is left to the garbage
    collector (``ResourceWarning`` under ``python -X dev``)."""
    transports = []
    spawn = WorkerSet.spawn

    def recording_spawn(self, sink):
        worker = spawn(self, sink)
        transports.append(worker.transport)
        return worker

    monkeypatch.setattr(WorkerSet, "spawn", recording_spawn)
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.kill:1:1")
    result = small_engine.run_sharded(_fleet(seed=1), shards=2,
                                      band="auto", heartbeat=HEARTBEAT)
    assert result.shard_stats["reassigned"] == 1.0
    lost = transports[0]
    assert lost.proc.stdin.closed and lost.proc.stdout.closed
    small_engine.close()
    # A stopped worker's reader closes stdout at EOF, on its own thread.
    for thread in threading.enumerate():
        if thread.name.startswith("shard-reader-pipe"):
            thread.join(timeout=30)
    assert len(transports) == 3
    assert all(t.proc.stdin.closed and t.proc.stdout.closed
               for t in transports)


def test_multi_bank_requests_lease_the_engines_workers(small_engine,
                                                      spawned):
    """Sharded campaigns over their own monitor banks run on the
    engine's warm workers: each derived engine leases its parent's
    set, re-inits the workers with its configuration and leaves them
    running; the parent's close stops them."""
    banks = [small_engine.config.encoder,
             second_signature_bank(-0.10, 1e-5)]
    before = _startups()
    pids = []
    for seed in (1, 2, 3):
        fleet = _fleet(seed=seed)
        tracer = Tracer()
        install_tracer(tracer)
        try:
            result = small_engine.with_encoders(banks).run_sharded(
                fleet, shards=2, band="auto", heartbeat=HEARTBEAT)
        finally:
            uninstall_tracer()
        pids.append(sorted(r.attributes["pid"] for r in tracer.records()
                           if r.name == "shard.worker.init"))
        reference = small_engine.with_encoders(banks).run_stream(
            fleet.chunks(0, len(fleet)), band="auto")
        np.testing.assert_array_equal(result.channel_ndfs,
                                      reference.channel_ndfs)
        assert result.channel_ndfs.shape == (len(fleet), 2)
    assert _startups() == before + 2
    assert len(spawned) == 2
    assert pids[0] == pids[1] == pids[2] == \
        sorted(small_engine._workers.pids)
    small_engine.close()
    assert not any(_alive(pid) for pid in pids[0])


def test_close_and_garbage_collection_stop_the_workers():
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=512)
    engine.run_sharded(_fleet(), shards=2, band="auto",
                       heartbeat=HEARTBEAT)
    pids = engine._workers.pids
    assert len(pids) == 2 and all(_alive(pid) for pid in pids)
    engine.close()
    assert not any(_alive(pid) for pid in pids)
    # Still usable: the next sharded campaign starts new workers.
    engine.run_sharded(_fleet(), shards=2, band="auto",
                       heartbeat=HEARTBEAT)
    pids = engine._workers.pids
    assert all(_alive(pid) for pid in pids)
    del engine
    gc.collect()
    assert not any(_alive(pid) for pid in pids)


def test_interpreter_exit_stops_the_workers(tmp_path):
    """An engine never closed still stops its workers at exit."""
    script = (
        "from repro.campaign import CampaignEngine\n"
        "from repro.monitor.configurations import table1_encoder\n"
        "from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS\n"
        "from repro.shard import MonteCarloFleet\n"
        "engine = CampaignEngine.from_parts(table1_encoder(),\n"
        "    PAPER_STIMULUS, PAPER_BIQUAD, samples_per_period=512)\n"
        "engine.run_sharded(MonteCarloFleet(PAPER_BIQUAD, 8,\n"
        "    chunk_size=4), shards=2, band=0.05)\n"
        "print(*engine._workers.pids)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    pids = [int(pid) for pid in out.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


def test_reused_workdir_screens_its_own_fleet(small_engine, tmp_path):
    """A shard's first dispatch starts from no checkpoint: a workdir
    holding another campaign's shard files does not resume them."""
    results = {}
    for seed in (1, 2):
        fleet = MonteCarloFleet(PAPER_BIQUAD, 64, sigma_f0=SIGMA,
                                seed=seed, chunk_size=16)
        results[seed] = small_engine.run_sharded(
            fleet, shards=2, band="auto", heartbeat=HEARTBEAT,
            workdir=str(tmp_path))
        _assert_matches_stream(small_engine, results[seed], fleet)
    assert not np.array_equal(results[1].f0_deviations,
                              results[2].f0_deviations)


def test_unseeded_fleet_shards_like_its_stream(small_engine):
    """A ``seed=None`` fleet is one fleet: the workers and the
    in-process stream draw the same dies from it."""
    fleet = MonteCarloFleet(PAPER_BIQUAD, 12, sigma_f0=SIGMA, seed=None,
                            chunk_size=2)
    result = small_engine.run_sharded(fleet, shards=2, band="auto",
                                      heartbeat=HEARTBEAT)
    _assert_matches_stream(small_engine, result, fleet)


def test_worker_reinit_drops_the_previous_campaigns_tracer(small_engine):
    """An untraced ``init`` after a traced one leaves the worker with
    no tracer (driven in process through ``worker_main``)."""
    import io

    from repro.obs import current_tracer
    from repro.shard.protocol import (
        encode_message,
        init_message,
        shutdown_message,
    )
    from repro.shard.worker import worker_main

    fleet = _fleet()
    lines = [encode_message(message) for message in (
        init_message(small_engine.config, 0.05, fleet, 60.0,
                     {"trace_id": "t1", "parent_span_id": 7}, "c1"),
        init_message(small_engine.config, 0.05, fleet, 60.0, None,
                     "c2"),
        shutdown_message())]
    stdout = io.StringIO()
    try:
        assert worker_main(io.StringIO("\n".join(lines) + "\n"),
                           stdout) == 0
        assert current_tracer() is None
    finally:
        uninstall_tracer()
    assert stdout.getvalue().count('"type":"hello"') == 2


def test_a_worker_speaks_only_while_it_holds_a_shard(small_engine,
                                                     monkeypatch):
    """An idle worker is silent, before its ``assign`` and after the
    shard's last record, across five ping intervals each; while it
    holds the shard, pings bridge chunks slower than the interval.
    The last record carries the span rows (none: untraced) and every
    record echoes the campaign of the ``init`` (driven in process
    through ``worker_main`` on a pipe)."""
    import io
    import threading
    import time

    from repro.shard.protocol import (
        assign_message,
        decode_message,
        encode_message,
        init_message,
        shutdown_message,
    )
    from repro.shard.worker import worker_main

    screen = CampaignEngine._screen_parts

    def slow_screen(self, *args, **kwargs):
        for item in screen(self, *args, **kwargs):
            time.sleep(0.35)  # over three ping intervals per chunk
            yield item

    monkeypatch.setattr(CampaignEngine, "_screen_parts", slow_screen)
    read_fd, write_fd = os.pipe()
    stdout = io.StringIO()
    with os.fdopen(read_fd, "r") as stdin, \
            os.fdopen(write_fd, "w") as feed:
        worker = threading.Thread(target=worker_main,
                                  args=(stdin, stdout), daemon=True)
        worker.start()

        def send(message):
            feed.write(encode_message(message) + "\n")
            feed.flush()

        def wait_for(count, kind):
            deadline = time.monotonic() + 60.0
            while stdout.getvalue().count(f'"type":"{kind}"') < count:
                assert time.monotonic() < deadline, stdout.getvalue()
                time.sleep(0.01)

        send(init_message(small_engine.config, 0.05,
                          _fleet(count=4), 0.2, None, "c1"))
        wait_for(1, "hello")
        time.sleep(0.5)  # idle: five ping intervals of 0.1 s
        idle = stdout.getvalue()
        send(assign_message(0, 0, 4, 0))
        wait_for(2, "progress")
        held = stdout.getvalue()
        time.sleep(0.5)  # idle again
        after = stdout.getvalue()
        send(shutdown_message())
        worker.join(timeout=30.0)
    uninstall_tracer()
    assert not worker.is_alive()
    assert [decode_message(line)["type"]
            for line in idle.splitlines()] == ["hello"]
    assert after == held  # nothing once the last record is out
    lines = [decode_message(line) for line in held.splitlines()[1:]]
    assert any(m["type"] == "ping" for m in lines)
    records = [m for m in lines if m["type"] == "progress"]
    assert lines[-1] is records[-1]
    assert [m.get("spans") for m in records] == [None, []]
    assert {m["campaign"] for m in records} == {"c1"}
