"""Network fault drills: the transport fault points under a campaign.

These drills arm ``shard.transport.*`` faults in the *coordinator's*
process (the transport layer is coordinator-side), with ``workers=1``
and a heartbeat far longer than the campaign so the coordinator's
line sequence is deterministic: trip 1 is always the ``init`` send,
trips 2-3 are the first ``assign`` send and the ``hello`` receive (in
either order), and every trip after that is a ``progress``/``done``
receive.  ``after=N`` therefore lands each fault on an exact
protocol line.

With two shards of three 2-die chunks each, trips 4-6 are shard 0's
three row records (dies ``[0, 2)``, ``[2, 4)``, ``[4, 6)``) and trip 7
its ``done``.

The contract under every fault: the merged result stays bit-identical
to the monolithic run, and the reassigned shard resumes at the first
row the coordinator holds no record of.  A partition loses the worker
and the rows that never arrived are screened again; a delay is
latency, not loss -- nothing may be reassigned; a dropped row record
is a desync (the next record, or the ``done``, does not follow the
held rows) that loses the worker; a dropped ``done`` is caught by the
progress watchdog.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet, ShardCoordinator
from repro.testing.faultinject import arm

pytestmark = pytest.mark.campaign

DIES = 12
SIGMA = 0.05
SEED = 3
HEARTBEAT = 30.0  # no pings, no stall teardown within any drill


def _mc_fleet(count=DIES, chunk=2):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA,
                           seed=SEED, chunk_size=chunk)


def _reference(engine, fleet, count=DIES):
    return engine.run_stream(fleet.chunks(0, count),
                             band=engine.band().threshold)


def _run(engine, fleet, shards=2, **kwargs):
    coordinator = ShardCoordinator(
        engine.config, engine.band().threshold, fleet,
        shards=shards, workers=1, heartbeat=HEARTBEAT, **kwargs)
    merged, stats = coordinator.run()
    return merged, stats


def _assert_merge(merged, reference):
    """The merged state is the in-process stream's, bit for bit."""
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    np.testing.assert_array_equal(merged.f0_deviations(),
                                  reference.f0_deviations)
    np.testing.assert_array_equal(merged.q_deviations(),
                                  reference.q_deviations)
    assert merged.labels == list(reference.labels)
    assert merged.complete


def _traced_resume(engine, fleet, **kwargs):
    """Run the drill traced; returns the merge, stats and the
    ``resume_at`` of every run of shard 0 that came home."""
    with tracing() as tracer:
        merged, stats = _run(engine, fleet, **kwargs)
    resumes = [r.attributes["resume_at"] for r in tracer.records()
               if r.name == "shard.worker.run"
               and r.attributes["shard"] == 0]
    return merged, stats, resumes


def _assert_one_reassignment(stats):
    assert stats["reassigned"] == 1.0
    assert stats["planned"] == 2.0
    assert stats["dispatched"] == 3.0
    assert stats["completed"] == 2.0


def test_partition_mid_shard_reassigns_and_resumes_from_checkpoint(
        small_engine):
    """Sever the pipe as the first row record arrives: the worker is
    lost before the coordinator holds any row of shard 0, so the
    respawned worker re-screens the shard from its ``lo``."""
    fleet = _mc_fleet()
    reference = _reference(small_engine, fleet)
    # Trips 1-3: init, assign, hello.  Trip 4: shard 0's first record.
    arm("shard.transport.partition", times=1, after=3)
    merged, stats, resumes = _traced_resume(small_engine, fleet)
    _assert_merge(merged, reference)
    _assert_one_reassignment(stats)
    # The severed worker's run never reports; the replacement's does.
    assert resumes == [0]


def test_partition_after_a_held_record_resumes_at_its_end(small_engine):
    """Sever the pipe as the second row record arrives: the first one
    is held, so the shard resumes at that record's end."""
    fleet = _mc_fleet()
    reference = _reference(small_engine, fleet)
    arm("shard.transport.partition", times=1, after=4)  # trip 5
    merged, stats, resumes = _traced_resume(small_engine, fleet)
    _assert_merge(merged, reference)
    _assert_one_reassignment(stats)
    assert resumes == [2]


def test_delayed_lines_under_threshold_cause_no_false_loss(
        small_engine, monkeypatch):
    """Latency is not loss: every protocol line delivered late (but
    well under the heartbeat deadline) must not trigger reassignment."""
    monkeypatch.setenv("REPRO_FAULT_SLOW_S", "0.1")
    fleet = _mc_fleet(chunk=4)
    reference = _reference(small_engine, fleet)
    arm("shard.transport.delay", times=-1)
    merged, stats = _run(small_engine, fleet)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] == 0.0
    assert stats["dispatched"] == stats["planned"]


def test_dropped_row_record_is_a_desync_and_resumes_at_its_start(
        small_engine):
    """A row record lost in flight leaves a hole: the next record does
    not start at the shard's held index, so the worker is lost and the
    shard resumes where the dropped record started."""
    fleet = _mc_fleet()
    reference = _reference(small_engine, fleet)
    arm("shard.transport.drop", times=1, after=3)  # shard 0's first
    merged, stats, resumes = _traced_resume(small_engine, fleet)
    _assert_merge(merged, reference)
    _assert_one_reassignment(stats)
    assert resumes == [0]


def test_last_record_dropped_before_done_is_a_desync(small_engine):
    """Dropping a shard's last row record makes its ``done`` arrive
    early: a desync that loses the worker, and the shard resumes at
    the dropped record's start."""
    fleet = _mc_fleet()
    reference = _reference(small_engine, fleet)
    arm("shard.transport.drop", times=1, after=5)  # trip 6: dies [4, 6)
    merged, stats, resumes = _traced_resume(small_engine, fleet)
    _assert_merge(merged, reference)
    _assert_one_reassignment(stats)
    assert resumes == [4]


def test_dropped_done_is_caught_by_the_progress_watchdog(
        small_engine):
    """Heartbeats prove liveness, not progress: a worker whose
    ``done`` vanished keeps pinging forever.  ``progress_timeout``
    declares it lost; the coordinator already holds every row of the
    reassigned shard, so the resume is a no-op and the merge is
    identical."""
    fleet = _mc_fleet(count=6)
    reference = _reference(small_engine, fleet, count=6)
    # One shard of three chunks: trips 1-3 init/assign/hello, trips
    # 4-6 progress, trip 7 the done line.
    arm("shard.transport.drop", times=1, after=6)
    merged, stats = _run(small_engine, fleet, shards=1,
                         progress_timeout=6.0)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["reassigned"] == 1.0
    assert stats["completed"] == 1.0
