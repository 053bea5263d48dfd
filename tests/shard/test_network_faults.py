"""Network fault drills: the transport fault points under a campaign.

These drills arm ``shard.transport.*`` faults in the *coordinator's*
process (the transport layer is coordinator-side), with ``workers=1``
so the coordinator's line sequence is deterministic: trip 1 is always
the ``init`` send, trips 2-3 are the first ``assign`` send and the
``hello`` receive (in either order), and every trip after that is a
``progress`` receive or an ``assign`` send.  A worker pings only
after ``heartbeat/2`` seconds of silence while it holds a shard, far
longer than a 2-die chunk takes, so no ping shifts the count.
``after=N`` therefore lands each fault on an exact protocol line.

With two shards of three 2-die chunks each, trips 4-6 are shard 0's
three row records (dies ``[0, 2)``, ``[2, 4)``, ``[4, 6)``); the last
one completes shard 0, and trip 7 is shard 1's ``assign``.

The contract under every fault: the merged result stays bit-identical
to the monolithic run, and the reassigned shard resumes at the first
row the coordinator holds no record of.  A partition loses the worker
and the rows that never arrived are screened again; a delay is
latency, not loss -- nothing may be reassigned; a dropped row record
is a desync (the next record does not follow the held rows) that
loses the worker; a dropped last record, or a dropped ``assign``,
leaves an assigned worker silent, so the heartbeat deadline loses it;
a dropped warm ``init`` leaves the worker on the previous campaign,
whose rows are a desync.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.campaign import CampaignEngine
from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet, ShardCoordinator
from repro.testing.faultinject import arm, disarm

pytestmark = pytest.mark.campaign

DIES = 12
SIGMA = 0.05
SEED = 3
HEARTBEAT = 30.0  # no pings, no stall teardown within any drill
#: The drills that wait for a silence to pass the deadline.
SHORT_HEARTBEAT = 1.0


def _mc_fleet(count=DIES, chunk=2, seed=SEED):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA,
                           seed=seed, chunk_size=chunk)


def _reference(engine, fleet, count=DIES):
    return engine.run_stream(fleet.chunks(0, count),
                             band=engine.band().threshold)


def _run(engine, fleet, shards=2, heartbeat=HEARTBEAT, **kwargs):
    coordinator = ShardCoordinator(
        engine.config, engine.band().threshold, fleet,
        shards=shards, workers=1, heartbeat=heartbeat, **kwargs)
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


def test_dropped_last_record_is_caught_by_silence(small_engine):
    """A shard's last row record lost in flight leaves its worker idle
    and silent while the coordinator still counts it assigned: the
    heartbeat deadline loses it, and the shard resumes at the dropped
    record's start."""
    fleet = _mc_fleet()
    reference = _reference(small_engine, fleet)
    arm("shard.transport.drop", times=1, after=5)  # trip 6: dies [4, 6)
    merged, stats, resumes = _traced_resume(
        small_engine, fleet, heartbeat=SHORT_HEARTBEAT)
    _assert_merge(merged, reference)
    _assert_one_reassignment(stats)
    assert resumes == [4]


def _campaign_within(engine, fleet, deadline=10.0):
    """``engine.run_sharded`` over one shard on a thread joined within
    ``deadline`` seconds, so a hang fails instead of stalling."""
    outcome = {}

    def run():
        try:
            outcome["result"] = engine.run_sharded(
                fleet, shards=1, band=engine.band().threshold,
                heartbeat=SHORT_HEARTBEAT)
        except BaseException as error:  # surfaced below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=deadline)
    assert not thread.is_alive(), f"campaign hung past {deadline} s"
    assert "error" not in outcome, outcome.get("error")
    return outcome["result"]


def _count_lines(engine, fleet):
    """The lines one undisturbed campaign sends and receives, counted
    by a drop armed too far ahead to fire."""
    far = 10**6
    counter = arm("shard.transport.drop", times=1, after=far)
    _campaign_within(engine, fleet)
    disarm("shard.transport.drop")
    return far - counter.after


@pytest.mark.parametrize("line", ["assign", "last-line", "warm-init"])
def test_no_lost_line_hangs_or_corrupts_a_campaign(small_engine, line):
    """Drop one line of an engine campaign (one shard of three 2-die
    chunks, a 1 s heartbeat): it still ends bit-identical to
    ``run_stream`` within seconds.  A lost ``assign`` or last record
    leaves the assigned worker silent, so the heartbeat deadline
    reassigns the shard; a warm worker that missed its ``init`` still
    screens the previous campaign's fleet, and its rows, which name
    that campaign, are a desync."""
    fleet = _mc_fleet(count=6, seed=SEED + 1)
    reference = _reference(small_engine, fleet, count=6)
    if line == "assign":
        after = 1  # trip 2: a cold worker says hello well after it
    elif line == "last-line":
        with CampaignEngine(small_engine.config) as counting:
            after = _count_lines(counting, fleet) - 1
    else:
        _campaign_within(small_engine, _mc_fleet(count=6))
        after = 0  # trip 1 of the second campaign: its init
    arm("shard.transport.drop", times=1, after=after)
    result = _campaign_within(small_engine, fleet)
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    np.testing.assert_array_equal(result.f0_deviations,
                                  reference.f0_deviations)
    assert list(result.labels) == list(reference.labels)
    assert result.shard_stats["reassigned"] == 1.0
    assert result.shard_stats["completed"] == 1.0
