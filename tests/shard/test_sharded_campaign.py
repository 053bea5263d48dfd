"""Sharded campaigns merge bit-identical -- even through a worker kill.

Every test compares full result vectors (NDFs, verdicts, deviations,
labels) with ``array_equal``, never ``allclose``: the contract is
byte-for-byte identity with the monolithic run, not numerical
closeness.  The drill tests arm fault points in the *worker's*
environment through ``REPRO_SHARD_WORKER_FAULTS``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import (
    SpecPopulation,
    deviation_sweep_population,
    montecarlo_dies,
    parameter_grid,
)
from repro.campaign.engine import CERTIFIED_MIN_ROWS
from repro.core.testflow import SignatureTester
from repro.filters.biquad import BiquadFilter, BiquadSpec
from repro.monitor.second_signature import second_signature_bank
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.shard import (
    MonteCarloFleet,
    PopulationFleet,
    ShardCoordinator,
    ShardWorkerError,
)

pytestmark = pytest.mark.campaign

DIES = 12
SIGMA = 0.05
SEED = 3
HEARTBEAT = 15.0  # generous: CI boxes start interpreters slowly


def _mc_fleet(count=DIES, chunk=4):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA,
                           seed=SEED, chunk_size=chunk)


def _assert_same_result(a, b):
    np.testing.assert_array_equal(a.ndfs, b.ndfs)
    np.testing.assert_array_equal(a.verdicts, b.verdicts)
    np.testing.assert_array_equal(a.f0_deviations, b.f0_deviations)
    np.testing.assert_array_equal(a.q_deviations, b.q_deviations)
    assert list(a.labels) == list(b.labels)
    assert a.threshold == b.threshold


def test_mc_bit_identical_to_monolithic(small_engine):
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.run_sharded(_mc_fleet(), shards=3,
                                       band="auto",
                                       heartbeat=HEARTBEAT)
    _assert_same_result(sharded, reference)
    assert sharded.executor == "sharded[3]"
    assert sharded.shard_stats["completed"] == 3.0
    assert sharded.shard_stats["reassigned"] == 0.0


def test_certified_shards_match_per_die_and_count_in_coordinator(
        small_engine):
    """Shards screened on the certified front half (chunks of >=
    CERTIFIED_MIN_ROWS dies) merge to the per-die SignatureTester
    result, and the dies their workers recomputed exactly are counted
    in the coordinator's registry."""
    dies = montecarlo_dies(PAPER_BIQUAD, 2 * CERTIFIED_MIN_ROWS,
                           sigma_f0=SIGMA, seed=SEED)
    # Two dies whose traces leave the threshold tables' window.
    specs = list(dies.specs) + [BiquadSpec(11e3, 1.0, gain=5.0),
                                BiquadSpec(9e3, 0.8, 4.5)]
    n = len(specs)
    population = SpecPopulation(specs, np.zeros(n), np.zeros(n),
                                [f"die{i}" for i in range(n)])
    tester = SignatureTester(small_engine.config.encoder, PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=512, refine=False)
    reference = np.asarray([tester.ndf_of(BiquadFilter(s))
                            for s in specs])
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        sharded = small_engine.run_sharded(
            PopulationFleet(population, chunk_size=256), shards=2,
            band=0.05, heartbeat=HEARTBEAT)
    finally:
        set_default_registry(previous)
    np.testing.assert_array_equal(sharded.ndfs, reference)
    np.testing.assert_array_equal(sharded.verdicts, reference <= 0.05)
    assert registry.counter("front_half_fallback_rows_total").value == 2.0


def test_two_channel_shards_match_monolithic(small_engine):
    """A second signature channel shards: two shards of certified
    chunks merge to the monolithic two-encoder run, channel by
    channel."""
    dies, chunk = 150, 70
    assert chunk >= CERTIFIED_MIN_ROWS
    multi = small_engine.with_encoders(
        [small_engine.config.encoder, second_signature_bank(-0.10, 1e-5)])
    reference = multi.run(montecarlo_dies(PAPER_BIQUAD, dies,
                                          sigma_f0=SIGMA, seed=SEED),
                          band="auto")
    sharded = multi.run_sharded(_mc_fleet(count=dies, chunk=chunk),
                                shards=2, band="auto",
                                heartbeat=HEARTBEAT)
    assert sharded.executor == "sharded[2]"
    assert sharded.channel_ndfs.shape == (dies, 2)
    np.testing.assert_array_equal(sharded.channel_ndfs,
                                  reference.channel_ndfs)
    np.testing.assert_array_equal(sharded.channel_verdicts,
                                  reference.channel_verdicts)
    np.testing.assert_array_equal(sharded.channel_thresholds,
                                  reference.channel_thresholds)
    assert sharded.channel_thresholds[0] != \
        sharded.channel_thresholds[1]
    _assert_same_result(sharded, reference)


def test_single_shard_matches_multi(small_engine):
    one = small_engine.run_sharded(_mc_fleet(), shards=1, band="auto",
                                   heartbeat=HEARTBEAT)
    three = small_engine.run_sharded(_mc_fleet(), shards=3,
                                     band="auto", heartbeat=HEARTBEAT)
    _assert_same_result(one, three)
    assert one.executor == "sharded[1]"


def test_sweep_population_bit_identical(small_engine):
    population = deviation_sweep_population(
        PAPER_BIQUAD, np.linspace(-0.2, 0.2, 9))
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.run_sharded(
        PopulationFleet(population, chunk_size=2), shards=3,
        band="auto", heartbeat=HEARTBEAT)
    _assert_same_result(sharded, reference)


def test_grid_population_bit_identical(small_engine):
    axis = np.linspace(-0.1, 0.1, 3)
    population = parameter_grid(PAPER_BIQUAD, axis, axis)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.run_sharded(population, shards=2,
                                       band="auto",
                                       heartbeat=HEARTBEAT)
    _assert_same_result(sharded, reference)


def test_fewer_workers_than_shards(small_engine):
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.run_sharded(_mc_fleet(chunk=2),
                                       shards=4, workers=2,
                                       band="auto",
                                       heartbeat=HEARTBEAT)
    _assert_same_result(sharded, reference)
    assert sharded.shard_stats["workers"] == 2.0
    assert sharded.shard_stats["completed"] == 4.0


def test_empty_fleet(small_engine):
    result = small_engine.run_sharded(_mc_fleet(count=0), shards=3,
                                      band="auto",
                                      heartbeat=HEARTBEAT)
    assert result.num_dies == 0
    assert result.shard_stats["planned"] == 0.0


def test_kill_drill_reassigns_and_stays_bit_identical(
        small_engine, monkeypatch):
    """SIGKILL one worker mid-shard: the shard reassigns, resumes
    at the first row the coordinator does not hold, and the merged
    result is still bit-identical."""
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    # Kill the first worker right after its second row record, the
    # middle one of its shard's three, so the resume is mid-shard.
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.kill:1:1")
    before = default_registry().counter("shard_reassigned_total").value
    tracer = Tracer()
    install_tracer(tracer)
    try:
        sharded = small_engine.run_sharded(_mc_fleet(chunk=2), shards=2,
                                           band="auto",
                                           heartbeat=HEARTBEAT)
    finally:
        uninstall_tracer()
    _assert_same_result(sharded, reference)
    runs = [r for r in tracer.records() if r.name == "shard.worker.run"]
    assert any(r.attributes["lo"] < r.attributes["resume_at"]
               < r.attributes["hi"] for r in runs), \
        "no shard resumed mid-shard"
    assert sharded.shard_stats["reassigned"] >= 1.0
    assert sharded.shard_stats["dispatched"] > \
        sharded.shard_stats["planned"]
    after = default_registry().counter("shard_reassigned_total").value
    assert after > before


def test_worker_error_raises_with_context(small_engine, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.error")
    with pytest.raises(ShardWorkerError) as excinfo:
        small_engine.run_sharded(_mc_fleet(), shards=2, band="auto",
                                 heartbeat=HEARTBEAT)
    assert "FaultInjected" in str(excinfo.value)


def test_coordinator_reuses_workers_across_shards(small_engine):
    """More shards than workers: each worker screens several shards
    through one process (no respawn per shard)."""
    threshold = small_engine.band().threshold
    coordinator = ShardCoordinator(
        small_engine.config, threshold, _mc_fleet(chunk=3),
        shards=4, workers=1, heartbeat=HEARTBEAT)
    merged, stats = coordinator.run()
    assert stats["completed"] == 4.0
    assert stats["workers"] == 1.0
    assert merged.num_dies == DIES
    assert merged.complete


def test_offset_stream_checkpoints_carry_start_index(
        small_engine, tmp_path):
    """A workdir's shard file is a checkpoint naming its global range;
    a stream starts at die 0, so it refuses one whose range starts
    past it: the stream's prefix cannot merge into it."""
    from repro.campaign.checkpoint import StreamCheckpoint

    fleet = _mc_fleet(chunk=2)
    workdir = tmp_path / "shards"
    small_engine.run_sharded(fleet, shards=3, band="auto",
                             heartbeat=HEARTBEAT, workdir=str(workdir))
    path = str(workdir / "shard_0001.npz")
    state = StreamCheckpoint.load(path)
    assert (state.start_index, state.next_index) == (4, 8)
    assert state.complete
    with pytest.raises(ValueError, match="does not contain"):
        small_engine.run_stream(fleet.chunks(0, DIES), band="auto",
                                checkpoint=path)
    with pytest.raises(ValueError, match="does not contain"):
        small_engine.resume(path, fleet.chunks(0, DIES), band="auto")


def test_autotuned_campaign_carves_dynamically_and_stays_identical(
        small_engine):
    """Autotuned sizing changes scheduling only, never results: the
    carved ranges still tile [0, N) and merge bit-identical."""
    population = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA,
                                 seed=SEED)
    reference = small_engine.run(population, band="auto")
    sharded = small_engine.run_sharded(_mc_fleet(chunk=2), shards=3,
                                       band="auto",
                                       heartbeat=HEARTBEAT,
                                       workers=2,
                                       autotune_s=0.5)
    _assert_same_result(sharded, reference)
    assert sharded.shard_stats["planned"] >= 1.0
    assert sharded.shard_stats["completed"] == \
        sharded.shard_stats["planned"]
    assert sharded.shard_stats["reassigned"] == 0.0
