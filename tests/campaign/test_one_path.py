"""One campaign path: every way into the engine screens alike.

A run over a list, an iterator of specs or a generator of chunks, a
stream with or without a checkpoint, a multi-signature run, a pooled
trace population and a sharded run, single- or two-channel, all go
through the same parts loop and the same result packager.  Each must
return the NDFs, verdicts and labels of the serial monolithic run (on
channel 0 for two channels), and count as exactly one campaign in the
process-default metrics registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    ProcessPoolExecutor,
    batch_biquad_traces,
    montecarlo_dies,
    stream_montecarlo_dies,
    trace_population,
)
from repro.monitor.configurations import table1_encoder
from repro.monitor.second_signature import second_signature_bank
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.shard import MonteCarloFleet

pytestmark = pytest.mark.campaign

SAMPLES = 512
DIES, CHUNK, SIGMA, SEED = 24, 7, 0.05, 31


def _engine(executor=None):
    return CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES,
                                     cache=GoldenCache(),
                                     executor=executor)


def _population():
    return montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=SIGMA, seed=SEED)


def _chunks():
    return stream_montecarlo_dies(PAPER_BIQUAD, DIES, chunk_size=CHUNK,
                                  sigma_f0=SIGMA, seed=SEED)


def _pooled_traces(engine, tmp_path):
    population = _population()
    traces = trace_population(
        batch_biquad_traces(population.specs, PAPER_STIMULUS,
                            engine.golden().times),
        labels=population.labels)
    with ProcessPoolExecutor(max_workers=2) as pool:
        result = _engine(pool).run(traces, keep_signatures=True)
    assert result.executor.startswith("process-pool")
    assert len(result.signature_batch) == DIES
    return result


def _sharded_two_encoders(engine, tmp_path):
    result = engine.with_encoders(
        [table1_encoder(), second_signature_bank(-0.10, 1e-5)]
    ).run_sharded(
        MonteCarloFleet(PAPER_BIQUAD, DIES, sigma_f0=SIGMA, seed=SEED,
                        chunk_size=CHUNK), shards=2, heartbeat=15.0)
    assert result.channel_ndfs.shape == (DIES, 2)
    return result


CASES = {
    "run-list": lambda engine, tmp_path: engine.run(
        list(_population().specs)),
    "run-spec-iterator": lambda engine, tmp_path: engine.run(
        iter(_population().specs)),
    "run-chunk-generator": lambda engine, tmp_path: engine.run(_chunks()),
    "stream": lambda engine, tmp_path: engine.run_stream(_chunks()),
    "stream-checkpoint": lambda engine, tmp_path: engine.run_stream(
        _chunks(), checkpoint=str(tmp_path / "stream.ckpt")),
    "run-two-encoders": lambda engine, tmp_path: engine.run(
        _population(), encoders=[table1_encoder(),
                                 second_signature_bank(-0.10, 1e-5)]),
    "pool-traces": _pooled_traces,
    "sharded-pipe": lambda engine, tmp_path: engine.run_sharded(
        MonteCarloFleet(PAPER_BIQUAD, DIES, sigma_f0=SIGMA, seed=SEED,
                        chunk_size=CHUNK), shards=2, heartbeat=15.0),
    "sharded-two-encoders": _sharded_two_encoders,
}


@pytest.fixture(scope="module")
def reference():
    return _engine().run(_population())


@pytest.mark.parametrize("case", list(CASES))
def test_every_entry_matches_the_monolithic_run_once(case, reference,
                                                     tmp_path):
    engine = _engine()
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        result = CASES[case](engine, tmp_path)
    finally:
        set_default_registry(previous)
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    np.testing.assert_array_equal(result.verdicts, reference.verdicts)
    assert list(result.labels) == list(reference.labels)
    assert registry.counter("engine_campaigns_total").value == 1
