"""Multi-signature campaigns: the channel-0 bit-identity contract.

``engine.run(..., encoders=[enc0, enc1])`` screens through two monitor
banks off one front-half pass.  The contract, mirrored after
``test_front_half.py``: for every population kind and every executor,

* channel 0 of the multi-signature result (NDFs, verdicts, packed
  batch) is **bit-identical** to the plain single-channel run;
* channel k equals an independent single-channel engine configured
  with encoder k -- nothing leaks between channels;
* the combined OR-verdict fails a die iff any channel fails it.
"""

import numpy as np
import pytest

from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    ProcessPoolExecutor,
    SharedMemoryExecutor,
    fault_dictionary,
    montecarlo_dies,
    montecarlo_monitor_banks,
    stream_montecarlo_dies,
    trace_population,
)
from repro.campaign.batch import batch_biquad_traces
from repro.campaign.engine import CERTIFIED_MIN_ROWS
from repro.core.testflow import SignatureTester
from repro.filters.biquad import BiquadFilter
from repro.filters.towthomas import TowThomasValues
from repro.monitor.configurations import table1_bank, table1_encoder
from repro.monitor.second_signature import second_signature_bank
from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def encoders():
    return [table1_encoder(), second_signature_bank(-0.10, 1e-5)]


@pytest.fixture(scope="module")
def engine(encoders):
    return CampaignEngine.from_parts(encoders[0], PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES,
                                     cache=GoldenCache())


def _assert_channel0_identity(single, multi):
    assert multi.channel_ndfs is not None
    assert multi.channel_ndfs.shape == (single.num_dies, 2)
    assert np.array_equal(multi.ndfs, single.ndfs)
    assert np.array_equal(multi.channel_ndfs[:, 0], single.ndfs)
    if single.verdicts is not None:
        assert np.array_equal(multi.verdicts, single.verdicts)
        assert np.array_equal(multi.channel_verdicts[:, 0],
                              single.verdicts)
        assert multi.channel_thresholds[0] == single.threshold
    if single.signature_batch is not None:
        assert multi.multi_signature_batch is not None
        for a, b in ((multi.signature_batch, single.signature_batch),
                     (multi.multi_signature_batch.channel(0),
                      single.signature_batch)):
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.durations, b.durations)
            assert np.array_equal(a.row_offsets, b.row_offsets)


def _assert_channel1_matches_independent(engine, encoders, population,
                                         multi):
    other = CampaignEngine.from_parts(encoders[1], PAPER_STIMULUS,
                                      PAPER_BIQUAD,
                                      samples_per_period=SAMPLES,
                                      cache=GoldenCache())
    reference = other.run(population, band="auto",
                          keep_signatures=True)
    assert np.array_equal(multi.channel_ndfs[:, 1], reference.ndfs)
    assert multi.channel_thresholds[1] == reference.threshold
    assert np.array_equal(multi.channel_verdicts[:, 1],
                          reference.verdicts)
    channel = multi.multi_signature_batch.channel(1)
    assert np.array_equal(channel.codes,
                          reference.signature_batch.codes)
    assert np.array_equal(channel.durations,
                          reference.signature_batch.durations)


def test_spec_population_channel0_identity(engine, encoders):
    population = montecarlo_dies(PAPER_BIQUAD, 20, sigma_f0=0.05,
                                 seed=11)
    single = engine.run(population, band="auto", keep_signatures=True)
    multi = engine.run(population, band="auto", keep_signatures=True,
                       encoders=encoders)
    _assert_channel0_identity(single, multi)
    _assert_channel1_matches_independent(engine, encoders, population,
                                         multi)


def test_fault_population_channel0_identity(engine, encoders):
    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    single = engine.run(population, band="auto", keep_signatures=True)
    multi = engine.run(population, band="auto", keep_signatures=True,
                       encoders=encoders)
    _assert_channel0_identity(single, multi)
    _assert_channel1_matches_independent(engine, encoders, population,
                                         multi)


def test_trace_population_channel0_identity(engine, encoders):
    golden = engine.golden()
    dies = montecarlo_dies(PAPER_BIQUAD, 12, sigma_f0=0.06, seed=3)
    stack = batch_biquad_traces(dies.specs, PAPER_STIMULUS,
                                golden.times)
    population = trace_population(np.array(stack))
    single = engine.run(population, band="auto", keep_signatures=True)
    multi = engine.run(population, band="auto", keep_signatures=True,
                       encoders=encoders)
    _assert_channel0_identity(single, multi)
    _assert_channel1_matches_independent(engine, encoders, population,
                                         multi)


@pytest.mark.parametrize("executor_factory", [
    lambda: ProcessPoolExecutor(max_workers=2),
    lambda: SharedMemoryExecutor(max_workers=2),
], ids=["pool", "shm"])
def test_executors_bit_identical_multichannel(encoders,
                                              executor_factory):
    population = montecarlo_dies(PAPER_BIQUAD, 24, sigma_f0=0.05,
                                 seed=7)
    serial_engine = CampaignEngine.from_parts(
        encoders[0], PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=SAMPLES, cache=GoldenCache())
    serial = serial_engine.run(population, band="auto",
                               keep_signatures=True, encoders=encoders)
    executor = executor_factory()
    try:
        pooled_engine = CampaignEngine.from_parts(
            encoders[0], PAPER_STIMULUS, PAPER_BIQUAD,
            samples_per_period=SAMPLES, cache=GoldenCache(),
            executor=executor)
        pooled = pooled_engine.run(population, band="auto",
                                   keep_signatures=True,
                                   encoders=encoders)
    finally:
        executor.shutdown()
    assert np.array_equal(serial.channel_ndfs, pooled.channel_ndfs)
    assert np.array_equal(serial.channel_verdicts,
                          pooled.channel_verdicts)
    for k in range(2):
        a = serial.multi_signature_batch.channel(k)
        b = pooled.multi_signature_batch.channel(k)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.durations, b.durations)


def test_streamed_multichannel_matches_monolithic(engine, encoders):
    population = montecarlo_dies(PAPER_BIQUAD, 30, sigma_f0=0.05,
                                 seed=13)
    monolithic = engine.run(population, band="auto",
                            keep_signatures=True, encoders=encoders)
    streamed = engine.run_stream(
        stream_montecarlo_dies(PAPER_BIQUAD, 30, chunk_size=7,
                               sigma_f0=0.05, seed=13),
        band="auto", keep_signatures=True, encoders=encoders)
    assert np.array_equal(monolithic.channel_ndfs,
                          streamed.channel_ndfs)
    assert np.array_equal(monolithic.channel_verdicts,
                          streamed.channel_verdicts)
    for k in range(2):
        a = monolithic.multi_signature_batch.channel(k)
        b = streamed.multi_signature_batch.channel(k)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.durations, b.durations)
        assert np.array_equal(a.row_offsets, b.row_offsets)


def _per_die_channel_ndfs(encoder, specs):
    tester = SignatureTester(encoder, PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)
    return np.asarray([tester.ndf_of(BiquadFilter(s)) for s in specs])


def test_certified_multichannel_matches_per_die_channels(encoders):
    """Certified chunks (>= CERTIFIED_MIN_ROWS dies, one table per
    channel): every channel of serial, pool and streamed multi-channel
    runs equals that encoder's per-die SignatureTester."""
    n = 2 * CERTIFIED_MIN_ROWS
    population = montecarlo_dies(PAPER_BIQUAD, n, sigma_f0=0.05,
                                 seed=29)
    references = [_per_die_channel_ndfs(encoder, population.specs)
                  for encoder in encoders]
    runs = []
    with tracing() as tracer:
        serial = CampaignEngine.from_parts(
            encoders[0], PAPER_STIMULUS, PAPER_BIQUAD,
            samples_per_period=SAMPLES, cache=GoldenCache())
        runs.append(serial.run(population, band=None,
                               encoders=encoders))
        runs.append(serial.run_stream(
            stream_montecarlo_dies(PAPER_BIQUAD, n,
                                   chunk_size=CERTIFIED_MIN_ROWS,
                                   sigma_f0=0.05, seed=29),
            band=None, encoders=encoders))
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = CampaignEngine.from_parts(
                encoders[0], PAPER_STIMULUS, PAPER_BIQUAD,
                samples_per_period=SAMPLES, cache=GoldenCache(),
                executor=pool)
            runs.append(pooled.run(population, band=None,
                                   encoders=encoders))
    for result in runs:
        for k, reference in enumerate(references):
            assert np.array_equal(result.channel_ndfs[:, k], reference)
    traces = [r for r in tracer.records() if r.name == "stage.traces"]
    assert traces and all(r.attributes.get("path") == "certified"
                          for r in traces)


def test_combined_verdict_is_or_over_channels(engine, encoders):
    population = montecarlo_dies(PAPER_BIQUAD, 25, sigma_f0=0.05,
                                 seed=21)
    multi = engine.run(population, band="auto", encoders=encoders)
    expected = np.all(multi.channel_verdicts, axis=1)
    assert np.array_equal(multi.combined_verdicts, expected)
    assert multi.combined_fail_count \
        == int(np.count_nonzero(~expected))
    # The OR can only tighten the screen, never loosen it.
    assert multi.combined_fail_count >= multi.fail_count
    # Single-channel results degrade to the plain verdict.
    single = engine.run(population, band="auto")
    assert np.array_equal(single.combined_verdicts, single.verdicts)
    assert single.num_channels == 1


def test_empty_population_multichannel(engine, encoders):
    multi = engine.run([], band="auto", keep_signatures=True,
                       encoders=encoders)
    assert multi.num_dies == 0
    assert multi.channel_ndfs.shape == (0, 2)
    assert multi.multi_signature_batch.num_channels == 2
    assert len(multi.multi_signature_batch) == 0


def test_unsupported_populations_raise(engine, encoders):
    multi_engine = engine.with_encoders(encoders)
    with pytest.raises(ValueError, match="single-channel"):
        multi_engine.run_noise(
            montecarlo_dies(PAPER_BIQUAD, 2, sigma_f0=0.03, seed=1),
            repeats=2)
    with pytest.raises(ValueError, match="primary monitor bank"):
        multi_engine.run(
            montecarlo_monitor_banks(table1_bank(), 2, seed=4),
            band=None)


def test_diagnose_requires_multi_batch(engine, encoders):
    from repro.diagnosis import compile_multi_fault_dictionary

    multi_dict = compile_multi_fault_dictionary(engine, encoders)
    population = montecarlo_dies(PAPER_BIQUAD, 4, sigma_f0=0.2,
                                 seed=2)
    plain = engine.run(population, band="auto", keep_signatures=True)
    with pytest.raises(ValueError, match="multi-signature"):
        plain.diagnose(multi_dict)
