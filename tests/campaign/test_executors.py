"""Executor layer: chunking, serial/pool equivalence, determinism."""

import numpy as np
import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    GoldenCache,
    ProcessPoolExecutor,
    SerialExecutor,
    fault_dictionary,
    montecarlo_dies,
    stream_montecarlo_dies,
    trace_population,
)
from repro.campaign.engine import CERTIFIED_MIN_ROWS
from repro.core.testflow import SignatureTester
from repro.filters.biquad import BiquadFilter
from repro.filters.towthomas import TowThomasValues
from repro.monitor.configurations import table1_encoder
from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign


def _config(chunk_size=16):
    return CampaignConfig(table1_encoder(), PAPER_STIMULUS,
                          PAPER_BIQUAD, samples_per_period=512,
                          chunk_size=chunk_size)


def test_serial_executor_maps_in_order():
    outputs = SerialExecutor().map(lambda c: c * 2, [1, 2, 3])
    assert outputs == [2, 4, 6]


def test_chunk_size_does_not_change_results():
    population = montecarlo_dies(PAPER_BIQUAD, 30, sigma_f0=0.03,
                                 seed=2)
    one = CampaignEngine(_config(chunk_size=30),
                         cache=GoldenCache()).run(population, band=None)
    many = CampaignEngine(_config(chunk_size=7),
                          cache=GoldenCache()).run(population, band=None)
    assert np.array_equal(one.ndfs, many.ndfs)


def test_process_pool_bit_identical_to_serial():
    """The acceptance criterion: same seeds -> identical verdicts."""
    population = montecarlo_dies(PAPER_BIQUAD, 24, sigma_f0=0.03,
                                 seed=13)
    serial = CampaignEngine(_config(), cache=GoldenCache()).run(
        population, band="auto")
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = CampaignEngine(_config(), cache=GoldenCache(),
                                executor=pool).run(population,
                                                   band="auto")
    assert np.array_equal(serial.ndfs, pooled.ndfs)
    assert np.array_equal(serial.verdicts, pooled.verdicts)
    assert pooled.executor.startswith("process-pool")


def test_all_executors_bit_identical_including_streaming():
    """Serial and pool runs -- streamed or not -- agree bit for bit
    (the acceptance criterion)."""
    population = montecarlo_dies(PAPER_BIQUAD, 20, sigma_f0=0.03,
                                 seed=17)

    def stream():
        return stream_montecarlo_dies(PAPER_BIQUAD, 20, chunk_size=6,
                                      sigma_f0=0.03, seed=17)

    serial = CampaignEngine(_config(), cache=GoldenCache()).run(
        population, band="auto")
    results = [serial]
    with ProcessPoolExecutor(max_workers=2) as pool:
        engine = CampaignEngine(_config(), cache=GoldenCache(),
                                executor=pool)
        results.append(engine.run(population, band="auto"))
        results.append(engine.run_stream(stream(), band="auto"))
    results.append(CampaignEngine(_config(), cache=GoldenCache())
                   .run_stream(stream(), band="auto"))
    for other in results[1:]:
        assert np.array_equal(serial.ndfs, other.ndfs)
        assert np.array_equal(serial.verdicts, other.verdicts)


def _per_die_ndfs(specs):
    tester = SignatureTester(table1_encoder(), PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=512, refine=False)
    return np.asarray([tester.ndf_of(BiquadFilter(s)) for s in specs])


def test_certified_chunks_match_per_die_on_every_executor():
    """Chunks of >= CERTIFIED_MIN_ROWS dies (the certified front half)
    on serial and pool executors, monolithic and streamed, all equal
    the per-die SignatureTester bit for bit."""
    n, stream_chunk = 4 * CERTIFIED_MIN_ROWS, 2 * CERTIFIED_MIN_ROWS
    population = montecarlo_dies(PAPER_BIQUAD, n, sigma_f0=0.04,
                                 seed=19)
    reference = _per_die_ndfs(population.specs)

    def stream():
        return stream_montecarlo_dies(PAPER_BIQUAD, n,
                                      chunk_size=stream_chunk,
                                      sigma_f0=0.04, seed=19)

    config = _config(chunk_size=256)
    runs = []
    with tracing() as tracer:
        serial = CampaignEngine(config, cache=GoldenCache())
        runs += [serial.run(population, band=None),
                 serial.run_stream(stream(), band=None)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            engine = CampaignEngine(config, cache=GoldenCache(),
                                    executor=pool)
            runs += [engine.run(population, band=None),
                     engine.run_stream(stream(), band=None)]
    for result in runs:
        assert np.array_equal(result.ndfs, reference)
    # Chunks: serial 1 + 2 streamed; pool 2 + 2 x 2 streamed.  All of
    # them (pool children's spans included) took the certified path.
    records = tracer.records()
    assert len([r for r in records if r.name == "stage.signature"]) == 9
    traces = [r for r in records if r.name == "stage.traces"]
    assert traces and all(r.attributes.get("path") == "certified"
                          for r in traces)


def test_trace_stack_identical_across_transports():
    """Pickled (pool) and in-process trace scoring agree."""
    from repro.campaign.batch import batch_multitone_eval
    from repro.filters.biquad import BiquadFilter

    population = montecarlo_dies(PAPER_BIQUAD, 12, sigma_f0=0.04,
                                 seed=23)
    engine = CampaignEngine(_config(chunk_size=5), cache=GoldenCache())
    golden = engine.golden()
    responses = [BiquadFilter(s).response(PAPER_STIMULUS)
                 for s in population.specs]
    traces = trace_population(
        batch_multitone_eval(responses, golden.times))

    serial = engine.run(traces, band="auto")
    assert serial.executor == "serial"
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = CampaignEngine(_config(chunk_size=5),
                                cache=GoldenCache(),
                                executor=pool).run(traces, band="auto")
    assert pooled.executor.startswith("process-pool")
    assert np.array_equal(serial.ndfs, pooled.ndfs)
    assert np.array_equal(serial.verdicts, pooled.verdicts)


def test_fault_cut_list_pool_matches_serial():
    """A cut list scores as trace rows on the configured executor: the
    fault universe on a 2-process pool equals the serial run, kept
    signatures included."""
    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    serial = CampaignEngine(_config(chunk_size=5),
                            cache=GoldenCache()).run(
        population, band="auto", keep_signatures=True)
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = CampaignEngine(_config(chunk_size=5),
                                cache=GoldenCache(),
                                executor=pool).run(
            population, band="auto", keep_signatures=True)
    assert serial.executor == "serial"
    assert pooled.executor.startswith("process-pool")
    assert np.array_equal(serial.ndfs, pooled.ndfs)
    assert np.array_equal(serial.verdicts, pooled.verdicts)
    assert list(serial.labels) == list(pooled.labels)
    rows = serial.signature_batch.to_signatures()
    assert len(rows) == len(population)
    for ours, theirs in zip(rows,
                            pooled.signature_batch.to_signatures()):
        assert ours.period == theirs.period
        assert ours.entries == theirs.entries


def test_process_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ProcessPoolExecutor(max_workers=0)


def test_process_pool_shutdown_idempotent():
    pool = ProcessPoolExecutor(max_workers=1)
    pool.shutdown()
    pool.shutdown()
