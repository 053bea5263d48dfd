"""Session re-entrancy: concurrent submits == serial, bit for bit."""

import threading

import numpy as np
import pytest

from repro.campaign import ScreeningRequest, montecarlo_dies
from repro.service import MetricsRegistry, ScreeningSession

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def session():
    return ScreeningSession.from_paper(samples_per_period=SAMPLES)


def _lots(golden_spec, count=6, dies=8):
    """Distinct deterministic die-lots (different seeds)."""
    return [montecarlo_dies(golden_spec, dies, sigma_f0=0.05, seed=seed)
            for seed in range(count)]


def test_threads_match_serial_bit_for_bit(session):
    """N threads through one session == the serial reference."""
    lots = _lots(session.engine.config.golden_spec)
    serial = [session.submit(ScreeningRequest(population=lot))
              for lot in lots]

    concurrent = [None] * len(lots)
    errors = []

    def work(i, lot):
        try:
            concurrent[i] = session.submit(
                ScreeningRequest(population=lot))
        except BaseException as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=work, args=(i, lot))
               for i, lot in enumerate(lots)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for reference, observed in zip(serial, concurrent):
        np.testing.assert_array_equal(reference.ndfs, observed.ndfs)
        np.testing.assert_array_equal(reference.verdicts,
                                      observed.verdicts)
        assert reference.threshold == observed.threshold
        assert reference.labels == observed.labels


def test_cold_cache_single_flight(golden_spec):
    """Racing first requests compute the golden artifacts once."""
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES)
    lot = montecarlo_dies(golden_spec, 4, sigma_f0=0.05, seed=1)
    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait()
        results[i] = session.submit(ScreeningRequest(population=lot))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for observed in results[1:]:
        np.testing.assert_array_equal(results[0].ndfs, observed.ndfs)
    # Single-flight: the golden/band artifacts compiled exactly once
    # (hits for every request after the first).
    info = session.cache_info
    assert info.misses <= 3  # golden, band sweep, band
    assert info.hits > 0


def test_reentrancy_across_executors(session):
    """Threaded submits stay bit-identical under a pool executor."""
    from repro.campaign import CampaignEngine, ProcessPoolExecutor

    lots = _lots(session.engine.config.golden_spec, count=2, dies=6)
    serial = [session.submit(ScreeningRequest(population=lot))
              for lot in lots]
    executor = ProcessPoolExecutor(max_workers=2)
    try:
        pooled_session = ScreeningSession(CampaignEngine(
            session.engine.config, cache=session.engine.cache,
            executor=executor))
        observed = [None] * len(lots)

        def work(i, lot):
            observed[i] = pooled_session.submit(
                ScreeningRequest(population=lot))

        threads = [threading.Thread(target=work, args=(i, lot))
                   for i, lot in enumerate(lots)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        executor.shutdown()
    for reference, pooled in zip(serial, observed):
        np.testing.assert_array_equal(reference.ndfs, pooled.ndfs)
        np.testing.assert_array_equal(reference.verdicts,
                                      pooled.verdicts)


def test_session_counts_and_metrics(golden_spec):
    metrics = MetricsRegistry()
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES,
                                          metrics=metrics)
    lot = montecarlo_dies(golden_spec, 3, sigma_f0=0.05, seed=9)
    session.submit(ScreeningRequest(population=lot))
    session.submit(ScreeningRequest(population=lot, band=None))
    assert session.submitted == 2
    snap = metrics.snapshot()
    assert snap["counters"]["session_requests_total"] == 2
    assert any(key.startswith("stage_seconds")
               for key in snap["windows"])


def test_warm_populates_cache(golden_spec):
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES)
    warmed = session.warm(dictionary=False)
    assert warmed == {"golden": True, "band": True,
                      "dictionary": False}
    info = session.cache_info
    assert info.size >= 2
    # A warmed submit never misses.
    misses_before = session.cache_info.misses
    lot = montecarlo_dies(golden_spec, 2, sigma_f0=0.05, seed=3)
    session.submit(ScreeningRequest(population=lot))
    assert session.cache_info.misses == misses_before


def test_threshold_shortcut(session):
    assert session.threshold() == session.engine.band().threshold
