"""ScreeningRequest value object, entry points, cache migration."""

import dataclasses
import threading
import warnings

import numpy as np
import pytest

from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    ScreeningRequest,
    montecarlo_dies,
    stream_montecarlo_dies,
)
from repro.monitor.configurations import table1_encoder
from repro.obs.metrics import default_registry
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.shard import MonteCarloFleet

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def engine():
    return CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES)


# ----------------------------------------------------------------------
# The request value object
# ----------------------------------------------------------------------
def test_request_defaults():
    request = ScreeningRequest()
    assert [f.name for f in dataclasses.fields(request)] == [
        "population", "band", "keep_signatures", "encoders", "client",
        "request_id"]
    assert request.band == "auto"
    assert not request.keep_signatures
    assert request.encoders is None
    assert request.client is None


def test_request_is_frozen_and_hashable_fields_freeze():
    request = ScreeningRequest(encoders=[1, 2])
    assert request.encoders == (1, 2)  # lists freeze to tuples
    with pytest.raises(AttributeError):
        request.band = 0.5


# ----------------------------------------------------------------------
# submit() against the keyword and placement entry points
# ----------------------------------------------------------------------
def test_submit_run_matches_run_shim(engine):
    lot = montecarlo_dies(PAPER_BIQUAD, 6, sigma_f0=0.05, seed=2)
    via_shim = engine.run(lot, band="auto")
    via_submit = engine.submit(ScreeningRequest(population=lot))
    np.testing.assert_array_equal(via_shim.ndfs, via_submit.ndfs)
    np.testing.assert_array_equal(via_shim.verdicts,
                                  via_submit.verdicts)
    assert via_shim.threshold == via_submit.threshold
    assert via_shim.labels == via_submit.labels


def test_submit_stream_matches_run_stream_shim(engine):
    def chunks():
        return stream_montecarlo_dies(PAPER_BIQUAD, 10, chunk_size=4,
                                      sigma_f0=0.05, seed=3)

    via_shim = engine.run_stream(chunks())
    via_submit = engine.submit(ScreeningRequest(population=chunks()))
    np.testing.assert_array_equal(via_shim.ndfs, via_submit.ndfs)
    np.testing.assert_array_equal(via_shim.verdicts,
                                  via_submit.verdicts)


def test_list_of_chunks_streams_like_run_stream(engine):
    """A list of population chunks is a stream, as an iterator of them
    is: ``run`` matches ``run_stream`` bit for bit."""
    chunks = [montecarlo_dies(PAPER_BIQUAD, 4, 0.03),
              montecarlo_dies(PAPER_BIQUAD, 3, 0.03, seed=9)]
    listed = engine.run(chunks, band=0.1)
    streamed = engine.run_stream(chunks, band=0.1)
    np.testing.assert_array_equal(listed.ndfs, streamed.ndfs)
    np.testing.assert_array_equal(listed.verdicts, streamed.verdicts)
    np.testing.assert_array_equal(listed.f0_deviations,
                                  streamed.f0_deviations)
    assert listed.labels == streamed.labels
    assert listed.executor == streamed.executor
    assert engine.run([], band=0.1).num_dies == 0


def test_run_noise_places_the_submitted_lot(engine):
    """A noise campaign places the same lot under repeats: with no
    noise, every repeat scores exactly what ``submit`` scores."""
    lot = montecarlo_dies(PAPER_BIQUAD, 3, sigma_f0=0.05, seed=4)
    noisy = engine.run_noise(lot, repeats=3, noise=0.0, seed=7)
    clean = engine.submit(ScreeningRequest(population=lot))
    np.testing.assert_array_equal(noisy.ndf_matrix,
                                  np.repeat(clean.ndfs[:, None], 3, 1))
    assert noisy.threshold == clean.threshold


def _startups() -> int:
    return default_registry().histogram(
        "shard_worker_startup_seconds").count


@pytest.mark.parametrize("method,option,value", [
    ("run_sharded", "shards", 0),
    ("run_sharded", "heartbeat", 0.0),
    ("run_sharded", "workers", 0),
    ("run_sharded", "autotune_s", 0.0),
])
def test_placement_methods_refuse_bad_options(method, option, value):
    """Each placement option is checked by the method that takes it,
    before any worker spawns, in an error naming the parameter."""
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES)
    population = (MonteCarloFleet(PAPER_BIQUAD, 4, chunk_size=2)
                  if method == "run_sharded"
                  else stream_montecarlo_dies(PAPER_BIQUAD, 4, 2))
    before = _startups()
    with pytest.raises(ValueError, match=option):
        getattr(engine, method)(population, **{option: value})
    assert _startups() == before
    assert engine._workers is None  # no worker set was ever made


def test_submit_carries_request_options(engine):
    lot = montecarlo_dies(PAPER_BIQUAD, 2, sigma_f0=0.05, seed=5)
    result = engine.submit(ScreeningRequest(
        population=lot, band=None, keep_signatures=True))
    assert result.threshold is None
    assert result.verdicts is None
    assert result.signature_batch is not None


# ----------------------------------------------------------------------
# Caches: per-engine default, explicit sharing
# ----------------------------------------------------------------------
def test_engines_default_to_private_caches():
    a = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                  PAPER_BIQUAD,
                                  samples_per_period=SAMPLES)
    b = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                  PAPER_BIQUAD,
                                  samples_per_period=SAMPLES)
    assert a.cache is not b.cache
    a.golden()
    assert a.cache.info.size == 1
    assert b.cache.info.size == 0  # b saw none of a's traffic


def test_explicit_cache_is_shared():
    cache = GoldenCache()
    a = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                  PAPER_BIQUAD,
                                  samples_per_period=SAMPLES,
                                  cache=cache)
    b = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                  PAPER_BIQUAD,
                                  samples_per_period=SAMPLES,
                                  cache=cache)
    a.golden()
    misses = cache.info.misses
    b.golden()
    assert cache.info.misses == misses  # b hit a's entry


def test_missing_attribute_still_raises():
    import repro.campaign.cache

    with pytest.raises(AttributeError):
        repro.campaign.cache.NO_SUCH_THING


def test_cache_is_thread_safe_single_flight():
    cache = GoldenCache()
    calls = []

    def compute():
        calls.append(1)
        return "artifact"

    def work():
        for _ in range(50):
            assert cache.get_or_compute(("key",), compute) \
                == "artifact"

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(calls) == 1  # computed once despite the race
    assert cache.info.hits == 8 * 50 - 1


def test_no_warning_on_normal_import():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        import importlib

        import repro.campaign

        importlib.reload(repro.campaign)
