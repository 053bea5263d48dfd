"""ScreeningRequest value object, submit dispatch, cache migration."""

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
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

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
    assert request.mode == "run"
    assert request.band == "auto"
    assert not request.keep_signatures
    assert request.encoders is None
    assert request.client is None


def test_request_is_frozen_and_hashable_fields_freeze():
    request = ScreeningRequest(encoders=[1, 2])
    assert request.encoders == (1, 2)  # lists freeze to tuples
    with pytest.raises(AttributeError):
        request.mode = "noise"


def test_request_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        ScreeningRequest(mode="batch")


def test_with_population_replaces_only_population():
    request = ScreeningRequest(band=0.1, keep_signatures=True)
    other = request.with_population([1, 2, 3])
    assert other.population == (1, 2, 3) or other.population == [1, 2, 3]
    assert other.band == 0.1
    assert other.keep_signatures


# ----------------------------------------------------------------------
# submit() dispatch vs the legacy entry points
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
    via_submit = engine.submit(ScreeningRequest(population=chunks(),
                                                mode="stream"))
    np.testing.assert_array_equal(via_shim.ndfs, via_submit.ndfs)
    np.testing.assert_array_equal(via_shim.verdicts,
                                  via_submit.verdicts)


def test_submit_noise_matches_run_noise_shim(engine):
    lot = montecarlo_dies(PAPER_BIQUAD, 3, sigma_f0=0.05, seed=4)
    via_shim = engine.run_noise(lot, repeats=3, seed=7)
    via_submit = engine.submit(ScreeningRequest(
        population=lot, mode="noise", repeats=3, seed=7))
    np.testing.assert_array_equal(via_shim.ndf_matrix,
                                  via_submit.ndf_matrix)


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
