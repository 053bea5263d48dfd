"""Histograms, the default registry, and generic timing observation."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    default_registry,
    record_engine_timings,
    set_default_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry(namespace="test")


@pytest.fixture
def scratch_default():
    """Swap in a scratch process-default registry for the test."""
    scratch = MetricsRegistry()
    previous = set_default_registry(scratch)
    yield scratch
    set_default_registry(previous)


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_buckets_are_cumulative(registry):
    hist = registry.histogram("latency", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        hist.observe(value)
    stats = hist.snapshot()
    assert stats["0.01"] == 1
    assert stats["0.1"] == 3
    assert stats["1"] == 4
    assert stats["+Inf"] == 5
    assert stats["count"] == 5
    assert stats["sum"] == pytest.approx(5.605)


def test_histogram_boundary_lands_in_its_bucket(registry):
    # bisect_left: an observation exactly on a bound counts as <= bound.
    hist = registry.histogram("exact", buckets=(1.0, 2.0))
    hist.observe(1.0)
    assert hist.snapshot()["1"] == 1


def test_histogram_render_merges_le_with_labels(registry):
    registry.histogram("stage_seconds", buckets=(0.5,),
                       stage="encode").observe(0.1)
    text = registry.render()
    assert 'test_stage_seconds_bucket{le="0.5",stage="encode"} 1' in text
    assert 'test_stage_seconds_bucket{le="+Inf",stage="encode"} 1' in text
    assert 'test_stage_seconds_count{stage="encode"} 1' in text


def test_histogram_identity_by_name_and_labels(registry):
    first = registry.histogram("h", stage="a")
    assert registry.histogram("h", stage="a") is first
    assert registry.histogram("h", stage="b") is not first


def test_histogram_rejects_bad_buckets(registry):
    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("dupes", buckets=(1.0, 1.0))


def test_default_buckets_cover_engine_scales():
    assert DEFAULT_BUCKETS[0] <= 1e-4
    assert DEFAULT_BUCKETS[-1] >= 10.0
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_histogram_appears_in_snapshot(registry):
    registry.histogram("h", buckets=(1.0,), stage="x").observe(0.5)
    snap = registry.snapshot()
    assert 'h{stage="x"}' in snap["histograms"]
    assert snap["histograms"]['h{stage="x"}']["count"] == 1


# ----------------------------------------------------------------------
# observe_timings: any stage key, no whitelist (satellite lock-down)
# ----------------------------------------------------------------------
def test_observe_timings_records_every_stage_key(registry):
    registry.observe_timings({"encode": 0.2, "signature": 0.1,
                              "a_brand_new_stage": 0.05}, mode="run")
    snap = registry.snapshot()["windows"]
    key = 'stage_seconds{mode="run",stage="a_brand_new_stage"}'
    assert key in snap
    assert snap[key]["count"] == 1
    assert snap[key]["sum"] == pytest.approx(0.05)
    # The known stages land too, under the same generic family.
    assert 'stage_seconds{mode="run",stage="encode"}' in snap


def test_observe_timings_accepts_empty_dict(registry):
    registry.observe_timings({})
    assert registry.snapshot()["windows"] == {}


# ----------------------------------------------------------------------
# Process-default registry
# ----------------------------------------------------------------------
def test_default_registry_is_a_stable_singleton(scratch_default):
    assert default_registry() is scratch_default
    assert default_registry() is default_registry()


def test_set_default_registry_returns_previous(scratch_default):
    other = MetricsRegistry()
    assert set_default_registry(other) is scratch_default
    assert default_registry() is other
    set_default_registry(scratch_default)


def test_record_engine_timings_counts_and_histograms(scratch_default):
    record_engine_timings({"encode": 0.01, "novel": 0.002})
    record_engine_timings({"encode": 0.03})
    snap = scratch_default.snapshot()
    assert snap["counters"]["engine_campaigns_total"] == 2
    hists = snap["histograms"]
    assert hists['engine_stage_seconds{stage="encode"}']["count"] == 2
    assert hists['engine_stage_seconds{stage="novel"}']["count"] == 1

