"""Fleet descriptions rebuild any global die range bit-identical."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.campaign.scenarios import (
    SpecPopulation,
    deviation_sweep_population,
    stream_montecarlo_dies,
)
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet, PopulationFleet, as_fleet


def _collect(chunks):
    """(specs, f0, q, labels) accumulated over population chunks."""
    specs, f0, q, labels = [], [], [], []
    for chunk in chunks:
        specs.extend(chunk.specs)
        f0.extend(chunk.f0_deviations)
        q.extend(chunk.q_deviations)
        labels.extend(chunk.labels)
    return specs, np.asarray(f0), np.asarray(q), labels


def test_mc_fleet_range_matches_monolithic_stream():
    fleet = MonteCarloFleet(PAPER_BIQUAD, 20, sigma_f0=0.04, seed=7,
                            chunk_size=3)
    whole = _collect(stream_montecarlo_dies(
        PAPER_BIQUAD, 20, chunk_size=3, sigma_f0=0.04, seed=7))
    ranged = _collect(fleet.chunks(5, 13))
    assert ranged[3] == whole[3][5:13]  # labels
    np.testing.assert_array_equal(ranged[1], whole[1][5:13])
    assert [s.f0_hz for s in ranged[0]] == \
        [s.f0_hz for s in whole[0][5:13]]


def test_mc_fleet_concatenated_shards_equal_whole():
    fleet = MonteCarloFleet(PAPER_BIQUAD, 17, sigma_f0=0.05, seed=1,
                            chunk_size=4)
    whole = _collect(fleet.chunks(0, 17))
    pieces = [_collect(fleet.chunks(lo, hi))
              for lo, hi in [(0, 6), (6, 7), (7, 17)]]
    np.testing.assert_array_equal(
        np.concatenate([p[1] for p in pieces]), whole[1])
    assert sum((p[3] for p in pieces), []) == whole[3]


def test_mc_fleet_bounds_and_pickle():
    fleet = MonteCarloFleet(PAPER_BIQUAD, 10)
    with pytest.raises(ValueError):
        fleet.chunks(-1, 5)
    with pytest.raises(ValueError):
        fleet.chunks(0, 11)
    with pytest.raises(ValueError):
        fleet.chunks(7, 3)
    clone = pickle.loads(pickle.dumps(fleet))
    assert clone == fleet and len(clone) == 10


def test_population_fleet_slices_rows():
    population = deviation_sweep_population(
        PAPER_BIQUAD, np.linspace(-0.2, 0.2, 9))
    fleet = PopulationFleet(population, chunk_size=2)
    assert len(fleet) == 9
    specs, f0, __, labels = _collect(fleet.chunks(3, 8))
    assert labels == list(population.labels[3:8])
    np.testing.assert_array_equal(f0, population.f0_deviations[3:8])
    assert [s.f0_hz for s in specs] == \
        [s.f0_hz for s in population.specs[3:8]]
    with pytest.raises(ValueError):
        fleet.chunks(0, 10)


def test_population_fleet_empty_range_yields_nothing():
    population = deviation_sweep_population(
        PAPER_BIQUAD, np.linspace(-0.1, 0.1, 5))
    fleet = PopulationFleet(population)
    assert list(fleet.chunks(2, 2)) == []


def test_as_fleet_coercions():
    fleet = MonteCarloFleet(PAPER_BIQUAD, 5)
    assert as_fleet(fleet) is fleet
    population = deviation_sweep_population(
        PAPER_BIQUAD, np.linspace(-0.1, 0.1, 5))
    wrapped = as_fleet(population, chunk_size=2)
    assert isinstance(wrapped, PopulationFleet)
    assert wrapped.chunk_size == 2
    # A raw spec sequence wraps with synthetic labels and NaN truth.
    raw = as_fleet(list(population.specs))
    assert len(raw) == 5
    chunk = next(iter(raw.chunks(0, 5)))
    assert isinstance(chunk, SpecPopulation)
    assert chunk.labels[0] == "die00000"
    assert np.isnan(chunk.f0_deviations).all()


def test_unseeded_fleet_is_one_fleet():
    """``seed=None`` draws root entropy once, at construction: the same
    range is the same dies on every call, and after pickling."""
    fleet = MonteCarloFleet(PAPER_BIQUAD, 8, sigma_f0=0.03, seed=None,
                            chunk_size=4)
    assert isinstance(fleet.seed, int)
    first = _collect(fleet.chunks(4, 8))
    np.testing.assert_array_equal(first[1], _collect(fleet.chunks(4, 8))[1])
    np.testing.assert_array_equal(
        first[1], _collect(pickle.loads(pickle.dumps(fleet)).chunks(4, 8))[1])
    np.testing.assert_array_equal(
        first[1], _collect(MonteCarloFleet(
            PAPER_BIQUAD, 8, sigma_f0=0.03, seed=fleet.seed,
            chunk_size=4).chunks(4, 8))[1])


def test_unseeded_stream_draws_one_root(monkeypatch):
    """Every chunk of one ``seed=None`` stream comes from the same root
    entropy (resolved once per call)."""
    from repro.campaign import scenarios

    resolved = []
    fixed_seed = scenarios.fixed_seed

    def recording(seed):
        resolved.append(fixed_seed(seed))
        return resolved[-1]

    monkeypatch.setattr(scenarios, "fixed_seed", recording)
    streamed = _collect(stream_montecarlo_dies(
        PAPER_BIQUAD, 12, chunk_size=4, sigma_f0=0.03, seed=None))
    [entropy] = resolved
    seeded = _collect(stream_montecarlo_dies(
        PAPER_BIQUAD, 12, chunk_size=12, sigma_f0=0.03, seed=entropy))
    np.testing.assert_array_equal(streamed[1], seeded[1])
    assert streamed[3] == seeded[3]
