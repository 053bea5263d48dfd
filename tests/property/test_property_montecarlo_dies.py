"""Monte Carlo dies: the array evaluation against numpy's per-die path.

Die ``i`` of seed ``s`` is defined by numpy's own per-die path:
``default_rng(SeedSequence(entropy=s, spawn_key=(i,)))``, drawing
``normal(0, sigma_f0)`` then ``normal(0, sigma_q)``, each only when its
sigma is positive, and the spec ``golden.with_f0_deviation(f)
.with_q_deviation(q)``.  The reference below spells that out with no
library code, and every builder must reproduce it bit for bit: seeds
below and beyond 128 bits of entropy, list seeds, index ranges that
straddle ``2**32`` (two-word spawn keys), any chunking and start.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign import (
    SpecPopulation,
    montecarlo_dies,
    scenarios,
    stream_montecarlo_dies,
)
from repro.filters.biquad import BiquadSpec, SpecSequence, spec_arrays
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet, PopulationFleet
from repro.shard.protocol import pack_payload, unpack_payload

TWO_32 = 2 ** 32

seeds = st.one_of(
    st.integers(0, 2 ** 64),
    st.integers(2 ** 128, 2 ** 260),
    st.lists(st.integers(0, 2 ** 80), min_size=1, max_size=6))
starts = st.one_of(st.integers(0, 600),
                   st.integers(TWO_32 - 40, TWO_32 + 40))
sigmas_f0 = st.sampled_from([0.0, 0.03, 0.1])
sigmas_q = st.sampled_from([0.0, 0.02])

#: ``(seed, start, count, sigma_f0, sigma_q)`` ranges of thousands of
#: dies, each of which redraws some dies through numpy's ``normal()``
#: (checked in ``test_large_ranges_redraw_some_dies``).
LARGE_RANGES = [
    (5, 0, 3000, 0.03, 0.02),
    (2 ** 200 + 7, TWO_32 - 1500, 3000, 0.05, 0.02),
    ([1, 2, 3], 100, 2000, 0.0, 0.02),
    (61, 10_000, 4096, 0.03, 0.0),
]


def large_range_examples(test):
    for seed, start, count, sigma_f0, sigma_q in LARGE_RANGES:
        test = example(seed=seed, start=start, count=count,
                       sigma_f0=sigma_f0, sigma_q=sigma_q)(test)
    return test


class Build:
    """Stands in for a ``population.build`` span: keeps what is set."""

    def set(self, **attributes):
        self.__dict__.update(attributes)
        return self


def array_draw(seed, lo, hi, sigma_f0, sigma_q):
    """The array evaluation's deviations and how many dies it redrew."""
    build = Build()
    devs = scenarios._array_deviations(seed, lo, hi, sigma_f0, sigma_q,
                                       build)
    return devs, build.redrawn


def reference(golden, seed, lo, hi, sigma_f0, sigma_q):
    """Specs, deviations and labels of dies ``lo..hi-1``, die by die."""
    entropy = np.random.SeedSequence(seed).entropy
    specs, f0_devs, q_devs = [], [], []
    for i in range(lo, hi):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=entropy, spawn_key=(i,)))
        f0 = rng.normal(0.0, sigma_f0) if sigma_f0 > 0 else 0.0
        q = rng.normal(0.0, sigma_q) if sigma_q > 0 else 0.0
        specs.append(golden.with_f0_deviation(f0).with_q_deviation(q))
        f0_devs.append(f0)
        q_devs.append(q)
    return (specs, np.array(f0_devs), np.array(q_devs),
            [f"die{i:05d}" for i in range(lo, hi)])


def assert_matches(population, expected):
    specs, f0_devs, q_devs, labels = expected
    assert population.f0_deviations.tobytes() == f0_devs.tobytes()
    assert population.q_deviations.tobytes() == q_devs.tobytes()
    assert population.labels == labels
    assert list(population.specs) == specs
    assert [population.specs[k] for k in range(len(specs))] == specs
    got, want = spec_arrays(population.specs), spec_arrays(specs)
    for name in ("omega0", "q", "gain", "kind"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    yield fresh
    set_default_registry(previous)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, start=starts, count=st.integers(0, 40),
       chunk=st.integers(1, 24), sigma_f0=sigmas_f0, sigma_q=sigmas_q)
def test_stream_chunks_match_numpy_per_die(seed, start, count, chunk,
                                           sigma_f0, sigma_q):
    chunks = list(stream_montecarlo_dies(
        PAPER_BIQUAD, start + count, chunk_size=chunk, sigma_f0=sigma_f0,
        sigma_q=sigma_q, seed=seed, start=start))
    assert [len(c) for c in chunks] == [
        min(chunk, start + count - lo)
        for lo in range(start, start + count, chunk)]
    assert_matches(SpecPopulation.concatenate(chunks),
                   reference(PAPER_BIQUAD, seed, start, start + count,
                             sigma_f0, sigma_q))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, start=starts, count=st.integers(1, 30),
       sigma_f0=sigmas_f0, sigma_q=sigmas_q)
@large_range_examples
def test_array_draw_equals_per_die_draw(seed, start, count, sigma_f0,
                                        sigma_q):
    """The array evaluation at every range size, below the
    small-range cut-over too."""
    args = (seed, start, start + count, sigma_f0, sigma_q)
    assert (scenarios._array_deviations(*args).tobytes()
            == scenarios._per_die_deviations(*args).tobytes())


@pytest.mark.parametrize("seed, start, count, sigma_f0, sigma_q",
                         LARGE_RANGES)
def test_large_ranges_redraw_some_dies(seed, start, count, sigma_f0,
                                       sigma_q):
    """The examples above reach the redraw branch, and a range's
    ``population.build`` span reports its redraws."""
    devs, redrawn = array_draw(seed, start, start + count, sigma_f0,
                               sigma_q)
    assert 0 < redrawn < count // 10
    tracer = Tracer()
    install_tracer(tracer)
    try:
        population = montecarlo_dies(PAPER_BIQUAD, count, sigma_f0,
                                     sigma_q, seed) if start == 0 \
            else MonteCarloFleet(PAPER_BIQUAD, start + count,
                                 sigma_f0=sigma_f0, sigma_q=sigma_q,
                                 seed=seed, chunk_size=count
                                 ).chunks(start, start + count)
        population = SpecPopulation.concatenate(
            [population] if start == 0 else list(population))
    finally:
        uninstall_tracer()
    (build,) = [r for r in tracer.records()
                if r.name == "population.build"]
    assert build.attributes["path"] == "arrays"
    assert build.attributes["redrawn"] == redrawn
    assert population.f0_deviations.tobytes() == devs[0].tobytes()
    assert population.q_deviations.tobytes() == devs[1].tobytes()


def test_a_layer_whose_probe_fails_is_always_redrawn(monkeypatch):
    """A ziggurat layer numpy's probe does not confirm is never
    accepted by the array path: every die with a draw in it is redrawn,
    and the range stays bit-identical."""
    layer, seed, lo, hi = 7, 5, 0, 3000
    _, before = array_draw(seed, lo, hi, 0.03, 0.02)
    # The layer's wi probe (magnitude 1) passes, its bound probe fails.
    first_try = scenarios._first_try_normal
    monkeypatch.setattr(
        scenarios, "_first_try_normal",
        lambda generator, word: None if word & 0xFF == layer
        and word >> 9 > 1 else first_try(generator, word))
    monkeypatch.setattr(scenarios, "_ziggurat_tables", None)
    limit = scenarios._ziggurat()[1]
    assert limit[layer] == limit[256 + layer] == 0 < limit[layer + 1]
    devs, redrawn = array_draw(seed, lo, hi, 0.03, 0.02)
    assert devs.tobytes() == \
        scenarios._per_die_deviations(seed, lo, hi, 0.03, 0.02).tobytes()
    # numpy's own first two words of each die (both sigmas draw).
    in_layer = sum(
        any(int(word) & 0xFF == layer for word in np.random.default_rng(
            child).bit_generator.random_raw(2))
        for child in scenarios.seed_children(seed, lo, hi))
    assert in_layer > 0
    assert in_layer <= redrawn <= before + in_layer


def test_concurrent_builds_match_the_per_die_path(monkeypatch):
    """Four threads build lots at once, from a cold process probe:
    each lot equals numpy's per-die draw, redraws included."""
    monkeypatch.setattr(scenarios, "_ziggurat_tables", None)
    monkeypatch.setattr(scenarios, "_arrays_agree", None)
    start = threading.Barrier(4)

    def build(thread):
        start.wait()
        return [montecarlo_dies(PAPER_BIQUAD, 300, 0.05, 0.02,
                                seed=100 * thread + lot)
                for lot in range(5)]

    with ThreadPoolExecutor(4) as pool:
        built = list(pool.map(build, range(4)))
    for thread, lots in enumerate(built):
        for lot, population in enumerate(lots):
            devs = scenarios._per_die_deviations(100 * thread + lot, 0,
                                                 300, 0.05, 0.02)
            assert population.f0_deviations.tobytes() == devs[0].tobytes()
            assert population.q_deviations.tobytes() == devs[1].tobytes()


def test_the_process_probe_covers_a_redraw():
    assert sum(array_draw(*probe, 0.03, 0.02)[1]
               for probe in scenarios._PROBES) > 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32), count=st.integers(0, 40),
       sigma_q=sigmas_q)
def test_montecarlo_dies_match_numpy_spawn(seed, count, sigma_q):
    expected = reference(PAPER_BIQUAD, seed, 0, count, 0.03, sigma_q)
    assert_matches(montecarlo_dies(PAPER_BIQUAD, count, 0.03, sigma_q,
                                   seed), expected)
    # SeedSequence.spawn numbers the same children.
    children = np.random.SeedSequence(seed).spawn(count)
    assert [np.random.default_rng(c).normal(0.0, 0.03)
            for c in children] == expected[1].tolist()


def test_fleet_chunks_match_numpy_per_die():
    fleet = MonteCarloFleet(PAPER_BIQUAD, TWO_32 + 30, sigma_f0=0.05,
                            sigma_q=0.02, seed=2 ** 140 + 3, chunk_size=16)
    chunks = list(fleet.chunks(TWO_32 - 25, TWO_32 + 30))
    assert_matches(SpecPopulation.concatenate(chunks),
                   reference(PAPER_BIQUAD, 2 ** 140 + 3, TWO_32 - 25,
                             TWO_32 + 30, 0.05, 0.02))


def test_probe_mismatch_falls_back_to_per_die(monkeypatch, registry):
    per_die = scenarios._per_die_deviations
    monkeypatch.setattr(scenarios, "_array_deviations",
                        lambda *args: per_die(*args) * 1.5)
    monkeypatch.setattr(scenarios, "_arrays_agree", None)
    population = montecarlo_dies(PAPER_BIQUAD, 40, sigma_f0=0.03,
                                 sigma_q=0.02, seed=5)
    assert scenarios._arrays_agree is False
    assert registry.counter("montecarlo_fallback_dies_total").value == 40
    assert_matches(population, reference(PAPER_BIQUAD, 5, 0, 40, 0.03,
                                         0.02))
    # Ranges below the array cut-over draw per die anyway: not counted.
    montecarlo_dies(PAPER_BIQUAD, scenarios.ARRAY_MIN_DIES - 1, seed=5)
    assert registry.counter("montecarlo_fallback_dies_total").value == 40


def test_probe_failure_that_raises_falls_back(monkeypatch, registry):
    def broken(*args):
        raise KeyError("state")

    monkeypatch.setattr(scenarios, "_array_deviations", broken)
    monkeypatch.setattr(scenarios, "_arrays_agree", None)
    population = montecarlo_dies(PAPER_BIQUAD, 20, seed=9)
    assert registry.counter("montecarlo_fallback_dies_total").value == 20
    assert_matches(population, reference(PAPER_BIQUAD, 9, 0, 20, 0.03,
                                         0.0))


def test_array_draws_count_zero_fallbacks(registry):
    montecarlo_dies(PAPER_BIQUAD, 64, seed=1)
    assert scenarios._array_draws_agree()
    assert registry.counter("montecarlo_fallback_dies_total").value == 0
    assert "repro_montecarlo_fallback_dies_total 0" in registry.render()


@pytest.mark.parametrize("count", [1, 200])
@pytest.mark.parametrize("sigmas", [(0.6, 0.0), (0.0, 0.6)],
                         ids=["f0", "q"])
def test_invalid_die_raises_the_spec_error(count, sigmas):
    """A deviation <= -1 fails the build with with_f0_deviation's or
    with_q_deviation's own error, as a die-by-die build does."""
    sigma_f0, sigma_q = sigmas
    seed = next(s for s in range(10_000) if any(
        d <= -1.0 for d in reference_devs(s, count, sigma_f0, sigma_q)))
    with pytest.raises(ValueError) as expected:
        reference(PAPER_BIQUAD, seed, 0, count, sigma_f0, sigma_q)
    with pytest.raises(ValueError) as got:
        montecarlo_dies(PAPER_BIQUAD, count, sigma_f0, sigma_q, seed)
    assert str(got.value) == str(expected.value)


def reference_devs(seed, count, sigma_f0, sigma_q):
    devs = scenarios._per_die_deviations(seed, 0, count, sigma_f0, sigma_q)
    return devs[0 if sigma_f0 > 0 else 1].tolist()


def test_lazy_specs_behave_like_a_spec_list():
    population = montecarlo_dies(PAPER_BIQUAD, 12, sigma_f0=0.05,
                                 sigma_q=0.02, seed=4)
    specs = population.specs
    assert isinstance(specs, SpecSequence)
    eager = reference(PAPER_BIQUAD, 4, 0, 12, 0.05, 0.02)[0]
    assert len(specs) == 12
    assert specs[0] == eager[0] and specs[-1] == eager[-1]
    assert specs[np.int64(3)] == eager[3]
    assert isinstance(specs[3], BiquadSpec)
    with pytest.raises(IndexError):
        specs[12]
    assert isinstance(specs[2:7], SpecSequence)
    assert list(specs[2:7]) == eager[2:7]
    assert list(specs[::-3]) == eager[::-3]
    assert [s for s in specs] == eager
    assert specs == eager and specs == tuple(eager)
    assert specs == SpecSequence.from_specs(eager)
    assert specs != eager[:-1]
    assert specs[:6] + specs[6:] == specs
    assert eager[5] in specs and specs.index(eager[5]) == 5
    sliced = population[3:9]
    assert list(sliced.specs) == eager[3:9]
    assert sliced.labels == population.labels[3:9]
    assert np.array_equal(sliced.f0_deviations,
                          population.f0_deviations[3:9])
    with pytest.raises(TypeError):
        population[3]


def test_population_pickles_through_pack_payload():
    population = montecarlo_dies(PAPER_BIQUAD, 30, sigma_f0=0.05,
                                 sigma_q=0.02, seed=6)
    for obj in (population, population[7:19],
                PopulationFleet(population, chunk_size=8)):
        back = unpack_payload(pack_payload(obj))
        pop = back.population if isinstance(back, PopulationFleet) else back
        original = obj.population if isinstance(obj, PopulationFleet) \
            else obj
        assert pop.specs == original.specs
        assert pop.labels == original.labels
        assert pop.f0_deviations.tobytes() == \
            original.f0_deviations.tobytes()
        assert pop.q_deviations.tobytes() == \
            original.q_deviations.tobytes()


def test_spec_lists_and_arrays_share_one_slicing_rule():
    specs = [BiquadSpec(11e3, 1.0, gain=5.0), PAPER_BIQUAD,
             BiquadSpec(14e3, 2.0, gain=2)]
    built = SpecPopulation(specs, np.zeros(3), np.zeros(3),
                           ["a", "b", "c"])
    dies = montecarlo_dies(PAPER_BIQUAD, 5, seed=2)
    joined = SpecPopulation.concatenate([built, dies, built[1:]])
    assert list(joined.specs) == specs + list(dies.specs) + specs[1:]
    assert joined.labels == ["a", "b", "c"] + dies.labels + ["b", "c"]
    assert len(SpecPopulation.concatenate([])) == 0
    fleet = PopulationFleet(joined, chunk_size=4)
    rechunked = SpecPopulation.concatenate(list(fleet.chunks(2, 9)))
    assert list(rechunked.specs) == list(joined.specs)[2:9]
    assert rechunked.labels == joined.labels[2:9]
