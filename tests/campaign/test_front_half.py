"""Front-half kernels: batched synthesis and fused encoding parity.

Every kernel introduced by the array-resident front half is pinned to
its per-die reference bit for bit:

* :func:`batch_transfer` vs scalar ``BiquadFilter.transfer`` (all three
  response kinds, including DC);
* :func:`batch_biquad_traces` vs the per-die ``response()`` +
  :func:`batch_multitone_eval` flow;
* :func:`batch_netlist_traces` vs per-cut netlist responses, and
  :func:`cut_traces` vs the per-cut ``response()`` stack;
* the fused :func:`monitor_bank_codes` vs ``encoder.code`` and the
  retained PR 2 reference loop -- including hypothesis-driven random
  traces and Monte Carlo-varied banks;
* engine NDFs for every population kind vs the refine-off
  :class:`SignatureTester` per-die loop -- including populations large
  enough for the certified front half.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignEngine,
    CutListPopulation,
    GoldenCache,
    SpecPopulation,
    batch_biquad_traces,
    batch_multitone_eval,
    batch_netlist_traces,
    deviation_sweep_population,
    fault_dictionary,
    montecarlo_dies,
    montecarlo_monitor_banks,
    parameter_grid,
    temperature_corners,
)
from repro.campaign.batch import cut_traces
from repro.campaign.engine import CERTIFIED_MIN_ROWS
from repro.core.testflow import SignatureTester
from repro.core.zones import ZoneEncoder
from repro.devices.process import MonteCarloSampler
from repro.filters.biquad import (
    BiquadFilter,
    BiquadKind,
    BiquadSpec,
    batch_transfer,
)
from repro.filters.towthomas import TowThomasValues
from repro.monitor.bank_encode import (
    monitor_bank_codes,
    monitor_bank_codes_reference,
)
from repro.monitor.configurations import table1_bank, table1_encoder
from repro.monitor.montecarlo import bank_samples
from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def engine():
    return CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES,
                                     cache=GoldenCache())


def _mixed_specs(count=40, seed=11):
    rng = np.random.default_rng(seed)
    specs = []
    for kind in (BiquadKind.LOWPASS, BiquadKind.BANDPASS,
                 BiquadKind.HIGHPASS):
        for __ in range(count // 3):
            specs.append(BiquadSpec(
                f0_hz=float(rng.uniform(2e3, 40e3)),
                q=float(rng.uniform(0.4, 4.0)),
                gain=float(rng.uniform(0.2, 2.5)),
                kind=kind))
    return specs


# ----------------------------------------------------------------------
# Transfer + trace synthesis
# ----------------------------------------------------------------------
def test_batch_transfer_bit_identical_to_scalar():
    """Vectorized H must equal Python-complex transfer() exactly."""
    specs = _mixed_specs()
    for freq in (0.0, 5e3, 11e3, 15e3, 123456.789):
        h_re, h_im = batch_transfer(specs, freq)
        for i, spec in enumerate(specs):
            h = BiquadFilter(spec).transfer(freq)
            assert h.real == h_re[i] and h.imag == h_im[i], \
                (spec, freq)


def test_batch_transfer_groups_mixed_kinds():
    specs = _mixed_specs(30)
    h_re, h_im = batch_transfer(specs, 7e3)
    by_kind = {}
    for kind in set(s.kind for s in specs):
        idx = [i for i, s in enumerate(specs) if s.kind is kind]
        sub_re, sub_im = batch_transfer([specs[i] for i in idx], 7e3)
        by_kind[kind] = (idx, sub_re, sub_im)
    for idx, sub_re, sub_im in by_kind.values():
        assert np.array_equal(h_re[idx], sub_re)
        assert np.array_equal(h_im[idx], sub_im)


def test_batch_biquad_traces_bit_identical_to_per_die(engine):
    """Object-free synthesis == per-die response() + multitone eval."""
    golden = engine.golden()
    population = montecarlo_dies(PAPER_BIQUAD, 24, sigma_f0=0.05,
                                 sigma_q=0.1, seed=3)
    fused = batch_biquad_traces(population.specs, PAPER_STIMULUS,
                                golden.times)
    responses = [BiquadFilter(s).response(PAPER_STIMULUS)
                 for s in population.specs]
    reference = batch_multitone_eval(responses, golden.times)
    assert np.array_equal(fused, reference)


def test_batch_biquad_traces_all_kinds(engine):
    """Band-pass/high-pass populations synthesize exactly too."""
    golden = engine.golden()
    specs = _mixed_specs(24, seed=5)
    fused = batch_biquad_traces(specs, PAPER_STIMULUS, golden.times)
    responses = [BiquadFilter(s).response(PAPER_STIMULUS) for s in specs]
    reference = batch_multitone_eval(responses, golden.times)
    assert np.array_equal(fused, reference)


def test_batch_biquad_traces_empty(engine):
    golden = engine.golden()
    out = batch_biquad_traces([], PAPER_STIMULUS, golden.times)
    assert out.shape == (0, golden.times.size)


def test_batch_netlist_traces_bit_identical(engine):
    """Stacked MNA synthesis == per-cut netlist response loop."""
    golden = engine.golden()
    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    fused = batch_netlist_traces(population.cuts, PAPER_STIMULUS,
                                 golden.times)
    assert fused is not None
    responses = [cut.response(PAPER_STIMULUS) for cut in population.cuts]
    reference = batch_multitone_eval(responses, golden.times)
    assert np.array_equal(fused, reference)


def test_batch_netlist_traces_rejects_non_netlist(engine):
    golden = engine.golden()
    cuts = [BiquadFilter(PAPER_BIQUAD)]
    assert batch_netlist_traces(cuts, PAPER_STIMULUS,
                                golden.times) is None


def test_cut_traces_matches_per_cut_responses(engine):
    """Behavioural cuts stack their own response() traces, and match
    the closed-form synthesis of the same specs bit for bit."""
    golden = engine.golden()
    specs = _mixed_specs(24, seed=7)
    cuts = [BiquadFilter(spec) for spec in specs]
    responses = [cut.response(PAPER_STIMULUS) for cut in cuts]
    reference = batch_multitone_eval(responses, golden.times)
    stacked = cut_traces(cuts, PAPER_STIMULUS, golden.times)
    assert np.array_equal(stacked, reference)
    assert np.array_equal(
        stacked, batch_biquad_traces(specs, PAPER_STIMULUS, golden.times))


class _LissajousOnlyCut:
    """A CUT that offers a Lissajous trace but no ``response()``."""

    def __init__(self, spec):
        self._filter = BiquadFilter(spec)

    def lissajous(self, stimulus, samples_per_period):
        return self._filter.lissajous(stimulus, samples_per_period)


def test_cut_list_without_response_names_signature_tester(engine):
    population = CutListPopulation(
        [BiquadFilter(PAPER_BIQUAD), _LissajousOnlyCut(PAPER_BIQUAD)],
        ["behavioural", "lissajous-only"])
    with pytest.raises(TypeError, match="SignatureTester"):
        engine.run(population, band=None)


# ----------------------------------------------------------------------
# Fused bank encoding
# ----------------------------------------------------------------------
def _paper_trace_stack(engine, n=8, seed=2):
    golden = engine.golden()
    population = montecarlo_dies(PAPER_BIQUAD, n, sigma_f0=0.06,
                                 seed=seed)
    y = batch_biquad_traces(population.specs, PAPER_STIMULUS,
                            golden.times)
    return golden.x, np.array(y)


def test_fused_codes_match_reference_and_generic(engine):
    encoder = table1_encoder()
    x, y = _paper_trace_stack(engine)
    fused = monitor_bank_codes(encoder, x, y)
    reference = monitor_bank_codes_reference(encoder, x, y)
    generic = encoder.code(np.broadcast_to(x, y.shape), y)
    assert np.array_equal(fused, reference)
    assert np.array_equal(fused, generic)
    assert fused.dtype == np.int64


def test_fused_codes_2d_x_stack(engine):
    """The noisy-capture path hands a full (N, T) X stack."""
    encoder = table1_encoder()
    x, y = _paper_trace_stack(engine, n=6)
    rng = np.random.default_rng(0)
    x2 = np.broadcast_to(x, y.shape) + rng.normal(0.0, 0.01, y.shape)
    fused = monitor_bank_codes(encoder, x2, y)
    reference = monitor_bank_codes_reference(encoder, x2, y)
    assert np.array_equal(fused, reference)
    assert np.array_equal(fused, encoder.code(x2, y))


def test_fused_codes_montecarlo_varied_bank(engine):
    """Per-device model cards get private cache slots, never shared."""
    x, y = _paper_trace_stack(engine, n=5, seed=9)
    varied = bank_samples(table1_bank(), MonteCarloSampler(rng=4), 3)
    for bank in varied:
        encoder = ZoneEncoder(bank)
        fused = monitor_bank_codes(encoder, x, y)
        assert np.array_equal(fused,
                              encoder.code(np.broadcast_to(x, y.shape),
                                           y))


def test_fused_codes_single_row(engine):
    encoder = table1_encoder()
    x, y = _paper_trace_stack(engine, n=1)
    fused = monitor_bank_codes(encoder, x, y)
    assert np.array_equal(fused, encoder.code(np.broadcast_to(x, y.shape),
                                              y))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.floats(0.2, 3.0))
def test_fused_codes_random_traces_hypothesis(seed, rows, span):
    """Random point clouds (including boundary-straddling values)."""
    rng = np.random.default_rng(seed)
    encoder = table1_encoder()
    x = rng.uniform(-0.2, span, 64)
    y = rng.uniform(-0.2, span, (rows, 64))
    fused = monitor_bank_codes(encoder, x, y)
    reference = monitor_bank_codes_reference(encoder, x, y)
    generic = encoder.code(np.broadcast_to(x, y.shape), y)
    assert np.array_equal(fused, reference)
    assert np.array_equal(fused, generic)


# ----------------------------------------------------------------------
# Engine equivalence across population kinds
# ----------------------------------------------------------------------
def _per_die_reference(engine, cuts):
    tester = SignatureTester(engine.config.encoder, PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)
    return np.asarray([tester.ndf_of(cut) for cut in cuts])


def _mixed_population(count=96, seed=31):
    specs = _mixed_specs(count, seed)
    n = len(specs)
    return SpecPopulation(specs, np.zeros(n), np.zeros(n),
                          [f"mixed{i}" for i in range(n)])


#: Populations of at least ``CERTIFIED_MIN_ROWS`` dies: their chunks
#: take the certified front half, held to the same per-die contract.
LARGE_POPULATIONS = {
    "montecarlo-96": lambda: montecarlo_dies(PAPER_BIQUAD, 96,
                                             sigma_f0=0.04, seed=22),
    "sweep-72": lambda: deviation_sweep_population(
        PAPER_BIQUAD, np.linspace(-0.15, 0.15, 72)),
    "grid-72": lambda: parameter_grid(PAPER_BIQUAD,
                                      np.linspace(-0.08, 0.08, 9),
                                      np.linspace(-0.2, 0.2, 8)),
    "mixed-kinds-96": _mixed_population,
}


@pytest.mark.parametrize("population_factory", [
    lambda: montecarlo_dies(PAPER_BIQUAD, 10, sigma_f0=0.04, seed=21),
    lambda: deviation_sweep_population(PAPER_BIQUAD,
                                       [-0.12, -0.04, 0.04, 0.12]),
    lambda: parameter_grid(PAPER_BIQUAD, [-0.05, 0.05], [-0.1, 0.1]),
    *LARGE_POPULATIONS.values(),
], ids=["montecarlo", "sweep", "grid", *LARGE_POPULATIONS])
def test_spec_population_kinds_bit_identical(engine, population_factory):
    population = population_factory()
    result = engine.run(population, band=None)
    reference = _per_die_reference(
        engine, [BiquadFilter(s) for s in population.specs])
    assert np.array_equal(result.ndfs, reference)


@pytest.mark.parametrize("name", list(LARGE_POPULATIONS))
def test_large_populations_take_certified_path(engine, name):
    """The large cases above really exercise the certified front half."""
    population = LARGE_POPULATIONS[name]()
    assert len(population) >= CERTIFIED_MIN_ROWS
    with tracing() as tracer:
        engine.run(population, band=None)
    paths = {r.attributes.get("path") for r in tracer.records()
             if r.name == "stage.traces"}
    assert "certified" in paths


def test_fault_population_bit_identical(engine):
    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    result = engine.run(population, band=None)
    reference = _per_die_reference(engine, population.cuts)
    assert np.array_equal(result.ndfs, reference)


def test_mixed_cut_population_falls_back(engine):
    """Netlist + behavioural cuts in one list: per-cut path, same NDFs."""
    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    netlist_pop, __ = fault_dictionary(values)
    cuts = [netlist_pop.cuts[0], BiquadFilter(
        PAPER_BIQUAD.with_f0_deviation(0.08))]
    population = CutListPopulation(cuts, ["fault", "behavioural"])
    result = engine.run(population, band=None)
    reference = _per_die_reference(engine, cuts)
    assert np.array_equal(result.ndfs, reference)


def test_encoder_population_kinds_still_run(engine):
    """Monitor-MC and corner banks keep their nonzero-margin NDFs."""
    mc = engine.run(montecarlo_monitor_banks(table1_bank(), 3, seed=2),
                    band=None)
    corners = engine.run(temperature_corners([248.15, 398.15]),
                         band=None)
    assert mc.ndfs.shape == (3,)
    assert corners.ndfs.shape == (2,)
    assert np.all(np.isfinite(mc.ndfs))
    assert np.all(np.isfinite(corners.ndfs))
