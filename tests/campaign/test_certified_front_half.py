"""The certified front half: threshold tables, trace bound, routing.

The fast front half (basis-synthesized traces encoded against
per-column y thresholds) is only allowed to *decide* codes it can
prove; everything else is recomputed on the exact kernels.  These
tests attack the proof rather than the happy path:

* samples driven onto every threshold, ulp by ulp across the band and
  past both of its edges, and onto the window edges: certified codes
  equal ``encoder.code`` and exactly the driven dies fall back;
* the trace bound ``eps`` holds on random low-, band- and high-pass
  specs and mixed-kind chunks;
* routing: banks the table rule excludes, per-die Monte-Carlo banks,
  2-D ``x`` stacks, trace rows and small chunks keep the exact kernel;
* tables are cached under the bank's exact kernel inputs: banks a
  rounding apart never share one;
* the ``front_half_fallback_rows_total`` counter (in the process that
  owns the campaign, whatever the executor) and the ``fallback_rows``
  span attribute count the recomputed dies.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.straight_zoning import (
    fitted_line_encoder,
    grid_line_encoder,
)
from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    ProcessPoolExecutor,
    SharedMemoryExecutor,
    SpecPopulation,
    batch_biquad_traces,
    montecarlo_dies,
    montecarlo_monitor_banks,
    trace_population,
)
from repro.campaign import engine as engine_module
from repro.campaign.cache import encoder_key
from repro.campaign.checkpoint import StreamCheckpoint
from repro.campaign.engine import CERTIFIED_MIN_ROWS
from repro.campaign.batch import (
    certified_spec_codes,
    sample_times,
    spec_trace_coefficients,
    trace_basis,
)
from repro.core.testflow import SignatureTester
from repro.core.zones import ZoneEncoder
from repro.filters.biquad import BiquadFilter, BiquadKind, BiquadSpec
from repro.monitor.bank_encode import (
    TABLE_WINDOW,
    _from_keys,
    _to_keys,
    block_rows,
    build_threshold_table,
    kernel_key,
    monitor_bank_codes,
)
from repro.monitor.comparator import MonitorBoundary, MonitorConfig
from repro.monitor.configurations import table1_bank, table1_encoder
from repro.monitor.second_signature import second_signature_bank
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.trace import tracing
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.store import ArtifactStore

pytestmark = pytest.mark.campaign

SAMPLES = 256


@pytest.fixture(scope="module")
def grid():
    times = sample_times(PAPER_STIMULUS.period(), SAMPLES)
    x = np.asarray(PAPER_STIMULUS(times), dtype=float)
    golden = batch_biquad_traces([PAPER_BIQUAD], PAPER_STIMULUS, times)[0]
    return times, x, golden.copy()


@pytest.fixture(scope="module")
def table(grid):
    __, x, __g = grid
    built = build_threshold_table(table1_encoder(), x)
    assert built is not None
    return built


def _reference_codes(encoder, x, y):
    return encoder.code(np.broadcast_to(x, y.shape), y)


def _table_codes(table, rows, eps=0.0):
    """``encode_block`` over ``rows``: (codes, per-row certified)."""
    out = np.empty(rows.shape, dtype=np.uint8)
    certified = table.encode_block(rows, table.bands(eps), out)
    return out, certified


def _in_any_band(table, eps, j, value):
    lo, hi, y_min, y_max = table.bands(eps)
    inside = np.any((lo[:, j] <= value) & (value <= hi[:, j]))
    return bool(inside or not (y_min <= value <= y_max))


# ----------------------------------------------------------------------
# The certificate, driven onto its boundaries
# ----------------------------------------------------------------------
def test_table_shape_and_window(table, grid):
    __, x, golden = grid
    assert table.thresholds.shape == (6, SAMPLES)
    assert table.window == TABLE_WINDOW
    finite = np.isfinite(table.thresholds)
    assert finite.any()
    # Every finite threshold sits inside its own band, bands are thin.
    assert np.all(table.lower[finite] < table.thresholds[finite])
    assert np.all(table.thresholds[finite] < table.upper[finite])
    assert np.all(table.upper[finite] - table.lower[finite] < 1e-9)
    # No-flip columns carry +-inf in all three planes.
    assert np.array_equal(np.isinf(table.lower), ~finite)
    # The golden trace itself is certified.
    codes, certified = _table_codes(table, golden[None, :])
    assert certified.all()
    assert np.array_equal(codes[0], _reference_codes(
        table1_encoder(), x, golden[None, :])[0])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_samples_driven_across_every_band(table, grid, data):
    """Drive one sample per die onto a threshold, k ulps at a time.

    Each die is the golden trace with sample ``j`` moved to ``t_bj + k``
    ulps, for every ``k`` from beyond the band's lower edge to beyond
    its upper edge (for the rare bands over 1000 ulps wide: every
    ``k`` within 150 ulps of either edge and of ``t_bj``).  Certified
    rows must carry ``encoder.code``, and the fallback set must be
    exactly the dies whose driven sample lies in a band of its column
    (the certificate's own planes).
    """
    __, x, golden = grid
    encoder = table1_encoder()
    finite = np.argwhere(np.isfinite(table.thresholds))
    b, j = finite[data.draw(st.integers(0, len(finite) - 1))]
    eps = data.draw(st.sampled_from([0.0, 1e-15, 3e-14]))
    t_key = int(_to_keys(table.thresholds[b, j]))
    lo, hi, __, __ = table.bands(eps)
    lo_off = int(_to_keys(lo[b, j])) - t_key
    hi_off = int(_to_keys(hi[b, j])) - t_key
    if hi_off - lo_off <= 1000:
        offsets = np.arange(lo_off - 3, hi_off + 4)
    else:  # a wide band: every k around both edges and the threshold
        offsets = np.unique(np.concatenate(
            [np.arange(centre - 150, centre + 151)
             for centre in (lo_off, 0, hi_off)]))
    rows = np.repeat(golden[None, :], offsets.size, axis=0)
    rows[:, j] = _from_keys(t_key + offsets)

    out, certified = _table_codes(table, rows, eps)
    reference = _reference_codes(encoder, x, rows)
    assert np.array_equal(out[certified], reference[certified])
    expected_fallback = np.array(
        [_in_any_band(table, eps, j, value) for value in rows[:, j]])
    assert np.array_equal(~certified, expected_fallback)
    # The drive crossed the band: some dies certify, some fall back.
    assert certified.any() and not certified.all()


@settings(max_examples=10, deadline=None)
@given(column=st.integers(0, SAMPLES - 1),
       edge=st.sampled_from([0, 1]), eps=st.sampled_from([0.0, 2e-15]))
def test_window_edges(table, grid, column, edge, eps):
    """Samples at and around the window edges: outside -> fallback."""
    __, x, golden = grid
    encoder = table1_encoder()
    bound = TABLE_WINDOW[edge]
    offsets = np.arange(-40, 41)
    rows = np.repeat(golden[None, :], offsets.size, axis=0)
    rows[:, column] = _from_keys(int(_to_keys(bound)) + offsets)
    out, certified = _table_codes(table, rows, eps)
    expected = [i for i, value in enumerate(rows[:, column])
                if _in_any_band(table, eps, column, value)]
    assert np.flatnonzero(~certified).tolist() == expected
    assert expected  # the far side of the edge always falls back
    reference = _reference_codes(encoder, x, rows)
    assert np.array_equal(out[certified], reference[certified])


def test_nan_rows_fall_back(table, grid):
    __, __x, golden = grid
    rows = np.repeat(golden[None, :], 3, axis=0)
    rows[1, 7] = np.nan
    __, certified = _table_codes(table, rows)
    assert np.flatnonzero(~certified).tolist() == [1]


# ----------------------------------------------------------------------
# The trace bound
# ----------------------------------------------------------------------
_KINDS = st.sampled_from(list(BiquadKind))


@st.composite
def _spec_lists(draw, mixed):
    kind = draw(_KINDS)
    count = draw(st.integers(1, 12))
    return [BiquadSpec(
        f0_hz=draw(st.floats(500.0, 200e3)),
        q=draw(st.floats(0.2, 20.0)),
        gain=draw(st.floats(0.05, 4.0)),
        kind=draw(_KINDS) if mixed else kind) for __ in range(count)]


@settings(max_examples=40, deadline=None)
@given(specs=st.one_of(_spec_lists(False), _spec_lists(True)),
       samples=st.sampled_from([64, 256, 1000]))
def test_trace_error_bound_holds(specs, samples):
    times = sample_times(PAPER_STIMULUS.period(), samples)
    basis = trace_basis(PAPER_STIMULUS, times)
    coef, eps = spec_trace_coefficients(specs, PAPER_STIMULUS, basis)
    fast = coef @ basis.matrix
    exact = batch_biquad_traces(specs, PAPER_STIMULUS, times)
    observed = np.max(np.abs(fast - exact), axis=1)
    assert np.all(observed <= eps)
    assert np.all(eps < 1e-12)


def test_certified_spec_codes_equal_exact_mixed_kinds(grid):
    """Mixed-kind chunk, two channels, row blocks and out-of-window dies."""
    times, x, __ = grid
    rng = np.random.default_rng(5)
    specs = [BiquadSpec(f0_hz=float(rng.uniform(2e3, 40e3)),
                        q=float(rng.uniform(0.4, 4.0)),
                        gain=float(rng.uniform(0.2, 2.5)), kind=kind)
             for kind in BiquadKind for __ in range(70)]
    specs.append(BiquadSpec(11e3, 1.0, gain=5.0))  # leaves the window
    encoders = [table1_encoder(), ZoneEncoder(table1_bank()[::-1])]
    tables = [build_threshold_table(e, x) for e in encoders]
    assert all(t is not None for t in tables)
    assert len(specs) > block_rows(SAMPLES)
    planes, fallback = certified_spec_codes(
        specs, PAPER_STIMULUS, times, x, encoders, tables,
        trace_basis(PAPER_STIMULUS, times))
    exact = batch_biquad_traces(specs, PAPER_STIMULUS, times)
    for encoder, plane in zip(encoders, planes):
        assert plane.dtype == np.uint8
        assert np.array_equal(plane, monitor_bank_codes(encoder, x, exact))
    assert len(specs) - 1 in fallback.tolist()


# ----------------------------------------------------------------------
# Routing: what keeps the exact kernel
# ----------------------------------------------------------------------
def test_table_rule_excludes_straight_zoning_and_two_sided_banks(grid):
    __, x, __ = grid
    assert build_threshold_table(grid_line_encoder(), x) is None
    assert build_threshold_table(
        fitted_line_encoder(table1_bank()), x) is None
    two_sided = MonitorBoundary(MonitorConfig(
        (1800.0, 1800.0, 1800.0, 1800.0), ("y", "x", "y", 0.3)))
    assert build_threshold_table(ZoneEncoder([two_sided]), x) is None
    # 2-D x (noisy captures) never gets a table.
    assert build_threshold_table(table1_encoder(),
                                 np.vstack([x, x])) is None


@pytest.fixture
def exact_only(monkeypatch):
    """Make any use of the certified path fail loudly."""
    def refuse(*args, **kwargs):
        raise AssertionError("certified path used")

    monkeypatch.setattr(engine_module, "_zone_tables", refuse)
    monkeypatch.setattr(engine_module, "certified_spec_codes", refuse)


def test_montecarlo_bank_population_takes_exact_path(exact_only):
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    banks = montecarlo_monitor_banks(table1_bank(), 4, seed=2)
    result = engine.run(banks, band=0.05)
    assert result.ndfs.shape == (4,)


def test_noise_campaign_two_d_x_takes_exact_path(exact_only):
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    dies = montecarlo_dies(PAPER_BIQUAD, 3, sigma_f0=0.03, seed=4)
    result = engine.run_noise(dies, repeats=2, seed=1, band=0.05)
    assert result.ndf_matrix.shape == (3, 2)


def test_small_stacks_take_exact_path(monkeypatch):
    """Below CERTIFIED_MIN_ROWS the exact kernels run (no table build)."""
    def refuse(*args, **kwargs):
        raise AssertionError("certified path used")

    monkeypatch.setattr(engine_module, "build_threshold_table", refuse)
    monkeypatch.setattr(engine_module, "certified_spec_codes", refuse)
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES + 8,
                                       cache=GoldenCache())
    dies = montecarlo_dies(PAPER_BIQUAD, CERTIFIED_MIN_ROWS - 1,
                           sigma_f0=0.03, seed=3)
    assert engine.run(dies, band="auto").ndfs.shape == (len(dies),)


def test_non_monitor_bank_campaign_matches_exact(grid):
    """A bank without a table runs the exact front half end to end."""
    engine = CampaignEngine.from_parts(grid_line_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    dies = montecarlo_dies(PAPER_BIQUAD, CERTIFIED_MIN_ROWS + 6,
                           sigma_f0=0.05, seed=6)
    golden = engine.golden()
    y = batch_biquad_traces(dies.specs, PAPER_STIMULUS, golden.times)
    expected = engine.run(trace_population(y), band=None).ndfs
    assert np.array_equal(engine.run(dies, band=None).ndfs, expected)


def test_trace_rows_take_exact_path(exact_only):
    """Measured trace stacks encode exactly, however many rows."""
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    dies = montecarlo_dies(PAPER_BIQUAD, CERTIFIED_MIN_ROWS + 6,
                           sigma_f0=0.05, seed=6)
    y = batch_biquad_traces(dies.specs, PAPER_STIMULUS,
                            engine.golden().times)
    assert engine.run(trace_population(y), band=None).ndfs.shape == \
        (len(dies),)


# ----------------------------------------------------------------------
# Table cache keys
# ----------------------------------------------------------------------
def _nudged_encoder(relative):
    """Table I with curve 1's M1 width -- so its unit current -- nudged."""
    bank = table1_bank()
    first = bank[0]
    widths = list(first.config.widths_nm)
    widths[0] *= 1.0 + relative
    bank[0] = MonitorBoundary(
        dataclasses.replace(first.config, widths_nm=tuple(widths)),
        params=first.devices[0].params)
    return ZoneEncoder(bank)


def test_banks_a_rounding_apart_never_share_a_table(grid):
    """Tables key on the exact kernel inputs, not the rounded fingerprint.

    A 1e-12 relative nudge of one device's unit current leaves the
    golden cache's fingerprint unchanged but moves that boundary's
    thresholds by several band widths: one bank's table would encode
    the other's traces wrongly, with nothing to detect it.
    """
    __, x, golden = grid
    base = table1_encoder()
    nudged = _nudged_encoder(1e-12)
    assert kernel_key(_nudged_encoder(0.0)) == kernel_key(base)
    assert kernel_key(nudged) != kernel_key(base)
    assert encoder_key(nudged) == encoder_key(base)  # the lossy key

    # Sharing would misencode: a sample between the two thresholds is
    # certified by the base table with a code the nudged bank's exact
    # kernel does not give.
    base_table = build_threshold_table(base, x)
    nudged_table = build_threshold_table(nudged, x)
    gap = np.abs(base_table.thresholds[0] - nudged_table.thresholds[0])
    gap = np.where(np.isfinite(gap), gap, 0.0)
    j = int(np.argmax(gap))
    assert gap[j] > 2.0 * (base_table.upper[0, j] - base_table.lower[0, j])
    row = golden[None, :].copy()
    row[0, j] = 0.5 * (base_table.thresholds[0, j]
                       + nudged_table.thresholds[0, j])
    codes, certified = _table_codes(base_table, row)
    assert certified.all()
    assert codes[0, j] != monitor_bank_codes(nudged, x, row)[0, j]

    # In the engine the two banks get two tables from the process-wide
    # cache, each the one built for its own bank.
    dies = montecarlo_dies(PAPER_BIQUAD, CERTIFIED_MIN_ROWS,
                           sigma_f0=0.03, seed=12)
    tables = []
    for encoder in (base, nudged):
        engine = CampaignEngine.from_parts(encoder, PAPER_STIMULUS,
                                           PAPER_BIQUAD,
                                           samples_per_period=SAMPLES,
                                           cache=GoldenCache())
        result = engine.run(dies, band=None)
        assert np.array_equal(result.ndfs,
                              _per_die_ndfs(dies.specs, encoder))
        tables.append(engine_module._zone_tables(
            engine.config, engine.golden(), len(dies))[0])
    assert tables[0] is not tables[1]
    assert np.array_equal(tables[1].thresholds, nudged_table.thresholds)


# ----------------------------------------------------------------------
# Counting the wasted work
# ----------------------------------------------------------------------
#: Two dies whose traces leave the table window: always recomputed.
LOUD = [BiquadSpec(11e3, 1.0, gain=5.0), BiquadSpec(9e3, 0.8, 4.5)]


def _per_die_ndfs(specs, encoder=None):
    """Refine-off per-die SignatureTester NDFs (the exact reference)."""
    tester = SignatureTester(encoder or table1_encoder(), PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=SAMPLES, refine=False)
    return np.asarray([tester.ndf_of(BiquadFilter(spec))
                       for spec in specs])


def _lot_with_loud_dies(count, seed):
    dies = montecarlo_dies(PAPER_BIQUAD, count, sigma_f0=0.03, seed=seed)
    specs = list(dies.specs) + LOUD
    n = len(specs)
    return SpecPopulation(specs, np.zeros(n), np.zeros(n),
                          [f"die{i}" for i in range(n)])


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    yield fresh
    set_default_registry(previous)


def _fallback_total(registry):
    return registry.counter("front_half_fallback_rows_total").value


def _certified_records(tracer, name):
    return [r for r in tracer.records() if r.name == name
            and r.attributes.get("path") == "certified"]


def test_fallback_counter_zero_on_paper_lot(registry):
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    engine.run(montecarlo_dies(PAPER_BIQUAD, 200, sigma_f0=0.03, seed=8),
               band=0.05)
    assert _fallback_total(registry) == 0.0
    assert "repro_front_half_fallback_rows_total 0" in registry.render()


def test_fallback_counter_and_span_count_forced_rows(registry):
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    population = _lot_with_loud_dies(80, seed=9)
    with tracing() as tracer:
        result = engine.run(population, band=0.05)
    assert _fallback_total(registry) == 2.0
    assert sum(r.attributes["fallback_rows"] for r in
               _certified_records(tracer, "stage.encode")) == 2
    reference = _per_die_ndfs(population.specs)
    assert np.array_equal(result.ndfs, reference)
    assert np.array_equal(result.verdicts, reference <= 0.05)
    assert set(result.timing) >= {"traces", "encode", "signature", "ndf"}


def test_fallback_counter_counts_dies_once_across_channels(registry):
    encoders = [table1_encoder(), second_signature_bank(-0.10, 1e-5)]
    engine = CampaignEngine.from_parts(encoders[0], PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    population = _lot_with_loud_dies(70, seed=10)
    with tracing() as tracer:
        result = engine.run(population, band=None, encoders=encoders)
    assert _certified_records(tracer, "stage.traces")
    assert _fallback_total(registry) == 2.0
    for k, encoder in enumerate(encoders):
        assert np.array_equal(result.channel_ndfs[:, k],
                              _per_die_ndfs(population.specs, encoder))


@pytest.mark.parametrize("executor_cls",
                         [ProcessPoolExecutor, SharedMemoryExecutor],
                         ids=["pool", "shm"])
def test_fallback_counter_counts_in_the_parent(registry, executor_cls):
    """Pool chunks hand their fallbacks home; the parent counts them."""
    population = _lot_with_loud_dies(2 * CERTIFIED_MIN_ROWS, seed=11)
    with executor_cls(max_workers=2) as pool:
        engine = CampaignEngine.from_parts(table1_encoder(),
                                           PAPER_STIMULUS, PAPER_BIQUAD,
                                           samples_per_period=SAMPLES,
                                           cache=GoldenCache(),
                                           executor=pool)
        with tracing() as tracer:
            result = engine.run(population, band=None)
    assert len(_certified_records(tracer, "stage.traces")) >= 2
    assert _fallback_total(registry) == 2.0
    assert np.array_equal(result.ndfs, _per_die_ndfs(population.specs))


def test_checkpoint_carries_fallback_dies():
    """Streams and shard merges keep the count; old files read as 0."""
    part = StreamCheckpoint("cfg", None, start_index=0)
    part.extend(np.zeros(2), np.zeros(2), np.zeros(2), ["a", "b"],
                {"traces": 0.1}, fallback_dies=1)
    part.extend(np.zeros(1), np.zeros(1), np.zeros(1), ["c"],
                {"traces": 0.1}, fallback_dies=2)
    assert part.fallback_dies == 3
    assert StreamCheckpoint.from_bytes(part.to_bytes()).fallback_dies == 3
    tail = StreamCheckpoint("cfg", None, start_index=3)
    tail.extend(np.zeros(1), np.zeros(1), np.zeros(1), ["d"], {},
                fallback_dies=4)
    assert StreamCheckpoint.merge([tail, part]).fallback_dies == 7
    assert StreamCheckpoint("cfg", None).fallback_dies == 0


def test_tables_never_reach_the_artifact_store(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache(store=store))
    engine.run(montecarlo_dies(PAPER_BIQUAD, CERTIFIED_MIN_ROWS,
                               sigma_f0=0.03, seed=1), band=0.05)
    kinds = " ".join(store.keys().values())
    assert "golden" in kinds
    assert "zone_table" not in kinds and "trace_basis" not in kinds
