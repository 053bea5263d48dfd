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
* the golden-relative certificate: the reach bounds every die's
  distance to the golden trace, margins are edge distances rounded
  down, reaches placed ulps either side of a margin pick exactly the
  columns with ``m_j <= r``, narrow and full-width blocks return the
  exact planes, and non-finite dies fall back;
* routing: banks the table rule excludes, per-die Monte-Carlo banks,
  2-D ``x`` stacks, trace rows and small chunks keep the exact kernel;
* tables and golden frames are cached under the banks' exact kernel
  inputs: banks a rounding apart never share one;
* pool chunks travel as ``SpecArrays``, never as pickled specs;
* the ``front_half_fallback_rows_total`` counter (in the process that
  owns the campaign, whatever the executor) and the ``fallback_rows``
  span attribute count the recomputed dies.
"""

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.straight_zoning import (
    fitted_line_encoder,
    grid_line_encoder,
)
from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    ProcessPoolExecutor,
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
from repro.campaign import batch as batch_module
from repro.campaign.batch import (
    certified_spec_codes,
    golden_frame,
    sample_times,
    spec_trace_coefficients,
    trace_basis,
    trace_reach,
)
from repro.core.testflow import SignatureTester
from repro.core.zones import ZoneEncoder
from repro.filters.biquad import (
    BiquadFilter,
    BiquadKind,
    BiquadSpec,
    SpecArrays,
)
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
    basis = trace_basis(PAPER_STIMULUS, times)
    planes, fallback = certified_spec_codes(
        specs, PAPER_STIMULUS, times, x, encoders, tables, basis,
        golden_frame(PAPER_BIQUAD, PAPER_STIMULUS, times, x, encoders,
                     tables, basis))
    exact = batch_biquad_traces(specs, PAPER_STIMULUS, times)
    for encoder, plane in zip(encoders, planes):
        assert plane.dtype == np.uint8
        assert np.array_equal(plane, monitor_bank_codes(encoder, x, exact))
    assert len(specs) - 1 in fallback.tolist()


# ----------------------------------------------------------------------
# The golden-relative certificate
# ----------------------------------------------------------------------
def _frame_parts(grid, encoders):
    times, x, __ = grid
    tables = [build_threshold_table(encoder, x) for encoder in encoders]
    assert all(table is not None for table in tables)
    basis = trace_basis(PAPER_STIMULUS, times)
    frame = golden_frame(PAPER_BIQUAD, PAPER_STIMULUS, times, x, encoders,
                         tables, basis)
    return tables, basis, frame


def _column_margins(frame):
    """A frame's margins back in grid column order."""
    margins = np.empty_like(frame.sorted_margins)
    margins[frame.order] = frame.sorted_margins
    return margins


def _exact_planes(specs, encoders, grid):
    times, x, __ = grid
    exact = batch_biquad_traces(specs, PAPER_STIMULUS, times)
    return [monitor_bank_codes(encoder, x, exact) for encoder in encoders]


class _StageLog:
    """A ``stage`` hook that records every step's attributes."""

    def __init__(self):
        self.steps = []

    def __call__(self, name, **attributes):
        self.steps.append((name, attributes))
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attributes):
        self.steps[-1][1].update(attributes)

    def columns(self):
        return [a["columns"] for name, a in self.steps
                if name == "encode" and a.get("path") == "certified"]


@settings(max_examples=30, deadline=None)
@given(kind=_KINDS, seed=st.integers(0, 2 ** 16),
       samples=st.sampled_from([64, 256, 1000]))
def test_reach_bounds_the_distance_to_golden(kind, seed, samples):
    """``D_i + eps_i + eps_g`` covers every exact sample's distance.

    Random dies of one kind with f0 and Q within +-40% of a golden of
    that kind.
    """
    rng = np.random.default_rng(seed)
    golden = dataclasses.replace(PAPER_BIQUAD, kind=kind)
    specs = [dataclasses.replace(
        golden, f0_hz=golden.f0_hz * float(rng.uniform(0.6, 1.4)),
        q=golden.q * float(rng.uniform(0.6, 1.4))) for __ in range(16)]
    times = sample_times(PAPER_STIMULUS.period(), samples)
    basis = trace_basis(PAPER_STIMULUS, times)
    coef, eps = spec_trace_coefficients(specs, PAPER_STIMULUS, basis)
    golden_coef, golden_eps = spec_trace_coefficients(
        [golden], PAPER_STIMULUS, basis)
    reach = trace_reach(coef, eps, golden_coef[0], float(golden_eps[0]))
    exact = batch_biquad_traces(specs, PAPER_STIMULUS, times)
    golden_trace = batch_biquad_traces([golden], PAPER_STIMULUS, times)[0]
    observed = np.max(np.abs(exact - golden_trace), axis=1)
    assert np.all(observed <= reach)


def test_reach_bounds_wide_lots(grid):
    """sigma = 0.15 lots: the bound holds and stays tight."""
    times, __, golden = grid
    basis = trace_basis(PAPER_STIMULUS, times)
    golden_coef, golden_eps = spec_trace_coefficients(
        [PAPER_BIQUAD], PAPER_STIMULUS, basis)
    for seed in (1, 2):
        dies = montecarlo_dies(PAPER_BIQUAD, 300, sigma_f0=0.15, seed=seed)
        coef, eps = spec_trace_coefficients(dies.specs, PAPER_STIMULUS,
                                            basis)
        reach = trace_reach(coef, eps, golden_coef[0],
                            float(golden_eps[0]))
        exact = batch_biquad_traces(dies.specs, PAPER_STIMULUS, times)
        observed = np.max(np.abs(exact - golden), axis=1)
        assert np.all(observed <= reach)
        assert np.median(reach / observed) < 1.1


def test_frame_margins_and_golden_codes(grid):
    """Margins are edge distances rounded down; codes are exact."""
    times, x, golden = grid
    encoder = table1_encoder()
    (table,), __, frame = _frame_parts(grid, [encoder])
    assert np.array_equal(frame.codes[0], monitor_bank_codes(
        encoder, x, golden[None, :])[0])
    assert np.array_equal(np.sort(frame.order), np.arange(SAMPLES))
    assert np.all(np.diff(frame.sorted_margins) >= 0)
    m, y = _column_margins(frame), golden
    assert np.all(np.isfinite(m))  # the window caps them
    # Any sample within m of the golden one stays on the golden's side
    # of every band edge and inside the window; m is the distance.
    below, above = y < table.lower, y > table.upper
    assert np.all(below | above | (m == 0.0))
    assert np.all(np.where(below, y + m <= table.lower, True))
    assert np.all(np.where(above, y - m >= table.upper, True))
    assert np.all(y - m >= TABLE_WINDOW[0])
    assert np.all(y + m <= TABLE_WINDOW[1])
    distance = np.minimum(
        np.where(below, table.lower - y, np.where(above, y - table.upper,
                                                  0.0)).min(axis=0),
        np.minimum(y - TABLE_WINDOW[0], TABLE_WINDOW[1] - y))
    assert np.all(m <= distance)
    assert np.allclose(m, distance, rtol=1e-12, atol=0.0)
    assert frame.widths(np.array([np.nan, np.inf])).tolist() == \
        [SAMPLES, SAMPLES]
    assert frame.widths(np.array([0.0]))[0] == np.count_nonzero(m <= 0.0)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reach_a_few_ulps_around_a_margin(grid, data):
    """Reaches placed ulps either side of a margin: planes stay exact.

    Raising a die's reach is always sound (it only computes more
    columns), so every die of a small lot gets the reach ``m_q + k``
    ulps for a margin ``m_q`` above all their true reaches.  The
    uncertain prefix must then hold exactly the columns with ``m_j <=
    r`` -- column ``q`` joins it at ``k = 0`` -- and the planes must
    equal the exact kernel's codes.
    """
    times, x, __ = grid
    encoders = [table1_encoder(), ZoneEncoder(table1_bank()[::-1])]
    tables, basis, frame = _frame_parts(grid, encoders)
    dies = montecarlo_dies(PAPER_BIQUAD, 12, sigma_f0=0.03,
                           seed=data.draw(st.integers(0, 2 ** 16)))
    coef, eps = spec_trace_coefficients(dies.specs, PAPER_STIMULUS, basis)
    true_reach = trace_reach(coef, eps, frame.coef, frame.eps)
    above = np.flatnonzero(frame.sorted_margins > true_reach.max())
    assume(above.size > 0)
    q = int(above[data.draw(st.integers(0, above.size - 1))])
    k = data.draw(st.integers(-3, 3))
    target = float(_from_keys(int(_to_keys(frame.sorted_margins[q])) + k))
    target = max(target, float(true_reach.max()))
    log = _StageLog()
    with mock.patch.object(batch_module, "trace_reach",
                           lambda *args: np.full(len(dies), target)):
        planes, __ = certified_spec_codes(
            dies.specs, PAPER_STIMULUS, times, x, encoders, tables,
            basis, frame, stage=log)
    expected_width = int(np.count_nonzero(_column_margins(frame)
                                          <= target))
    assert set(log.columns()) == {expected_width}
    assert (expected_width > q) == (target >= frame.sorted_margins[q])
    for plane, exact in zip(planes, _exact_planes(dies.specs, encoders,
                                                  grid)):
        assert np.array_equal(plane, exact)


@pytest.mark.parametrize("sigma", [0.03, 0.15])
def test_golden_relative_planes_equal_exact(grid, sigma):
    """Narrow and full-width blocks of one chunk, two channels."""
    times, x, __ = grid
    encoders = [table1_encoder(), second_signature_bank(-0.10, 1e-5)]
    tables, basis, frame = _frame_parts(grid, encoders)
    dies = montecarlo_dies(PAPER_BIQUAD, 400, sigma_f0=sigma, seed=21)
    log = _StageLog()
    planes, fallback = certified_spec_codes(
        dies.specs, PAPER_STIMULUS, times, x, encoders, tables, basis,
        frame, stage=log)
    columns = log.columns()
    assert min(columns) < SAMPLES
    if sigma > 0.1:
        assert max(columns) == SAMPLES  # some blocks span every column
    assert fallback.size == 0
    for plane, exact in zip(planes, _exact_planes(dies.specs, encoders,
                                                  grid)):
        assert np.array_equal(plane, exact)


def test_wide_and_two_channel_lots_match_exact_path():
    """sigma = 0.15 and two-channel lots: NDFs and verdicts are exact."""
    encoders = [table1_encoder(), second_signature_bank(-0.10, 1e-5)]
    engine = CampaignEngine.from_parts(encoders[0], PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    times = engine.golden().times
    for sigma, channels in ((0.15, encoders[:1]), (0.15, encoders),
                            (0.03, encoders)):
        dies = montecarlo_dies(PAPER_BIQUAD, 3 * CERTIFIED_MIN_ROWS,
                               sigma_f0=sigma, seed=31)
        y = batch_biquad_traces(dies.specs, PAPER_STIMULUS, times)
        exact = engine.run(trace_population(y), band=0.05,
                           encoders=channels)
        result = engine.run(dies, band=0.05, encoders=channels)
        assert np.array_equal(result.ndfs, exact.ndfs)
        assert np.array_equal(result.verdicts, exact.verdicts)
        if len(channels) > 1:
            assert np.array_equal(result.channel_ndfs, exact.channel_ndfs)
        assert np.array_equal(result.ndfs[:8],
                              _per_die_ndfs(dies.specs[:8], channels[0]))


def test_banks_a_rounding_apart_never_share_a_frame(grid):
    """Same golden key, different kernel keys: two frames, each exact."""
    times, x, golden_trace = grid
    base, nudged = table1_encoder(), _nudged_encoder(1e-12)
    dies = montecarlo_dies(PAPER_BIQUAD, CERTIFIED_MIN_ROWS,
                           sigma_f0=0.03, seed=14)
    frames = []
    for encoder in (base, nudged):
        engine = CampaignEngine.from_parts(encoder, PAPER_STIMULUS,
                                           PAPER_BIQUAD,
                                           samples_per_period=SAMPLES,
                                           cache=GoldenCache())
        config, golden = engine.config, engine.golden()
        tables = engine_module._zone_tables(config, golden, len(dies))
        basis = engine_module._trace_basis(config, golden)
        frame = engine_module._golden_frame(config, golden, tables, basis)
        assert frame is engine_module._golden_frame(config, golden,
                                                    tables, basis)
        planes, __ = certified_spec_codes(
            dies.specs, PAPER_STIMULUS, times, x, [encoder], tables,
            basis, frame)
        assert np.array_equal(planes[0], _exact_planes(
            dies.specs, [encoder], grid)[0])
        assert np.array_equal(frame.codes[0], monitor_bank_codes(
            encoder, x, golden_trace[None, :])[0])
        frames.append(frame)
    assert base.fingerprint() == nudged.fingerprint()
    assert frames[0] is not frames[1]
    assert not np.array_equal(_column_margins(frames[0]),
                              _column_margins(frames[1]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_coefficients_fall_back(grid):
    """A die whose transfer overflows takes the exact path."""
    times, x, __ = grid
    encoder = table1_encoder()
    tables, basis, frame = _frame_parts(grid, [encoder])
    specs = list(montecarlo_dies(PAPER_BIQUAD, 40, sigma_f0=0.03,
                                 seed=15).specs)
    specs.insert(17, BiquadSpec(1e200, 1.0))
    coef, eps = spec_trace_coefficients(specs, PAPER_STIMULUS, basis)
    assert not np.all(np.isfinite(coef[17]))
    reach = trace_reach(coef, eps, frame.coef, frame.eps)
    assert not np.isfinite(reach[17])
    assert frame.widths(reach)[17] == SAMPLES
    log = _StageLog()
    planes, fallback = certified_spec_codes(
        specs, PAPER_STIMULUS, times, x, [encoder], tables, basis, frame,
        stage=log)
    assert fallback.tolist() == [17]
    assert np.array_equal(planes[0], _exact_planes(specs, [encoder],
                                                   grid)[0])


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
                         [ProcessPoolExecutor], ids=["pool"])
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


class _RecordingPool(ProcessPoolExecutor):
    """A process pool that keeps every payload it ships."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.payloads = []

    def map(self, worker, chunks):
        chunks = list(chunks)
        self.payloads.extend(chunks)
        return super().map(worker, chunks)


def _mixed_kind_lot(count, seed):
    rng = np.random.default_rng(seed)
    kinds = list(BiquadKind)
    specs = [dataclasses.replace(
        PAPER_BIQUAD, f0_hz=PAPER_BIQUAD.f0_hz * float(rng.normal(1, 0.03)),
        kind=kinds[i % len(kinds)]) for i in range(count)]
    return SpecPopulation(specs, np.zeros(count), np.zeros(count),
                          [f"die{i}" for i in range(count)])


def test_pool_ships_spec_chunks_as_parameter_arrays(registry):
    """Mixed-kind and forced-fallback lots: pool == serial, no specs sent.

    Each pool payload carries the chunk as ``SpecArrays``; beyond the
    config (which holds the golden spec) nothing pickles a
    ``BiquadSpec``.
    """
    lots = [_mixed_kind_lot(2 * CERTIFIED_MIN_ROWS + 5, seed=16),
            _lot_with_loud_dies(2 * CERTIFIED_MIN_ROWS, seed=17)]
    serial = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    expected = [serial.run(lot, band=0.05) for lot in lots]
    with _RecordingPool(2) as pool:
        pooled = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                           PAPER_BIQUAD,
                                           samples_per_period=SAMPLES,
                                           cache=GoldenCache(),
                                           executor=pool)
        results = [pooled.run(lot, band=0.05) for lot in lots]
    for result, reference in zip(results, expected):
        assert np.array_equal(result.ndfs, reference.ndfs)
        assert np.array_equal(result.verdicts, reference.verdicts)
    assert _fallback_total(registry) == 4.0  # 2 loud dies, both runs
    assert len(pool.payloads) == 4  # two certified chunks per lot
    for payload in pool.payloads:
        assert isinstance(payload[1], SpecArrays)
        assert b"BiquadSpec" not in pickle.dumps(payload[1:])


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
