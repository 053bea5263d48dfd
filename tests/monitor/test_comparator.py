"""Analytic monitor: boundary physics, Table I behaviour, variations."""

import numpy as np
import pytest

from repro.devices import NMOS_65NM
from repro.devices.process import DeviceVariation, MonteCarloSampler
from repro.monitor import MonitorBoundary, MonitorConfig, table1_monitor


def test_config_validation():
    with pytest.raises(ValueError):
        MonitorConfig((1.0, 1.0, 1.0), ("x", "y", 0.5, 0.5))  # 3 widths
    with pytest.raises(ValueError):
        MonitorConfig((1.0,) * 4, ("x", 0.1, 0.2, 0.3))  # no y
    with pytest.raises(ValueError):
        MonitorConfig((1.0,) * 4, ("x", "y", "z", 0.3))  # bad hookup


def test_branch_currents_balance_on_boundary():
    monitor = table1_monitor(3)
    xs = np.linspace(0.0, 1.0, 101)
    ys = monitor.locus_points(xs)
    valid = ~np.isnan(ys)
    assert np.count_nonzero(valid) > 10
    left, right = monitor.branch_currents(xs[valid], ys[valid])
    np.testing.assert_allclose(left, right, rtol=1e-6)


def test_curve3_is_circular_arc_in_strong_inversion():
    """Equal widths, V3=V4=0.55: locus ~ circle centred at (VT, VT)."""
    monitor = table1_monitor(3)
    xs = np.linspace(0.45, 0.6, 21)  # segment well above threshold
    ys = monitor.locus_points(xs)
    valid = ~np.isnan(ys)
    vt = NMOS_65NM.vt0
    radii = np.hypot(xs[valid] - vt, ys[valid] - vt)
    expected = np.sqrt(2.0) * (0.55 - vt)
    np.testing.assert_allclose(radii, expected, rtol=0.05)


def test_curve6_is_diagonal():
    monitor = table1_monitor(6)
    for v in (0.3, 0.5, 0.7, 0.9):
        assert monitor.decision(v, v) == pytest.approx(0.0, abs=1e-12)
    # Origin side is below the diagonal (bit 0 below, 1 above).
    assert monitor.bit(0.6, 0.4) == 0
    assert monitor.bit(0.4, 0.6) == 1


def test_curve1_positive_slope_segment():
    monitor = table1_monitor(1)
    xs = np.linspace(0.0, 1.0, 101)
    ys = monitor.locus_points(xs)
    valid = ~np.isnan(ys)
    slopes = np.diff(ys[valid]) / np.diff(xs[valid])
    assert np.all(slopes > -1e-9)


def test_curves_3_4_5_ordered_by_bias():
    """Higher DC bias pushes the arc away from the origin.

    Probed at x = 0.25 V where all three arcs cross the window (the
    subthreshold-limited curve 4 exists only at small inputs).
    """
    heights = {}
    for row in (4, 3, 5):  # biases 0.3, 0.55, 0.75
        monitor = table1_monitor(row)
        ys = monitor.locus_points(np.array([0.25]))
        heights[row] = ys[0]
    assert not any(np.isnan(h) for h in heights.values())
    assert heights[4] < heights[3] < heights[5]


def test_origin_bit_is_zero_for_all_rows():
    for row in range(1, 7):
        assert table1_monitor(row).bit(0.0, 0.0) == 0


def test_bit_vectorized():
    monitor = table1_monitor(3)
    xs = np.array([0.1, 0.9])
    ys = np.array([0.1, 0.9])
    bits = monitor.bit(xs, ys)
    assert bits.tolist() == [0, 1]


def test_variation_moves_boundary():
    monitor = table1_monitor(3)
    varied = MonitorBoundary(
        monitor.config, monitor.devices[0].params,
        [DeviceVariation(delta_vt=0.03)] * 2 + [DeviceVariation()] * 2)
    xs = np.linspace(0.3, 0.7, 11)
    y0 = monitor.locus_points(xs)
    y1 = varied.locus_points(xs)
    both = ~np.isnan(y0) & ~np.isnan(y1)
    assert np.any(both)
    # Left devices weakened (higher VT): boundary must move.
    assert np.max(np.abs(y0[both] - y1[both])) > 1e-3


def test_variation_list_length_checked():
    monitor = table1_monitor(3)
    with pytest.raises(ValueError):
        MonitorBoundary(monitor.config, monitor.devices[0].params,
                        [DeviceVariation()])


def test_with_die_uses_shared_process_shift():
    monitor = table1_monitor(3)
    sampler = MonteCarloSampler(rng=0, include_mismatch=False)
    die = sampler.sample_die()
    varied = monitor.with_die(die)
    # Without mismatch, all four devices carry the same global shift.
    vts = {dev.params.vt0 for dev in varied.devices}
    assert len(vts) == 1
    assert vts.pop() == pytest.approx(
        NMOS_65NM.vt0 + die.nmos_global.delta_vt)


def test_symmetric_config_symmetric_boundary():
    """Row 3 swaps x/y symmetrically: locus mirrors across y = x."""
    monitor = table1_monitor(3)
    g1 = monitor.decision(0.3, 0.6)
    g2 = monitor.decision(0.6, 0.3)
    assert g1 == pytest.approx(g2, rel=1e-12)
