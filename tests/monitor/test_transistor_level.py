"""Transistor-level Fig. 2 monitor vs the analytic current balance."""

import pytest

from repro.monitor import (
    TransistorMonitor,
    locus_rms_difference,
    table1_config,
    table1_monitor,
)


@pytest.fixture(scope="module")
def xtor3():
    return TransistorMonitor(table1_config(3))


def test_feedback_weaker_than_load_enforced():
    with pytest.raises(ValueError, match="hysteresis"):
        TransistorMonitor(table1_config(3), load_width_nm=1000.0,
                          feedback_width_nm=2000.0)


def test_outputs_within_rails(xtor3):
    v1, v2 = xtor3.solve_outputs(0.3, 0.7)
    assert 0.0 <= v1 <= 1.2
    assert 0.0 <= v2 <= 1.2


def test_differential_output_sign_tracks_balance(xtor3):
    """More left-branch drive pulls out1 low: decision > 0."""
    analytic = table1_monitor(3)
    # Point clearly outside the arc: left branch (x, y inputs) wins.
    assert analytic.decision(0.9, 0.9) > 0
    assert xtor3.decision(0.9, 0.9) > 0
    # Point near the origin: right branch (DC biases) wins.
    assert analytic.decision(0.1, 0.1) < 0
    assert xtor3.decision(0.1, 0.1) < 0


def test_bits_agree_with_analytic_away_from_boundary(xtor3):
    analytic = table1_monitor(3)
    for x, y in [(0.1, 0.1), (0.9, 0.8), (0.2, 0.9), (0.8, 0.15),
                 (0.5, 0.5)]:
        if abs(analytic.decision(x, y)) < 0.2 * abs(
                analytic.decision(1.0, 1.0)):
            continue  # skip points too close to the trip locus
        assert xtor3.bit(x, y) == analytic.bit(x, y), (x, y)


@pytest.mark.slow
def test_locus_agreement_with_analytic(xtor3):
    """The simulated trip locus tracks the current balance closely."""
    rms = locus_rms_difference(table1_monitor(3), xtor3, points=9)
    assert rms < 0.03  # tens of millivolts: CLM/load residual only
