"""MOS model physics: asymptotes, smoothness, polarity, inversions."""

import numpy as np
import pytest

from repro.devices.mos_model import (
    MosModel,
    MosParams,
    NMOS_65NM,
    PMOS_65NM,
    sigmoid,
    softplus,
    square_law_current,
)


@pytest.fixture
def nmos():
    return MosModel(NMOS_65NM, w=1.8e-6, l=180e-9)


@pytest.fixture
def pmos():
    return MosModel(PMOS_65NM, w=1.8e-6, l=180e-9)


# ----------------------------------------------------------------------
# Numerical helpers
# ----------------------------------------------------------------------

def test_softplus_limits():
    assert softplus(-100.0) == pytest.approx(0.0, abs=1e-30)
    assert softplus(100.0) == pytest.approx(100.0)
    assert softplus(0.0) == pytest.approx(np.log(2.0))


def test_sigmoid_stable_at_extremes():
    assert sigmoid(-1000.0) == pytest.approx(0.0)
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert sigmoid(0.0) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Strong-inversion square law (the paper's boundary idealization)
# ----------------------------------------------------------------------

def test_saturation_current_matches_square_law_strong_inversion(nmos):
    """Well above threshold, I -> (beta/2)(VGS-VT)^2 (few % accuracy)."""
    for vgs in (0.8, 0.9, 1.0, 1.1):
        exact = nmos.saturation_current(vgs)
        ideal = square_law_current(nmos.beta, vgs, NMOS_65NM.vt0)
        assert exact == pytest.approx(ideal, rel=0.10)


def test_square_law_ratio_improves_with_overdrive(nmos):
    """The EKV interpolation converges to the square law from above."""
    ratios = []
    for vgs in (0.6, 0.8, 1.0, 1.2):
        ideal = square_law_current(nmos.beta, vgs, NMOS_65NM.vt0)
        ratios.append(nmos.saturation_current(vgs) / ideal)
    diffs = np.abs(np.asarray(ratios) - 1.0)
    assert np.all(np.diff(diffs) < 0)  # monotone approach to 1


def test_subthreshold_slope(nmos):
    """Deep below VT the current must fall by e every n*UT volts.

    The probe points sit ~0.25 V under threshold where the EKV
    interpolation is within a few percent of its exponential asymptote.
    """
    v1, v2 = 0.12, 0.17
    i1 = nmos.saturation_current(v1)
    i2 = nmos.saturation_current(v2)
    n_ut = NMOS_65NM.n * NMOS_65NM.thermal_voltage
    expected_ratio = np.exp((v2 - v1) / n_ut)
    assert i2 / i1 == pytest.approx(expected_ratio, rel=0.05)


def test_current_scales_with_width(nmos):
    wide = MosModel(nmos.params, 3.6e-6, nmos.l)
    assert wide.saturation_current(0.8) \
        == pytest.approx(2.0 * nmos.saturation_current(0.8), rel=1e-12)


def test_current_monotone_in_vgs(nmos):
    vgs = np.linspace(-0.2, 1.2, 200)
    i = nmos.saturation_current(vgs)
    assert np.all(np.diff(i) > 0)


# ----------------------------------------------------------------------
# Full drain current
# ----------------------------------------------------------------------

def test_drain_current_zero_at_vds_zero(nmos):
    assert nmos.drain_current(0.8, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_drain_current_antisymmetric_in_vds(nmos):
    """Source/drain symmetry: Id(vgs, -vds) = -Id(vgs + vds, vds)."""
    vgs, vds = 0.7, 0.3
    forward = nmos.drain_current(vgs, vds, with_clm=False)
    swapped = nmos.drain_current(vgs - vds, -vds, with_clm=False)
    assert swapped == pytest.approx(-forward, rel=1e-9)


def test_triode_to_saturation_transition(nmos):
    """Id grows with vds in triode, saturates (slope ~ lambda) after."""
    vgs = 0.9
    vds = np.linspace(0.01, 1.2, 240)
    i = nmos.drain_current(vgs, vds)
    didv = np.diff(i) / np.diff(vds)
    assert np.all(didv > 0)  # CLM keeps a small positive slope
    # Early slope (triode) must dwarf the late slope (saturation).
    assert didv[0] > 20 * didv[-1]


def test_pmos_mirrors_nmos(pmos):
    """A conducting pMOS carries negative drain current."""
    i = pmos.drain_current(-0.8, -0.6)
    assert i < 0
    mirrored = MosModel(
        MosParams(polarity=1, vt0=PMOS_65NM.vt0, kp=PMOS_65NM.kp,
                  n=PMOS_65NM.n, lambda_=PMOS_65NM.lambda_),
        pmos.w, pmos.l)
    assert -i == pytest.approx(mirrored.drain_current(0.8, 0.6), rel=1e-12)


def test_smoothness_no_kinks(nmos):
    """First differences of Id(vgs) must themselves vary smoothly."""
    vgs = np.linspace(0.0, 1.0, 2001)
    i = nmos.saturation_current(vgs)
    second = np.diff(i, 2)
    # A kink would spike the second difference by orders of magnitude.
    assert np.max(np.abs(second)) < 50 * np.median(np.abs(second) + 1e-18)


def test_dimension_validation():
    with pytest.raises(ValueError):
        MosModel(NMOS_65NM, w=-1e-6, l=180e-9)
    with pytest.raises(ValueError):
        MosModel(NMOS_65NM, w=1e-6, l=0.0)


def test_with_variation():
    shifted = NMOS_65NM.with_variation(delta_vt=0.02, beta_factor=1.1)
    assert shifted.vt0 == pytest.approx(NMOS_65NM.vt0 + 0.02)
    assert shifted.kp == pytest.approx(NMOS_65NM.kp * 1.1)
    # Original untouched (frozen dataclass).
    assert NMOS_65NM.vt0 == 0.42
