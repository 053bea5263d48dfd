"""NDF response surface over the (f0, Q) plane."""

import numpy as np
import pytest

from repro.analysis import ndf_surface
from repro.filters.biquad import BiquadFilter
from repro.paper import PAPER_BIQUAD, paper_setup


@pytest.fixture(scope="module")
def surface():
    bench = paper_setup(samples_per_period=1024)
    return ndf_surface(bench.tester, PAPER_BIQUAD,
                       f0_deviations=np.linspace(-0.1, 0.1, 5),
                       q_deviations=np.linspace(-0.2, 0.2, 5))


def test_surface_shape(surface):
    assert surface.ndf.shape == (5, 5)
    assert np.all(surface.ndf >= 0)


def test_zero_at_origin(surface):
    i = np.argmin(np.abs(surface.q_deviations))
    j = np.argmin(np.abs(surface.f0_deviations))
    assert surface.ndf[i, j] == pytest.approx(0.0, abs=1e-9)


def test_f0_profile_matches_fig8_shape(surface):
    profile = surface.f0_only_profile()
    # Monotone rise away from the centre.
    centre = len(profile) // 2
    assert np.all(np.diff(profile[centre:]) > 0)
    assert np.all(np.diff(profile[:centre + 1]) < 0)


def test_q_sensitivity_per_unit_deviation_is_weaker(surface):
    """Per unit of relative deviation, f0 moves the NDF ~3x harder
    than Q on this bench (the Fig. 8 instrument primarily verifies f0)."""
    q_range = float(np.max(np.abs(surface.q_deviations)))
    f_range = float(np.max(np.abs(surface.f0_deviations)))
    q_slope = float(np.max(surface.q_only_profile())) / q_range
    f_slope = float(np.max(surface.f0_only_profile())) / f_range
    assert q_slope < 0.55 * f_slope


def test_interpolation(surface):
    exact = surface.ndf[2, 3]
    got = surface.at(float(surface.f0_deviations[3]),
                     float(surface.q_deviations[2]))
    assert got == pytest.approx(exact, abs=1e-12)


def test_ambiguity_index(surface):
    """An NDF level is realized along a contour, not a point."""
    level = surface.at(0.05, 0.0)
    index = surface.ambiguity_index(level, tolerance=0.3)
    assert 0.0 < index <= 1.5


def test_custom_cut_factory():
    bench = paper_setup(samples_per_period=1024)
    calls = []

    def factory(f0_dev, q_dev):
        calls.append((f0_dev, q_dev))
        return BiquadFilter(PAPER_BIQUAD.with_f0_deviation(f0_dev))

    ndf_surface(bench.tester, PAPER_BIQUAD, [0.0, 0.05], [0.0],
                cut_factory=factory)
    assert calls == [(0.0, 0.0), (0.05, 0.0)]
