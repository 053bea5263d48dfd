"""Waveform container: construction, algebra, statistics."""

import numpy as np
import pytest

from repro.signals import Waveform


@pytest.fixture
def ramp():
    t = np.linspace(0.0, 1.0, 11)
    return Waveform(t, 2.0 * t)


def test_construction_validation():
    with pytest.raises(ValueError):
        Waveform([0.0], [1.0])  # too short
    with pytest.raises(ValueError):
        Waveform([0.0, 0.0], [1.0, 2.0])  # non-increasing
    with pytest.raises(ValueError):
        Waveform([0.0, 1.0], [1.0, 2.0, 3.0])  # shape mismatch
    with pytest.raises(ValueError):
        Waveform([[0, 1]], [[1, 2]])  # not 1-D


def test_from_function_excludes_endpoint():
    w = Waveform.from_function(np.sin, 2 * np.pi, 100)
    assert len(w) == 100
    assert w.times[-1] < 2 * np.pi
    assert w.times[1] - w.times[0] == pytest.approx(2 * np.pi / 100)


def test_from_function_scalar_callable():
    w = Waveform.from_function(lambda t: 1.0 if np.ndim(t) == 0 else None,
                               1.0, 10)
    assert np.all(w.values == 1.0)


def test_value_at_interpolates(ramp):
    assert ramp.value_at(0.25) == pytest.approx(0.5)
    out = ramp.value_at([0.25, 0.75])
    np.testing.assert_allclose(out, [0.5, 1.5])


def test_resample_and_slice(ramp):
    s = ramp.sliced(0.2, 0.8)
    assert s.times[0] >= 0.2 and s.times[-1] <= 0.8
    with pytest.raises(ValueError):
        ramp.sliced(0.91, 0.99)  # fewer than two samples


def test_shift(ramp):
    s = ramp.shifted(1.0)
    assert s.times[0] == pytest.approx(1.0)
    np.testing.assert_allclose(s.values, ramp.values)


def test_statistics():
    t = np.linspace(0.0, 1.0, 10001)
    w = Waveform(t, np.sin(2 * np.pi * t))
    assert w.mean() == pytest.approx(0.0, abs=1e-6)
    assert w.rms() == pytest.approx(1 / np.sqrt(2), rel=1e-3)
    assert w.peak_to_peak() == pytest.approx(2.0, rel=1e-3)


def test_algebra(ramp):
    doubled = ramp * 2.0
    np.testing.assert_allclose(doubled.values, ramp.values * 2)
    summed = ramp + ramp
    np.testing.assert_allclose(summed.values, ramp.values * 2)
    offset = 1.0 + ramp
    np.testing.assert_allclose(offset.values, ramp.values + 1)
    diff = ramp - 0.5
    np.testing.assert_allclose(diff.values, ramp.values - 0.5)
    neg = -ramp
    np.testing.assert_allclose(neg.values, -ramp.values)
    rsub = 1.0 - ramp
    np.testing.assert_allclose(rsub.values, 1.0 - ramp.values)


def test_algebra_requires_alignment(ramp):
    other = Waveform(ramp.times + 0.5, ramp.values)
    with pytest.raises(ValueError, match="time base"):
        _ = ramp + other


def test_map(ramp):
    squared = ramp.map(lambda v: v ** 2)
    np.testing.assert_allclose(squared.values, ramp.values ** 2)


def test_uniformity(ramp):
    assert ramp.is_uniform()
    w = Waveform([0.0, 0.1, 0.3], [0.0, 1.0, 2.0])
    assert not w.is_uniform()
    assert w.sample_interval == pytest.approx(0.15)
