"""Noise model, band limiter and Lissajous composition."""

import numpy as np
import pytest

from repro.filters import BiquadFilter, BiquadSpec
from repro.signals import (
    BandLimiter,
    LissajousTrace,
    Multitone,
    NoiseModel,
    PAPER_NOISE_3SIGMA,
    Tone,
    Waveform,
    two_tone,
)


# ----------------------------------------------------------------------
# Noise
# ----------------------------------------------------------------------

def test_paper_noise_constant():
    assert PAPER_NOISE_3SIGMA == 0.015


def test_noise_sigma_is_one_third_of_spread():
    model = NoiseModel(0.015, rng=0)
    assert model.sigma == pytest.approx(0.005)


def test_noise_statistics():
    model = NoiseModel(0.015, rng=0)
    samples = model.samples(200000)
    assert np.mean(samples) == pytest.approx(0.0, abs=1e-4)
    assert np.std(samples) == pytest.approx(0.005, rel=0.02)


def test_zero_noise_is_exactly_zero():
    model = NoiseModel(0.0)
    assert np.all(model.samples(100) == 0.0)


def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.01)


def test_corrupt_pair_independent():
    model = NoiseModel(0.015, rng=1)
    t = np.linspace(0, 1, 100)
    w = Waveform(t, np.zeros_like(t))
    x, y = model.corrupt_pair(w, w)
    assert not np.allclose(x.values, y.values)


# ----------------------------------------------------------------------
# Band limiter
# ----------------------------------------------------------------------

def test_band_limiter_passes_low_frequencies():
    fc = 200e3
    lim = BandLimiter(fc)
    t = np.arange(4096) * (200e-6 / 4096)
    w = Waveform(t, np.sin(2 * np.pi * 5e3 * t))
    out = lim.apply(w)
    # 5 kHz vs a 200 kHz pole: attenuation under 0.1 %.
    assert out.rms() == pytest.approx(w.rms(), rel=2e-3)


def test_band_limiter_attenuates_high_frequency_noise():
    lim = BandLimiter(200e3)
    rng = np.random.default_rng(0)
    t = np.arange(8192) * (200e-6 / 8192)  # fs ~ 41 MHz
    w = Waveform(t, rng.normal(0, 5e-3, len(t)))
    out = lim.apply(w)
    assert np.std(out.values) < 0.35 * np.std(w.values)


def test_band_limiter_validation():
    with pytest.raises(ValueError):
        BandLimiter(0.0)
    lim = BandLimiter(1e5)
    w = Waveform([0.0, 0.1, 0.3], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="uniform"):
        lim.apply(w)


def test_band_limiter_no_startup_transient():
    lim = BandLimiter(1e5)
    t = np.linspace(0, 1e-3, 1000, endpoint=False)
    w = Waveform(t, np.full_like(t, 0.7))
    out = lim.apply(w)
    np.testing.assert_allclose(out.values, 0.7, atol=1e-9)


# ----------------------------------------------------------------------
# Lissajous traces
# ----------------------------------------------------------------------

@pytest.fixture
def trace():
    stim = two_tone(5e3, 15e3, 0.26, 0.19, offset=0.5, phase2_deg=105)
    bf = BiquadFilter(BiquadSpec(11e3, 1.0, 1.0))
    return bf.lissajous(stim, 1024)


def test_trace_alignment_enforced():
    t = np.linspace(0, 1, 10)
    x = Waveform(t, t)
    y = Waveform(t + 0.1, t)
    with pytest.raises(ValueError, match="time base"):
        LissajousTrace(x, y)


def test_from_multitones_requires_common_period():
    a = Multitone([Tone(5e3, 0.1)])
    b = Multitone([Tone(7e3, 0.1)])
    with pytest.raises(ValueError, match="common period"):
        LissajousTrace.from_multitones(a, b)


def test_trace_period_and_points(trace):
    assert trace.period == pytest.approx(200e-6)
    xs, ys = trace.points()
    assert len(xs) == len(ys) == 1024


def test_point_at_wraps(trace):
    x0, y0 = trace.point_at(0.0)
    x1, y1 = trace.point_at(trace.period)
    assert x0 == pytest.approx(x1)
    assert y0 == pytest.approx(y1)


def test_bounding_box_inside_window(trace):
    assert trace.stays_within(0.0, 1.0)
    xmin, xmax, ymin, ymax = trace.bounding_box()
    assert 0.0 < xmin < xmax < 1.0
    assert 0.0 < ymin < ymax < 1.0


def test_ascii_plot_shape(trace):
    art = trace.ascii_plot(width=40, height=12)
    lines = art.split("\n")
    assert len(lines) == 12
    assert all(len(line) == 40 for line in lines)
    assert any("*" in line for line in lines)
