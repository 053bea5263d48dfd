"""Multitone stimuli: exact periods, LTI propagation, sampling."""

import numpy as np
import pytest

from repro.signals import Multitone, Tone, two_tone


def test_tone_validation():
    with pytest.raises(ValueError):
        Tone(-1.0, 1.0)
    with pytest.raises(ValueError):
        Tone(0.0, 1.0)


def test_tone_evaluate():
    tone = Tone(1.0, 2.0, 90.0)
    assert tone.evaluate(0.0) == pytest.approx(2.0)
    assert tone.evaluate(0.5) == pytest.approx(-2.0)


def test_multitone_needs_tones():
    with pytest.raises(ValueError):
        Multitone([])


def test_period_two_tones():
    stim = two_tone(5e3, 15e3, 1.0, 1.0)
    assert stim.fundamental_frequency() == pytest.approx(5e3)
    assert stim.period() == pytest.approx(200e-6)


def test_period_non_harmonic_pair():
    """3 Hz and 5 Hz share a 1 Hz fundamental (1 s period)."""
    stim = two_tone(3.0, 5.0, 1.0, 1.0)
    assert stim.period() == pytest.approx(1.0)


def test_evaluation_scalar_and_vector():
    stim = Multitone([Tone(1.0, 1.0)], offset=0.5)
    assert stim(0.0) == pytest.approx(0.5)
    t = np.array([0.0, 0.25])
    np.testing.assert_allclose(stim(t), [0.5, 1.5])


def test_periodicity_of_evaluation():
    stim = two_tone(5e3, 15e3, 0.3, 0.2, offset=0.5, phase2_deg=45)
    period = stim.period()
    t = np.linspace(0, period, 50, endpoint=False)
    np.testing.assert_allclose(stim(t), stim(t + period), atol=1e-9)


def test_through_identity():
    stim = two_tone(1e3, 3e3, 0.4, 0.2, offset=0.5)
    passed = stim.through(lambda f: 1.0 + 0.0j)
    t = np.linspace(0, stim.period(), 64, endpoint=False)
    np.testing.assert_allclose(passed(t), stim(t), atol=1e-12)


def test_through_gain_and_phase():
    """H = 0.5 * exp(-j 90 deg) must halve amplitude and delay phase."""
    stim = Multitone([Tone(1.0, 1.0, 0.0)], offset=0.0)
    out = stim.through(lambda f: -0.5j if f > 0 else 1.0)
    # 0.5 sin(wt - 90 deg)
    assert out(0.25) == pytest.approx(0.0, abs=1e-12)
    assert out(0.5) == pytest.approx(0.5, abs=1e-12)


def test_through_matches_numeric_convolution_reference():
    """Exact LTI propagation vs brute-force frequency response check."""
    from repro.filters import BiquadFilter, BiquadSpec
    bf = BiquadFilter(BiquadSpec(11e3, 1.0, 1.0))
    stim = two_tone(5e3, 15e3, 0.26, 0.19, offset=0.5, phase2_deg=105)
    out = stim.through(bf.transfer)
    t = np.linspace(0, stim.period(), 256, endpoint=False)
    # Reference: evaluate each tone separately through H.
    ref = np.full_like(t, 0.5 * bf.transfer(0.0).real)
    for tone in stim.tones:
        h = bf.transfer(tone.freq_hz)
        ref += (abs(h) * tone.amplitude
                * np.sin(2 * np.pi * tone.freq_hz * t
                         + tone.phase_rad + np.angle(h)))
    np.testing.assert_allclose(out(t), ref, atol=1e-12)


def test_through_rejects_complex_dc():
    stim = Multitone([Tone(1.0, 1.0)], offset=0.5)
    with pytest.raises(ValueError, match="DC"):
        stim.through(lambda f: 1j)


def test_scaled_and_offset():
    stim = two_tone(1.0, 2.0, 0.4, 0.2, offset=0.5)
    scaled = stim.scaled(0.5)
    assert scaled.tones[0].amplitude == pytest.approx(0.2)
    assert scaled.offset == 0.5
    moved = stim.with_offset(0.0)
    assert moved.offset == 0.0
    assert moved.tones == stim.tones


def test_sample_tiles_periodically():
    stim = two_tone(1e3, 3e3, 0.3, 0.2, offset=0.1)
    w = stim.sample(samples_per_period=128, periods=2)
    assert len(w) == 256
    np.testing.assert_allclose(w.values[:128], w.values[128:], atol=1e-9)


def test_sample_validation():
    stim = two_tone(1e3, 3e3, 0.3, 0.2)
    with pytest.raises(ValueError):
        stim.sample(samples_per_period=1)
    with pytest.raises(ValueError):
        stim.sample(periods=0)
