"""Coherent harmonic analysis of periodic waveforms."""

import pytest

from repro.filters import BiquadFilter, BiquadSpec
from repro.signals import Waveform, harmonic_spectrum, two_tone


def sampled(multitone, n=1024, periods=1):
    return multitone.sample(samples_per_period=n, periods=periods)


def test_single_tone_amplitude_and_phase():
    stim = two_tone(1e3, 2e3, 0.5, 0.0, offset=0.25, phase1_deg=30.0)
    spec = harmonic_spectrum(sampled(stim))
    assert spec.fundamental_hz == pytest.approx(1e3)
    assert spec.amplitude(0) == pytest.approx(0.25, abs=1e-9)
    assert spec.amplitude(1) == pytest.approx(0.5, abs=1e-9)
    assert spec.phase_deg(1) == pytest.approx(30.0, abs=1e-6)
    assert spec.amplitude(2) == pytest.approx(0.0, abs=1e-9)


def test_paper_stimulus_spectrum():
    from repro.paper import PAPER_STIMULUS
    spec = harmonic_spectrum(sampled(PAPER_STIMULUS, 4096))
    assert spec.amplitude(1) == pytest.approx(0.26, abs=1e-9)
    assert spec.amplitude(3) == pytest.approx(0.19, abs=1e-9)
    assert spec.phase_deg(3) == pytest.approx(105.0, abs=1e-6)


def test_spectrum_validates_integer_periods():
    stim = two_tone(1e3, 3e3, 0.3, 0.1)
    w = sampled(stim)
    bad = Waveform(w.times, w.values)
    with pytest.raises(ValueError, match="integer"):
        harmonic_spectrum(bad, period=0.7e-3)


def test_spectrum_needs_uniform_sampling():
    w = Waveform([0.0, 1.0, 3.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="uniform"):
        harmonic_spectrum(w)


def test_multi_period_capture():
    stim = two_tone(1e3, 2e3, 0.4, 0.2)
    w = sampled(stim, n=512, periods=4)
    spec = harmonic_spectrum(w, period=1e-3)
    assert spec.amplitude(1) == pytest.approx(0.4, abs=1e-9)
    assert spec.amplitude(2) == pytest.approx(0.2, abs=1e-9)


def test_biquad_response_tone_by_tone():
    """The filtered stimulus's spectrum equals |H| per tone -- ties the
    exact LTI propagation to an independent DFT measurement."""
    bf = BiquadFilter(BiquadSpec(11e3, 1.0, 1.0))
    stim = two_tone(5e3, 15e3, 0.26, 0.19, offset=0.5, phase2_deg=105)
    out = bf.response(stim)
    spec = harmonic_spectrum(sampled(out, 4096))
    assert spec.amplitude(1) == pytest.approx(
        0.26 * abs(bf.transfer(5e3)), rel=1e-9)
    assert spec.amplitude(3) == pytest.approx(
        0.19 * abs(bf.transfer(15e3)), rel=1e-9)
