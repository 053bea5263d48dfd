"""Coherent spectral analysis of periodic waveforms.

The stimuli are exactly periodic multitones, so spectral estimates need
no windowing: a DFT over an integer number of periods is exact at the
harmonic bins.  Used to validate the Biquad response tone by tone.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.signals.waveform import Waveform


@dataclass
class HarmonicSpectrum:
    """One-sided harmonic spectrum of a periodic waveform.

    ``amplitudes[k]`` is the peak amplitude of harmonic k of the
    fundamental (k = 0 is the DC component), ``phases_deg[k]`` its
    phase referred to a sine basis: ``a_k sin(2 pi k f0 t + phi_k)``.
    """

    fundamental_hz: float
    amplitudes: np.ndarray
    phases_deg: np.ndarray

    def amplitude(self, harmonic: int) -> float:
        """Peak amplitude of one harmonic (0 = DC)."""
        return float(self.amplitudes[harmonic])

    def phase_deg(self, harmonic: int) -> float:
        """Sine-referred phase of one harmonic in degrees."""
        return float(self.phases_deg[harmonic])


def harmonic_spectrum(waveform: Waveform,
                      period: float = None) -> HarmonicSpectrum:
    """Exact harmonic decomposition of one (or more) waveform periods.

    Parameters
    ----------
    waveform:
        Uniformly sampled waveform spanning an integer number of
        periods with the endpoint excluded (the library convention).
    period:
        The fundamental period; defaults to the full span
        ``duration + dt`` (one period).
    """
    if not waveform.is_uniform(rtol=1e-6):
        raise ValueError("harmonic analysis needs uniform sampling")
    n = len(waveform)
    dt = waveform.sample_interval
    span = n * dt
    if period is None:
        period = span
    cycles = span / period
    if abs(cycles - round(cycles)) > 1e-6:
        raise ValueError(
            f"waveform spans {cycles:.4f} periods; need an integer")
    cycles = int(round(cycles))
    spectrum = np.fft.rfft(waveform.values) / n
    # Harmonic k of the fundamental sits at FFT bin k * cycles.
    num_harmonics = (n // 2) // cycles
    amplitudes = np.zeros(num_harmonics + 1)
    phases = np.zeros(num_harmonics + 1)
    amplitudes[0] = spectrum[0].real
    for k in range(1, num_harmonics + 1):
        c = spectrum[k * cycles]
        amplitudes[k] = 2.0 * abs(c)
        # exp convention -> sine convention: a cos(wt + p) =
        # a sin(wt + p + 90 deg).
        phases[k] = np.degrees(np.angle(c)) + 90.0
    phases = (phases + 180.0) % 360.0 - 180.0
    return HarmonicSpectrum(1.0 / period, amplitudes, phases)
