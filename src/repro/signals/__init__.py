"""Signal generation and composition for X-Y zone testing.

* :mod:`repro.signals.waveform` -- sampled-signal container and algebra
* :mod:`repro.signals.multitone` -- multitone stimuli, exact periods,
  exact LTI steady-state propagation
* :mod:`repro.signals.noise` -- the paper's white measurement noise
* :mod:`repro.signals.lissajous` -- X-Y composition (Lissajous curves)
"""

from repro.signals.waveform import Waveform
from repro.signals.multitone import Multitone, Tone, two_tone
from repro.signals.noise import NoiseModel, PAPER_NOISE_3SIGMA
from repro.signals.lissajous import LissajousTrace
from repro.signals.filtering import BandLimiter
from repro.signals.spectrum import HarmonicSpectrum, harmonic_spectrum

__all__ = [
    "HarmonicSpectrum",
    "harmonic_spectrum",
    "Waveform",
    "Multitone",
    "Tone",
    "two_tone",
    "NoiseModel",
    "PAPER_NOISE_3SIGMA",
    "LissajousTrace",
    "BandLimiter",
]
