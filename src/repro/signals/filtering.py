"""Monitor front-end band limiting.

The paper's noise study superimposes *high-frequency* white noise on
the composed signals; a physical monitor front-end (pad, routing, the
comparator's input pole) is band-limited and averages such noise down.
:class:`BandLimiter` models that with a single real pole, applied
identically to clean and noisy captures so the systematic trace delay
cancels in the NDF comparison.

The noise benchmark shows the effect reproduced from the paper: with a
100-200 kHz input pole and the quoted 3-sigma = 0.015 V noise, +-1 %
deviations of the Biquad's natural frequency remain detectable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.signals.lissajous import LissajousTrace
from repro.signals.waveform import Waveform


class BandLimiter:
    """Single-pole low-pass applied to sampled waveforms.

    Parameters
    ----------
    cutoff_hz:
        The -3 dB pole frequency.  Must sit far above the stimulus
        tones (so the Lissajous shape is preserved) and far below the
        sampling Nyquist (so HF noise is attenuated).
    """

    def __init__(self, cutoff_hz: float) -> None:
        if cutoff_hz <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff_hz = float(cutoff_hz)

    def apply(self, waveform: Waveform) -> Waveform:
        """Filtered copy of one waveform (causal, steady-state start)."""
        # scipy.signal costs about a second to import; only this one
        # pole filter needs it, so it stays off the package import path.
        from scipy import signal as _signal

        if not waveform.is_uniform(rtol=1e-6):
            raise ValueError("band limiting needs a uniform time base")
        dt = waveform.sample_interval
        a = float(np.exp(-2.0 * np.pi * self.cutoff_hz * dt))
        b = [1.0 - a]
        denom = [1.0, -a]
        # Start the IIR from steady state at the first sample value so
        # the filter does not inject a start-up transient into the
        # periodic trace.
        zi = _signal.lfiltic(b, denom, [waveform.values[0]],
                             [waveform.values[0]])
        values, _ = _signal.lfilter(b, denom, waveform.values, zi=zi)
        return Waveform(waveform.times, values)

    def apply_pair(self, x: Waveform, y: Waveform) -> Tuple[Waveform, Waveform]:
        """Filter both composed signals."""
        return self.apply(x), self.apply(y)

    def apply_trace(self, trace: LissajousTrace) -> LissajousTrace:
        """Filter both channels of a Lissajous trace."""
        x, y = self.apply_pair(trace.x, trace.y)
        return LissajousTrace(x, y, trace.period)
