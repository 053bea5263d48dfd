"""Multitone stimuli with exact rational periods and LTI propagation.

The paper drives the Biquad CUT with a multitone input so that the
composition of input and output traces a closed Lissajous curve: "If the
frequency ratio of the periodic signals is rational, the resultant curve
is also periodic".  This module provides:

* :class:`Tone` / :class:`Multitone` -- sums of sinusoids plus a DC
  offset, evaluable at arbitrary times;
* exact common-period computation through :class:`fractions.Fraction`,
  so the signature's "one period" is not polluted by floating-point
  drift;
* :meth:`Multitone.through` -- the *exact* steady-state response of an
  LTI system, obtained by scaling each tone by ``|H(j w)|`` and adding
  ``arg H(j w)`` to its phase (DC maps through ``H(0)``).  This is the
  behavioural Biquad path used by most experiments; the structural
  netlist validates it in the integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.signals.waveform import Waveform


def _as_fraction(freq_hz: float, max_denominator: int = 10 ** 9) -> Fraction:
    """Rational representation of a frequency for period arithmetic."""
    if freq_hz <= 0:
        raise ValueError("tone frequencies must be positive")
    return Fraction(freq_hz).limit_denominator(max_denominator)


@dataclass(frozen=True)
class Tone:
    """One sinusoidal component ``a * sin(2 pi f t + phase)``."""

    freq_hz: float
    amplitude: float
    phase_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError("tone frequency must be positive")

    @property
    def phase_rad(self) -> float:
        """Phase in radians."""
        return math.radians(self.phase_deg)

    def evaluate(self, t):
        """Tone value at time(s) ``t``."""
        t = np.asarray(t, dtype=float)
        out = self.amplitude * np.sin(2.0 * math.pi * self.freq_hz * t
                                      + self.phase_rad)
        if out.ndim == 0:
            return float(out)
        return out


class Multitone:
    """A DC offset plus a sum of sinusoidal tones.

    Instances are callable (``stimulus(t)``) so they plug directly into
    :class:`repro.circuits.components.VoltageSource`.

    Parameters
    ----------
    tones:
        The sinusoidal components.
    offset:
        DC offset in volts (the paper biases signals to mid-supply so
        the Lissajous lives in the 0-1 V window).
    """

    def __init__(self, tones: Sequence[Tone], offset: float = 0.0) -> None:
        if not tones:
            raise ValueError("a multitone needs at least one tone")
        self.tones: Tuple[Tone, ...] = tuple(tones)
        self.offset = float(offset)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, t):
        """Signal value at time(s) ``t``."""
        t_arr = np.asarray(t, dtype=float)
        total = np.full(t_arr.shape, self.offset, dtype=float)
        for tone in self.tones:
            total = total + tone.evaluate(t_arr)
        if t_arr.ndim == 0:
            return float(total)
        return total

    # ------------------------------------------------------------------
    # Periodicity
    # ------------------------------------------------------------------
    def fundamental_frequency(self) -> float:
        """GCD of the tone frequencies (hertz), computed exactly.

        This is the reciprocal of the signature period T used by the
        NDF integral.
        """
        fracs = [_as_fraction(tone.freq_hz) for tone in self.tones]
        gcd = fracs[0]
        for frac in fracs[1:]:
            gcd = Fraction(math.gcd(gcd.numerator * frac.denominator,
                                    frac.numerator * gcd.denominator),
                           gcd.denominator * frac.denominator)
        return float(gcd)

    def period(self) -> float:
        """Common period of all tones, in seconds."""
        return 1.0 / self.fundamental_frequency()

    # ------------------------------------------------------------------
    # Derived signals
    # ------------------------------------------------------------------
    def through(self, transfer: Callable[[float], complex]) -> "Multitone":
        """Exact steady-state of this stimulus through an LTI system.

        ``transfer`` maps a frequency in hertz to the complex gain
        ``H(j 2 pi f)``; it is also evaluated at 0 Hz for the offset.
        Each tone's amplitude is scaled by ``|H|`` and its phase advanced
        by ``arg H``.
        """
        new_tones = []
        for tone in self.tones:
            h = complex(transfer(tone.freq_hz))
            new_tones.append(Tone(tone.freq_hz,
                                  tone.amplitude * abs(h),
                                  tone.phase_deg + math.degrees(np.angle(h))))
        h0 = complex(transfer(0.0))
        # Structural models evaluate "DC" at a small positive frequency,
        # leaving a tiny imaginary residue; tolerate that, reject a
        # genuinely complex DC gain.
        if abs(h0.imag) > 1e-6 * max(abs(h0.real), 1.0):
            raise ValueError("transfer function is not real at DC")
        return Multitone(new_tones, self.offset * h0.real)

    def scaled(self, factor: float) -> "Multitone":
        """AC-scale the stimulus (offset untouched)."""
        return Multitone([Tone(t.freq_hz, t.amplitude * factor, t.phase_deg)
                          for t in self.tones], self.offset)

    def with_offset(self, offset: float) -> "Multitone":
        """Copy with a different DC offset."""
        return Multitone(self.tones, offset)

    def sample(self, samples_per_period: int = 4096,
               periods: int = 1, t_start: float = 0.0) -> Waveform:
        """Uniformly sample whole periods into a :class:`Waveform`.

        The endpoint is excluded so ``periods`` periods tile seamlessly.
        """
        if samples_per_period < 2:
            raise ValueError("need at least 2 samples per period")
        if periods < 1:
            raise ValueError("periods must be >= 1")
        t_len = self.period() * periods
        n = samples_per_period * periods
        return Waveform.from_function(self, t_start + t_len, n,
                                      t_start=t_start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tones = ", ".join(f"{t.amplitude:g}V@{t.freq_hz:g}Hz"
                          for t in self.tones)
        return f"<Multitone offset={self.offset:g}V tones=[{tones}]>"


def two_tone(f1_hz: float, f2_hz: float, a1: float, a2: float,
             offset: float = 0.0, phase1_deg: float = 0.0,
             phase2_deg: float = 0.0) -> Multitone:
    """Convenience constructor for the common two-tone stimulus."""
    return Multitone([Tone(f1_hz, a1, phase1_deg),
                      Tone(f2_hz, a2, phase2_deg)], offset)
