"""Sampled waveform container with light algebra.

A :class:`Waveform` is a pair of aligned numpy arrays ``(times, values)``
with helpers for resampling, slicing, arithmetic and interpolation.  It
is the common currency between the circuit simulator
(:class:`repro.circuits.transient.TransientResult`), the behavioural
filter models, and the signature pipeline.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

Number = Union[int, float]


class Waveform:
    """A sampled real-valued signal ``v(t)``.

    Times must be strictly increasing.  Instances behave like value
    types: arithmetic returns new waveforms and operands must share the
    same time base (checked, not resampled implicitly -- silent
    resampling hides alignment bugs in test pipelines).
    """

    __slots__ = ("times", "values")

    def __init__(self, times, values) -> None:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be 1-D")
        if times.shape != values.shape:
            raise ValueError(
                f"shape mismatch: {times.shape} vs {values.shape}")
        if times.size < 2:
            raise ValueError("a waveform needs at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.values = values

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_function(cls, func: Callable[[np.ndarray], np.ndarray],
                      t_stop: float, num_samples: int,
                      t_start: float = 0.0) -> "Waveform":
        """Sample ``func`` on a uniform grid of ``num_samples`` points.

        The grid spans ``[t_start, t_stop)`` -- the endpoint is excluded
        so that one period of a periodic signal tiles seamlessly.
        """
        if num_samples < 2:
            raise ValueError("need at least two samples")
        times = t_start + (t_stop - t_start) * np.arange(num_samples) / num_samples
        values = np.asarray(func(times), dtype=float)
        if values.shape != times.shape:
            # Allow scalar-only callables.
            values = np.asarray([float(func(t)) for t in times])
        return cls(times, values)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Time span covered by the samples."""
        return float(self.times[-1] - self.times[0])

    @property
    def sample_interval(self) -> float:
        """Median sampling interval."""
        return float(np.median(np.diff(self.times)))

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        """True when the time base is uniformly spaced."""
        dt = np.diff(self.times)
        return bool(np.all(np.abs(dt - dt[0]) <= rtol * abs(dt[0])))

    def __len__(self) -> int:
        return int(self.times.size)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def value_at(self, t) -> Union[float, np.ndarray]:
        """Linear interpolation at time(s) ``t``."""
        out = np.interp(t, self.times, self.values)
        if np.ndim(t) == 0:
            return float(out)
        return out

    def sliced(self, t_start: float, t_stop: float) -> "Waveform":
        """Sub-waveform covering [t_start, t_stop]."""
        mask = (self.times >= t_start) & (self.times <= t_stop)
        if np.count_nonzero(mask) < 2:
            raise ValueError("slice contains fewer than two samples")
        return Waveform(self.times[mask], self.values[mask])

    def shifted(self, dt: float) -> "Waveform":
        """Copy with the time base shifted by ``dt``."""
        return Waveform(self.times + dt, self.values)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Time-weighted mean value (trapezoidal)."""
        return float(np.trapezoid(self.values, self.times) / self.duration)

    def rms(self) -> float:
        """Time-weighted RMS value (trapezoidal)."""
        return float(np.sqrt(np.trapezoid(self.values ** 2, self.times)
                             / self.duration))

    def peak_to_peak(self) -> float:
        """max - min of the samples."""
        return float(np.max(self.values) - np.min(self.values))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check_aligned(self, other: "Waveform") -> None:
        if not np.array_equal(self.times, other.times):
            raise ValueError("waveforms are not on the same time base; "
                             "resample explicitly first")

    def _binary(self, other, op) -> "Waveform":
        if isinstance(other, Waveform):
            self._check_aligned(other)
            return Waveform(self.times, op(self.values, other.values))
        return Waveform(self.times, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return Waveform(self.times, float(other) - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return Waveform(self.times, -self.values)

    def map(self, func: Callable[[np.ndarray], np.ndarray]) -> "Waveform":
        """Apply an elementwise function to the values."""
        return Waveform(self.times, np.asarray(func(self.values), float))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Waveform {len(self)} samples, "
                f"t=[{self.times[0]:.3g}, {self.times[-1]:.3g}]s>")
