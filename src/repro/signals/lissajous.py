"""Lissajous composition of two signals (the X-Y oscilloscope view).

"In the X-Y zone testing method, signal monitoring is based on the
composition of two circuit signals, x(t) and y(t), in a similar way as
an oscilloscope in X-Y mode represents the trace on the screen."

A :class:`LissajousTrace` stores the two aligned waveforms plus the
common period, provides the (x, y) point cloud for zone encoding, and
offers bounding-box and ASCII-plot diagnostics.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.signals.multitone import Multitone
from repro.signals.waveform import Waveform


class LissajousTrace:
    """Two aligned waveforms interpreted as a parametric plane curve.

    Parameters
    ----------
    x, y:
        The composed signals; they must share the same time base.
    period:
        The common period of the composition.  When omitted, the full
        waveform duration is assumed to be exactly one period.
    """

    def __init__(self, x: Waveform, y: Waveform,
                 period: Optional[float] = None) -> None:
        if not np.array_equal(x.times, y.times):
            raise ValueError("x and y must share the same time base")
        self.x = x
        self.y = y
        self.period = float(period) if period is not None else x.duration

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_multitones(cls, x_signal: Multitone, y_signal: Multitone,
                        samples_per_period: int = 4096) -> "LissajousTrace":
        """Sample one exact common period of two multitone signals."""
        period_x = x_signal.period()
        period_y = y_signal.period()
        period = max(period_x, period_y)
        if abs(period_x - period_y) > 1e-12 * period:
            raise ValueError(
                "x and y multitones do not share a common period; "
                f"got {period_x} vs {period_y}")
        x = Waveform.from_function(x_signal, period, samples_per_period)
        y = Waveform.from_function(y_signal, period, samples_per_period)
        return cls(x, y, period)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Shared time base."""
        return self.x.times

    def points(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (x, y) arrays tracing the curve."""
        return self.x.values, self.y.values

    def point_at(self, t: float) -> Tuple[float, float]:
        """Interpolated curve point at time ``t`` (wrapped into period)."""
        tau = float(t) % self.period
        return self.x.value_at(tau), self.y.value_at(tau)

    def __len__(self) -> int:
        return len(self.x)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the trace."""
        return (float(np.min(self.x.values)), float(np.max(self.x.values)),
                float(np.min(self.y.values)), float(np.max(self.y.values)))

    def stays_within(self, lo: float, hi: float) -> bool:
        """True if both coordinates stay inside [lo, hi] (the 0-1 V window)."""
        xmin, xmax, ymin, ymax = self.bounding_box()
        return xmin >= lo and xmax <= hi and ymin >= lo and ymax <= hi

    def ascii_plot(self, width: int = 61, height: int = 25,
                   lo: float = 0.0, hi: float = 1.0) -> str:
        """Coarse ASCII rendering of the curve (for bench reports)."""
        grid = [[" "] * width for _ in range(height)]
        xs, ys = self.points()
        for x, y in zip(xs, ys):
            col = int((x - lo) / (hi - lo) * (width - 1) + 0.5)
            row = int((y - lo) / (hi - lo) * (height - 1) + 0.5)
            if 0 <= col < width and 0 <= row < height:
                grid[height - 1 - row][col] = "*"
        return "\n".join("".join(row) for row in grid)
