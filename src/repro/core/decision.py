"""PASS/FAIL decision on the NDF (paper Section IV-C and Fig. 8).

"The test decision is made by previously setting the desired level of
tolerance and checking whether the NDF lies in the acceptance or
rejection bands."

The decision itself is a single threshold on the NDF;
:class:`ThresholdCalibration` derives that threshold from a deviation
sweep (the Fig. 8 curve): given the acceptable parameter tolerance
(e.g. +-5 % on f0), the NDF threshold is the smallest sweep NDF on the
tolerance edge, and the acceptance band is [0, threshold].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one signature test."""

    __test__ = False  # not a pytest test class despite the name

    ndf: float
    threshold: float

    @property
    def passed(self) -> bool:
        """True when the NDF lies in the acceptance band."""
        return self.ndf <= self.threshold

    @property
    def margin(self) -> float:
        """Distance to the threshold (positive = inside the band)."""
        return self.threshold - self.ndf

    def __str__(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} (NDF={self.ndf:.4f}, threshold={self.threshold:.4f})"


class DecisionBand:
    """Acceptance band [0, threshold] on the NDF."""

    def __init__(self, threshold: float) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = float(threshold)

    def decide(self, ndf_value: float) -> TestVerdict:
        """Classify one measured NDF."""
        return TestVerdict(float(ndf_value), self.threshold)


@dataclass
class ThresholdCalibration:
    """NDF threshold derived from a deviation sweep (Fig. 8 procedure).

    Attributes
    ----------
    deviations:
        Relative parameter deviations of the sweep (sorted, spanning
        negative and positive values; 0 included).
    ndfs:
        Matching NDF values.
    """

    deviations: np.ndarray
    ndfs: np.ndarray

    def __post_init__(self) -> None:
        self.deviations = np.asarray(self.deviations, dtype=float)
        self.ndfs = np.asarray(self.ndfs, dtype=float)
        if self.deviations.shape != self.ndfs.shape:
            raise ValueError("deviations and ndfs must align")
        if np.any(np.diff(self.deviations) <= 0):
            raise ValueError("deviations must be strictly increasing")

    def ndf_at(self, deviation: float) -> float:
        """Interpolated NDF at a deviation."""
        return float(np.interp(deviation, self.deviations, self.ndfs))

    def threshold_for_tolerance(self, tolerance: float) -> float:
        """NDF value marking the edge of the +-tolerance band.

        The threshold is the *smaller* of the NDF values at the two
        tolerance edges, so every deviation outside the band maps to an
        NDF at or above the threshold under a monotone sweep.
        """
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        return min(self.ndf_at(-tolerance), self.ndf_at(+tolerance))

    def band_for_tolerance(self, tolerance: float) -> DecisionBand:
        """Decision band accepting deviations within +-tolerance."""
        return DecisionBand(self.threshold_for_tolerance(tolerance))

    def detectable_deviation(self, noise_floor_ndf: float) -> Tuple[float, float]:
        """Smallest +-deviations whose NDF exceeds a noise floor.

        Mirrors the paper's noise study conclusion ("deviations as low
        as 1 % in the natural frequency of the filter are detected"):
        with measurement noise, the golden NDF is not exactly zero, so
        detectability starts where the sweep crosses the noise floor.
        Returns (negative edge, positive edge); an edge is NaN when the
        sweep never crosses the floor on that side.
        """
        neg = _first_crossing(self.deviations[::-1] * -1.0,
                              self.ndfs[::-1], noise_floor_ndf)
        pos = _first_crossing(self.deviations, self.ndfs, noise_floor_ndf)
        return (-neg if neg == neg else float("nan"), pos)

    # ------------------------------------------------------------------
    # Shape diagnostics used by the Fig. 8 benchmark
    # ------------------------------------------------------------------
    def linearity_r2(self) -> Tuple[float, float]:
        """R^2 of |NDF| vs |deviation| on each side (paper: near-linear)."""
        return (_r_squared(-self.deviations[self.deviations <= 0],
                           self.ndfs[self.deviations <= 0]),
                _r_squared(self.deviations[self.deviations >= 0],
                           self.ndfs[self.deviations >= 0]))

    def symmetry_error(self) -> float:
        """Mean |NDF(+d) - NDF(-d)| over the sweep (paper: small)."""
        pos = self.deviations[self.deviations > 0]
        if pos.size == 0:
            return 0.0
        diffs = [abs(self.ndf_at(d) - self.ndf_at(-d)) for d in pos]
        return float(np.mean(diffs))


def _first_crossing(devs: np.ndarray, ndfs: np.ndarray,
                    floor: float) -> float:
    """Smallest positive deviation where the NDF reaches ``floor``."""
    mask = devs >= 0
    devs = devs[mask]
    ndfs = ndfs[mask]
    order = np.argsort(devs)
    devs, ndfs = devs[order], ndfs[order]
    above = np.nonzero(ndfs >= floor)[0]
    if above.size == 0:
        return float("nan")
    i = above[0]
    if i == 0:
        return float(devs[0])
    # Linear interpolation between the bracketing sweep points.
    d0, d1 = devs[i - 1], devs[i]
    n0, n1 = ndfs[i - 1], ndfs[i]
    if n1 == n0:
        return float(d1)
    return float(d0 + (floor - n0) * (d1 - d0) / (n1 - n0))


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    """Coefficient of determination of a least-squares line fit."""
    if x.size < 3:
        return float("nan")
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot
