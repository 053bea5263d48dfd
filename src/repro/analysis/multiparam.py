"""Multi-parameter verification: the NDF over the (f0, Q) plane.

The paper verifies one parameter (f0).  Real specs constrain several;
this module maps the NDF response surface over a (f0, Q)-deviation
grid and quantifies two things:

* **coverage** -- which parameter combinations a given NDF threshold
  rejects (``surface.ndf <= threshold`` is the acceptance region in
  parameter space);
* **ambiguity** -- the NDF is a scalar, so distinct parameter
  deviations can alias onto the same value; the ambiguity index
  measures how much of an NDF iso-contour spreads across parameter
  space, motivating the multi-channel extension
  (:mod:`repro.core.multichannel`) and the regression baseline for
  diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.testflow import SignatureTester
from repro.filters.biquad import BiquadFilter, BiquadSpec


@dataclass
class NdfSurface:
    """NDF sampled on a (f0 deviation, Q deviation) grid."""

    f0_deviations: np.ndarray
    q_deviations: np.ndarray
    ndf: np.ndarray  # shape (len(q_deviations), len(f0_deviations))

    def at(self, f0_dev: float, q_dev: float) -> float:
        """Bilinear interpolation on the surface."""
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(
            (self.q_deviations, self.f0_deviations), self.ndf)
        return float(interp([[q_dev, f0_dev]])[0])

    def f0_only_profile(self) -> np.ndarray:
        """The Fig. 8 cut: NDF along q_dev = 0."""
        row = int(np.argmin(np.abs(self.q_deviations)))
        return self.ndf[row]

    def q_only_profile(self) -> np.ndarray:
        """NDF along f0_dev = 0 (the parameter the LP tap barely sees)."""
        col = int(np.argmin(np.abs(self.f0_deviations)))
        return self.ndf[:, col]

    def ambiguity_index(self, level: float,
                        tolerance: float = 0.1) -> float:
        """Spread of the NDF iso-contour at ``level`` in parameter space.

        Collects grid points whose NDF is within ``tolerance`` x level
        of the level and returns the RMS spread of their parameter
        coordinates (normalized by the grid half-range).  0 would mean
        the level pins the parameters uniquely; values near 1 mean the
        contour spans the whole grid -- the scalar NDF cannot localize
        the defect.
        """
        mask = np.abs(self.ndf - level) <= tolerance * level
        if not np.any(mask):
            return float("nan")
        qq, ff = np.meshgrid(self.q_deviations, self.f0_deviations,
                             indexing="ij")
        f_sel = ff[mask]
        q_sel = qq[mask]
        f_range = max(abs(self.f0_deviations[0]),
                      abs(self.f0_deviations[-1]))
        q_range = max(abs(self.q_deviations[0]),
                      abs(self.q_deviations[-1]))
        spread = np.sqrt(np.std(f_sel / f_range) ** 2
                         + np.std(q_sel / q_range) ** 2)
        return float(spread)


def ndf_surface(tester: Optional[SignatureTester], golden_spec: BiquadSpec,
                f0_deviations: Sequence[float],
                q_deviations: Sequence[float],
                cut_factory: Optional[Callable] = None,
                engine=None) -> NdfSurface:
    """Sample the NDF over the (f0, Q) deviation grid.

    ``cut_factory(f0_dev, q_dev)`` may override how CUTs are built
    (e.g. to use the multi-channel CUT); the default deviates the
    behavioural Biquad.

    When a :class:`repro.campaign.CampaignEngine` is passed as
    ``engine`` (and no custom factory is in play), the whole grid runs
    as one batched campaign instead of ``len(grid)`` per-die
    measurements; ``tester`` may then be None.
    """
    f0_deviations = np.asarray(list(f0_deviations), dtype=float)
    q_deviations = np.asarray(list(q_deviations), dtype=float)

    if engine is not None and cut_factory is None:
        from repro.campaign.scenarios import parameter_grid

        population = parameter_grid(golden_spec, f0_deviations,
                                    q_deviations)
        result = engine.run(population, band=None)
        surface = result.ndfs.reshape(q_deviations.size,
                                      f0_deviations.size)
        return NdfSurface(f0_deviations, q_deviations, surface)

    if tester is None:
        raise ValueError("need a tester when not running via an engine")
    if cut_factory is None:
        def cut_factory(f0_dev: float, q_dev: float):
            return BiquadFilter(golden_spec.with_f0_deviation(f0_dev)
                                .with_q_deviation(q_dev))

    surface = np.empty((q_deviations.size, f0_deviations.size))
    for i, q_dev in enumerate(q_deviations):
        for j, f0_dev in enumerate(f0_deviations):
            surface[i, j] = tester.ndf_of(cut_factory(float(f0_dev),
                                                      float(q_dev)))
    return NdfSurface(f0_deviations, q_deviations, surface)
