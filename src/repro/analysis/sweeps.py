"""Sweep and population studies over the signature test bench.

Drivers for the Section IV-C noise experiment and the catastrophic-fault
extension:

* :func:`noise_detection_study` -- Section IV-C: noisy NDF populations
  of the golden unit and small deviations, yielding the minimum
  detectable deviation;
* :func:`catastrophic_coverage` -- NDF and verdict for every open/short
  in the Tow-Thomas fault universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.decision import DecisionBand
from repro.core.testflow import SignatureTester
from repro.filters.biquad import BiquadFilter, BiquadSpec
from repro.filters.faults import Fault, catastrophic_fault_universe
from repro.filters.towthomas import TowThomasValues
from repro.signals.noise import NoiseModel


@dataclass
class NoiseStudyResult:
    """Outcome of the Section IV-C noise experiment."""

    golden_population: np.ndarray
    deviation_populations: Dict[float, np.ndarray]
    threshold: float

    def detection_rates(self) -> Dict[float, float]:
        """Fraction of noisy runs flagged FAIL per deviation."""
        return {dev: float(np.mean(pop > self.threshold))
                for dev, pop in self.deviation_populations.items()}

    def false_alarm_rate(self) -> float:
        """Fraction of golden runs wrongly flagged FAIL."""
        return float(np.mean(self.golden_population > self.threshold))


def noise_detection_study(tester: SignatureTester, golden_spec: BiquadSpec,
                          noise: NoiseModel,
                          deviations: Sequence[float] = (-0.02, -0.01,
                                                         0.01, 0.02),
                          repeats: int = 20,
                          guard_sigma: float = 3.0) -> NoiseStudyResult:
    """Noisy NDF populations and the resulting detection rates.

    The decision threshold is set from the golden noisy population
    (mean + ``guard_sigma`` standard deviations) -- the production
    calibration a test engineer would run.
    """
    golden_pop = tester.noisy_ndf_population(
        BiquadFilter(golden_spec), noise, repeats)
    threshold = float(np.mean(golden_pop)
                      + guard_sigma * np.std(golden_pop))
    populations = {}
    for dev in deviations:
        cut = BiquadFilter(golden_spec.with_f0_deviation(dev))
        populations[dev] = tester.noisy_ndf_population(cut, noise, repeats)
    return NoiseStudyResult(golden_pop, populations, threshold)


@dataclass
class FaultCoverageRow:
    """One catastrophic fault's outcome."""

    fault: Fault
    ndf: float
    detected: bool


def catastrophic_coverage(tester: SignatureTester,
                          values: TowThomasValues,
                          band: DecisionBand,
                          faults: Optional[Sequence[Fault]] = None
                          ) -> List[FaultCoverageRow]:
    """NDF and verdict for each open/short of the Tow-Thomas CUT."""
    faults = list(faults) if faults is not None \
        else catastrophic_fault_universe()
    rows = []
    for fault in faults:
        cut = fault.apply_to_biquad(values)
        value = tester.ndf_of(cut)
        rows.append(FaultCoverageRow(fault, value,
                                     value > band.threshold))
    return rows
