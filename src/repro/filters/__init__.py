"""The Biquad circuit under test (CUT) and its fault models.

* :mod:`repro.filters.biquad` -- spec + exact behavioural model
* :mod:`repro.filters.towthomas` -- structural active-RC netlist
* :mod:`repro.filters.faults` -- parametric and catastrophic faults
"""

from repro.filters.biquad import BiquadFilter, BiquadKind, BiquadSpec
from repro.filters.towthomas import TowThomasBiquad, TowThomasValues
from repro.filters.faults import (
    Fault,
    FaultKind,
    catastrophic_fault_universe,
    f0_deviation,
    parametric_sweep,
)

__all__ = [
    "BiquadFilter",
    "BiquadKind",
    "BiquadSpec",
    "TowThomasBiquad",
    "TowThomasValues",
    "Fault",
    "FaultKind",
    "catastrophic_fault_universe",
    "f0_deviation",
    "parametric_sweep",
]
