"""Self-contained MNA circuit simulator (the reproduction's "SPICE").

The paper's evaluation is driven by circuit simulation of a Biquad
filter and a transistor-level monitor; no external simulator is
available offline, so this package implements the required subset of a
SPICE-class engine from scratch:

* :mod:`repro.circuits.netlist` -- circuit container and unknown numbering
* :mod:`repro.circuits.components` -- R, C, L, independent and controlled
  sources, diode, ideal op-amp, source waveform helpers
* :mod:`repro.circuits.mosfet` -- MOSFET element over :mod:`repro.devices`
* :mod:`repro.circuits.mna` -- matrix assembly and linear solves
* :mod:`repro.circuits.dc` -- damped Newton with gmin/source stepping
* :mod:`repro.circuits.transient` -- trapezoidal / backward-Euler integration
* :mod:`repro.circuits.ac` -- small-signal frequency sweeps
"""

from repro.circuits.netlist import Circuit, CircuitError
from repro.circuits.components import (
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    Element,
    IdealOpAmp,
    Inductor,
    Resistor,
    StampContext,
    Vccs,
    Vcvs,
    VoltageSource,
    piecewise_linear,
    pulse,
    sine,
)
from repro.circuits.mosfet import Mosfet
from repro.circuits.mna import MnaSystem, SingularCircuitError
from repro.circuits.dc import (
    ConvergenceError,
    DcSolution,
    NewtonOptions,
    dc_operating_point,
    dc_solve_batch,
)
from repro.circuits.transient import TransientResult, transient
from repro.circuits.ac import (
    AcResult,
    AcStampPattern,
    BatchAcResult,
    ac_analysis,
    ac_analysis_batch,
    systems_share_topology,
)
from repro.circuits.parser import NetlistError, parse_netlist, parse_value

__all__ = [
    "Circuit",
    "CircuitError",
    "Element",
    "StampContext",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "Vcvs",
    "Vccs",
    "Cccs",
    "Ccvs",
    "Diode",
    "IdealOpAmp",
    "Mosfet",
    "sine",
    "pulse",
    "piecewise_linear",
    "MnaSystem",
    "SingularCircuitError",
    "ConvergenceError",
    "DcSolution",
    "NewtonOptions",
    "dc_operating_point",
    "dc_solve_batch",
    "TransientResult",
    "transient",
    "AcResult",
    "AcStampPattern",
    "BatchAcResult",
    "ac_analysis",
    "ac_analysis_batch",
    "systems_share_topology",
    "NetlistError",
    "parse_netlist",
    "parse_value",
]
