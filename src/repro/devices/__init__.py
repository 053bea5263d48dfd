"""Device models and process-variation statistics.

This package provides the transistor-level physics the paper's monitor
depends on:

* :mod:`repro.devices.mos_model` -- a smooth MOSFET model (EKV-style
  interpolation between subthreshold exponential and strong-inversion
  square law).  The quasi-quadratic saturation law is what turns the
  current comparator of the paper's Fig. 2 into a *nonlinear* zone
  boundary in the X-Y plane.
* :mod:`repro.devices.process` -- 65 nm-class technology parameters
  and Pelgrom-law mismatch used for Monte Carlo spread
  of the monitor boundaries (paper's Fig. 4 validation).
"""

from repro.devices.mos_model import MosParams, MosModel, NMOS_65NM, PMOS_65NM
from repro.devices.process import (
    TechnologyParams,
    DeviceVariation,
    MonteCarloSampler,
    TECH_65NM,
)
from repro.devices.temperature import (
    at_temperature,
    boundary_temperature_drift,
    industrial_range,
)

__all__ = [
    "MosParams",
    "MosModel",
    "NMOS_65NM",
    "PMOS_65NM",
    "TechnologyParams",
    "DeviceVariation",
    "MonteCarloSampler",
    "TECH_65NM",
    "at_temperature",
    "boundary_temperature_drift",
    "industrial_range",
]
