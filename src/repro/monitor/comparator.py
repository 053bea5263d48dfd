"""Analytic model of the current-comparator monitor (paper Fig. 2).

The monitor is a source-grounded (pseudo) differential pair with four
nMOS inputs: M1, M2 sum their drain currents on the left branch, M3, M4
on the right.  The output flips where the branch currents balance::

    I(M1; V1) + I(M2; V2)  =  I(M3; V3) + I(M4; V4)

Each input is wired either to the composed signal x(t), to y(t), or to
a DC bias (Table I).  With the quasi-quadratic MOS law the zero set of
the balance equation draws *nonlinear* boundaries in the X-Y plane --
circular/hyperbolic arcs in strong inversion, straightening below
threshold exactly as the paper describes.

:class:`MonitorBoundary` exposes the balance as a
:class:`repro.core.boundaries.Boundary` decision function, so a bank of
monitors is directly a :class:`repro.core.zones.ZoneEncoder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.boundaries import Boundary
from repro.devices.mos_model import MosModel, MosParams, NMOS_65NM
from repro.devices.process import DeviceVariation, DieSample

#: An input hookup: the literal strings "x"/"y" or a DC level in volts.
Hookup = Union[str, float]

#: Default channel length of the Table I devices (180 nm).
TABLE1_LENGTH = 180e-9


def _resolve(hookup: Hookup, x, y):
    """Voltage seen by one gate for hookup and plane coordinates."""
    if isinstance(hookup, str):
        if hookup == "x":
            return x
        if hookup == "y":
            return y
        raise ValueError(f"hookup must be 'x', 'y' or a float, got {hookup!r}")
    return hookup


@dataclass(frozen=True)
class MonitorConfig:
    """Sizing and wiring of one monitor (a Table I row).

    Attributes
    ----------
    widths_nm:
        Channel widths of M1..M4 in nanometres.
    hookups:
        What each of V1..V4 is tied to: "x", "y" or a DC volt value.
    length_nm:
        Common channel length in nanometres (Table I: L = 180 nm).
    name:
        Identifier used in reports (e.g. "curve3").
    reference_point:
        Optional off-boundary point defining the zero side when the
        boundary passes through the origin (the 45-degree curve 6).
    """

    widths_nm: Tuple[float, float, float, float]
    hookups: Tuple[Hookup, Hookup, Hookup, Hookup]
    length_nm: float = 180.0
    name: str = "monitor"
    reference_point: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if len(self.widths_nm) != 4 or len(self.hookups) != 4:
            raise ValueError("monitor needs exactly four inputs")
        signals = [h for h in self.hookups if isinstance(h, str)]
        for h in signals:
            if h not in ("x", "y"):
                raise ValueError(f"bad hookup {h!r}")
        if "x" not in signals or "y" not in signals:
            raise ValueError("monitor must observe both x and y")

    def devices(self, params: MosParams = NMOS_65NM) -> Tuple[MosModel, ...]:
        """Sized nominal input devices M1..M4."""
        return tuple(MosModel(params, w * 1e-9, self.length_nm * 1e-9)
                     for w in self.widths_nm)


class MonitorBoundary(Boundary):
    """Zone boundary realized by one current-comparator monitor.

    The decision function is the branch-current imbalance
    ``g(x, y) = [I1 + I2] - [I3 + I4]`` evaluated with the smooth device
    model; its sign is the comparator's digital output (after the
    origin-side normalization of :class:`Boundary`).

    Channel-length modulation is left out of the balance: at the trip
    point the high-gain load forces the two output nodes through the
    same voltage, so the CLM factors of the two branches cancel to
    first order (the transistor-level benchmark quantifies the residual
    difference).

    Parameters
    ----------
    config:
        Wiring and sizing.
    params:
        nMOS model card (typical by default).
    variations:
        Optional per-device variation list (M1..M4) for Monte Carlo.
    """

    def __init__(self, config: MonitorConfig,
                 params: MosParams = NMOS_65NM,
                 variations: Optional[Sequence[DeviceVariation]] = None) -> None:
        super().__init__(config.name,
                         reference_point=config.reference_point)
        self.config = config
        devices = list(config.devices(params))
        if variations is not None:
            if len(variations) != 4:
                raise ValueError("need one variation per device")
            devices = [var.apply(dev)
                       for dev, var in zip(devices, variations)]
        self.devices: Tuple[MosModel, ...] = tuple(devices)

    # ------------------------------------------------------------------
    def branch_currents(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        """(left, right) branch currents at plane point(s)."""
        gates = [_resolve(h, x, y) for h in self.config.hookups]
        currents = [dev.saturation_current(v)
                    for dev, v in zip(self.devices, gates)]
        return currents[0] + currents[1], currents[2] + currents[3]

    def decision(self, x, y):
        left, right = self.branch_currents(x, y)
        out = left - right
        if np.ndim(out) == 0:
            return float(out)
        return out

    # ------------------------------------------------------------------
    def with_die(self, die: DieSample) -> "MonitorBoundary":
        """Monte Carlo copy: apply a die's process+mismatch variation."""
        variations = [die.device_variation(dev.w, dev.l,
                                           dev.params.polarity)
                      for dev in self.devices]
        # Re-derive the per-device parameter sets from the *nominal*
        # config so repeated sampling does not compound.
        params = self.devices[0].params  # same card for all four
        return MonitorBoundary(self.config, params, variations)
