"""65 nm-class technology statistics: Pelgrom mismatch, Monte Carlo.

The paper validates its fabricated monitor against "the predicted range
for Monte Carlo simulations using the foundry technology statistical
characterization" (process *and* mismatch).  The foundry PDK is
proprietary, so this module provides a documented surrogate:

* **Global process variation** -- a per-die shift of threshold voltage
  and a multiplicative factor on the transconductance parameter, shared
  by every device of the same polarity on the die.
* **Local mismatch** -- independent per-device fluctuations following
  Pelgrom's law: ``sigma(dVT) = A_VT / sqrt(W L)`` and
  ``sigma(dbeta/beta) = A_beta / sqrt(W L)`` with W, L in micrometres.
  Published 65 nm values put ``A_VT`` at roughly 3-4 mV.um for thin-oxide
  nMOS; we use 3.5 mV.um (nMOS) and 4.0 mV.um (pMOS).

The surrogate preserves the property the paper's Fig. 4 relies on: the
spread of monitor boundary curves shrinks as device area grows, and the
measured curves fall inside the +-3 sigma Monte Carlo envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.devices.mos_model import MosModel, MosParams, NMOS_65NM, PMOS_65NM


@dataclass(frozen=True)
class DeviceVariation:
    """Variation assigned to one concrete device instance.

    ``delta_vt`` is an additive threshold shift in volts and
    ``beta_factor`` a multiplicative factor on ``kp``; both combine the
    global (process) and local (mismatch) contributions.
    """

    delta_vt: float = 0.0
    beta_factor: float = 1.0

    def apply(self, model: MosModel) -> MosModel:
        """Return a copy of ``model`` with this variation folded in."""
        return model.with_params(
            model.params.with_variation(self.delta_vt, self.beta_factor))

    def combined_with(self, other: "DeviceVariation") -> "DeviceVariation":
        """Compose two variations (shifts add, factors multiply)."""
        return DeviceVariation(self.delta_vt + other.delta_vt,
                               self.beta_factor * other.beta_factor)


NOMINAL_VARIATION = DeviceVariation()


@dataclass(frozen=True)
class TechnologyParams:
    """Statistical characterization of a CMOS technology node.

    Attributes
    ----------
    name:
        Human-readable node name.
    nmos, pmos:
        Nominal (typical) model cards.
    sigma_vt_global:
        One-sigma global (die-to-die) threshold spread in volts.
    sigma_beta_global:
        One-sigma global relative spread of ``kp`` (dimensionless).
    avt_nmos_um, avt_pmos_um:
        Pelgrom threshold-mismatch coefficients in V*um (i.e. 3.5 mV*um
        is written 3.5e-3).
    abeta_um:
        Pelgrom current-factor mismatch coefficient in (relative)*um.
    vdd:
        Nominal supply voltage in volts.
    """

    name: str = "surrogate-65nm-lp"
    nmos: MosParams = NMOS_65NM
    pmos: MosParams = PMOS_65NM
    sigma_vt_global: float = 0.015
    sigma_beta_global: float = 0.05
    avt_nmos_um: float = 3.5e-3
    avt_pmos_um: float = 4.0e-3
    abeta_um: float = 0.01
    vdd: float = 1.2

    # ------------------------------------------------------------------
    # Mismatch statistics
    # ------------------------------------------------------------------
    def sigma_vt_mismatch(self, w: float, l: float,
                          polarity: int = 1) -> float:
        """Pelgrom sigma(dVT) in volts for a device of W x L metres."""
        area_um2 = (w * 1e6) * (l * 1e6)
        if area_um2 <= 0:
            raise ValueError("device area must be positive")
        avt = self.avt_nmos_um if polarity > 0 else self.avt_pmos_um
        return avt / math.sqrt(area_um2)

    def sigma_beta_mismatch(self, w: float, l: float) -> float:
        """Pelgrom sigma(dbeta/beta), dimensionless."""
        area_um2 = (w * 1e6) * (l * 1e6)
        if area_um2 <= 0:
            raise ValueError("device area must be positive")
        return self.abeta_um / math.sqrt(area_um2)


#: Default surrogate technology used throughout the reproduction.
TECH_65NM = TechnologyParams()


class MonteCarloSampler:
    """Samples per-die process shifts and per-device mismatch.

    One :meth:`sample_die` call draws the global (process) variation
    shared by every device on a die; :meth:`DieSample.device_variation`
    then adds an independent Pelgrom-scaled local term per device.

    Parameters
    ----------
    tech:
        Technology statistics.
    rng:
        A :class:`numpy.random.Generator` or an integer seed.
    include_process, include_mismatch:
        Toggles for the two variation sources, so ablations can isolate
        them (the paper's Fig. 4 envelope includes both).
    """

    def __init__(self, tech: TechnologyParams = TECH_65NM,
                 rng=0,
                 include_process: bool = True,
                 include_mismatch: bool = True) -> None:
        self.tech = tech
        self.rng = (rng if isinstance(rng, np.random.Generator)
                    else np.random.default_rng(rng))
        self.include_process = include_process
        self.include_mismatch = include_mismatch

    def sample_die(self) -> "DieSample":
        """Draw one die: global nMOS/pMOS shifts, lazily-drawn mismatch."""
        if self.include_process:
            g = self.rng.standard_normal(4)
            nmos_global = DeviceVariation(
                delta_vt=float(g[0]) * self.tech.sigma_vt_global,
                beta_factor=max(0.05, 1.0 + float(g[1])
                                * self.tech.sigma_beta_global))
            pmos_global = DeviceVariation(
                delta_vt=float(g[2]) * self.tech.sigma_vt_global,
                beta_factor=max(0.05, 1.0 + float(g[3])
                                * self.tech.sigma_beta_global))
        else:
            nmos_global = NOMINAL_VARIATION
            pmos_global = NOMINAL_VARIATION
        return DieSample(self, nmos_global, pmos_global)

    def dies(self, count: int) -> Iterator["DieSample"]:
        """Yield ``count`` independent die samples."""
        for _ in range(count):
            yield self.sample_die()


class DieSample:
    """Variation context for one simulated die."""

    def __init__(self, sampler: MonteCarloSampler,
                 nmos_global: DeviceVariation,
                 pmos_global: DeviceVariation) -> None:
        self._sampler = sampler
        self.nmos_global = nmos_global
        self.pmos_global = pmos_global

    def device_variation(self, w: float, l: float,
                         polarity: int = 1) -> DeviceVariation:
        """Global + fresh local mismatch for one device of size W x L."""
        base = self.nmos_global if polarity > 0 else self.pmos_global
        if not self._sampler.include_mismatch:
            return base
        tech = self._sampler.tech
        rng = self._sampler.rng
        local = DeviceVariation(
            delta_vt=float(rng.standard_normal())
            * tech.sigma_vt_mismatch(w, l, polarity),
            beta_factor=max(0.05, 1.0 + float(rng.standard_normal())
                            * tech.sigma_beta_mismatch(w, l)))
        return base.combined_with(local)

    def vary(self, model: MosModel) -> MosModel:
        """Apply this die's variation to a sized nominal device."""
        variation = self.device_variation(model.w, model.l,
                                          model.params.polarity)
        return variation.apply(model)
