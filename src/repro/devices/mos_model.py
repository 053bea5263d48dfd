"""Smooth MOSFET model (EKV-style charge-sheet interpolation).

The paper's monitor (Fig. 2) exploits the quasi-quadratic drain current
of an nMOS transistor in saturation to draw *nonlinear* boundaries in the
X-Y plane, and notes that boundaries degenerate towards straight lines
when inputs fall below the threshold voltage (subthreshold operation).
Reproducing both regimes therefore needs a model that is:

* quadratic in ``VGS - VT`` in strong inversion / saturation,
* exponential below threshold,
* smooth (C-infinity) across the transition so that Newton iterations in
  the circuit simulator converge and boundary loci have no kinks.

The EKV interpolation satisfies all three.  The drain current of a
long-channel device is written as the difference of a *forward* and a
*reverse* component, each of the form::

    I(v) = I0 * ln(1 + exp(v / (2 n UT)))^2      with I0 = 2 n^2 beta UT^2

For ``v >> n UT`` the log-exp term tends to ``v / (2 n UT)`` and the
component becomes the textbook square law ``(beta / 2) v^2`` -- exactly
the idealization used in the paper's boundary equations; for
``v << -n UT`` it tends to the subthreshold exponential with slope
``n UT`` per e-fold.

Only the behaviour the paper needs is modelled: no velocity saturation,
no DIBL.  Channel-length modulation enters as the usual
``(1 + lambda |VDS|)`` factor because the monitor's differential branches
see unequal drain voltages while switching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Thermal voltage kT/q at 300 K, in volts.
THERMAL_VOLTAGE = 0.02585


def softplus(x):
    """Numerically safe ``ln(1 + exp(x))`` for scalars or arrays."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def sigmoid(x):
    """Numerically stable logistic function, derivative of softplus."""
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    z = np.exp(-np.abs(x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


@dataclass(frozen=True)
class MosParams:
    """Static parameters of a MOSFET model card.

    Attributes
    ----------
    polarity:
        ``+1`` for nMOS, ``-1`` for pMOS.  pMOS voltages are mirrored
        internally so the same equations serve both polarities.
    vt0:
        Zero-bias threshold voltage magnitude in volts.
    kp:
        Transconductance parameter ``mu * Cox`` in A/V^2.
    n:
        Subthreshold slope factor (dimensionless, typically 1.2-1.5).
    lambda_:
        Channel-length modulation coefficient in 1/V.
    temperature_k:
        Junction temperature in kelvin; sets the thermal voltage.
    """

    polarity: int = 1
    vt0: float = 0.42
    kp: float = 400e-6
    n: float = 1.30
    lambda_: float = 0.15
    temperature_k: float = 300.0

    @property
    def thermal_voltage(self) -> float:
        """Thermal voltage kT/q for the model temperature."""
        return THERMAL_VOLTAGE * (self.temperature_k / 300.0)

    def with_variation(self, delta_vt: float = 0.0,
                       beta_factor: float = 1.0) -> "MosParams":
        """Return a copy shifted by a threshold delta and a beta multiplier.

        This is the entry point for process/mismatch Monte Carlo: both
        kinds of variation act through ``vt0`` shifts and multiplicative
        ``kp`` scaling (see :mod:`repro.devices.process`).
        """
        return replace(self, vt0=self.vt0 + delta_vt,
                       kp=self.kp * beta_factor)


#: Representative 65 nm-class low-power nMOS model card.  The paper does
#: not publish its foundry model, so these are documented surrogates
#: (VT around 0.42 V, K' of a few hundred uA/V^2; docs/paper_map.md).
NMOS_65NM = MosParams(polarity=1, vt0=0.42, kp=400e-6, n=1.30, lambda_=0.15)

#: Representative 65 nm-class pMOS card (mobility roughly 1/3 of nMOS).
PMOS_65NM = MosParams(polarity=-1, vt0=0.40, kp=140e-6, n=1.35, lambda_=0.15)


@dataclass(frozen=True)
class MosModel:
    """A sized MOSFET: model card plus channel width and length.

    Terminal voltages are node voltages of the device as wired in the
    circuit; pMOS devices are mirrored internally.  The body effect is
    folded into ``vt0`` (all sources are grounded or tied to a rail in
    the paper's circuits, so a gamma term would be inert).

    Parameters
    ----------
    params:
        The :class:`MosParams` model card.
    w, l:
        Channel width and length in metres.
    """

    params: MosParams
    w: float = 1.8e-6
    l: float = 180e-9

    def __post_init__(self) -> None:
        if self.w <= 0 or self.l <= 0:
            raise ValueError(
                f"MOSFET dimensions must be positive, got W={self.w}, L={self.l}")

    @property
    def beta(self) -> float:
        """Device transconductance factor ``kp * W / L`` in A/V^2."""
        return self.params.kp * self.w / self.l

    @property
    def unit_current(self) -> float:
        """EKV normalization current ``2 n^2 beta UT^2`` in amperes."""
        ut = self.params.thermal_voltage
        n = self.params.n
        return 2.0 * n * n * self.beta * ut * ut

    # ------------------------------------------------------------------
    # Normalized EKV branch (device-oriented voltages, nMOS sense)
    # ------------------------------------------------------------------
    def _branch(self, v_over):
        """Dimensionless EKV component ``ln(1+exp(v/(2 n UT)))^2``."""
        ut = self.params.thermal_voltage
        return softplus(np.asarray(v_over, float)
                        / (2.0 * self.params.n * ut)) ** 2

    # ------------------------------------------------------------------
    # Currents
    # ------------------------------------------------------------------
    def drain_current(self, vgs, vds, with_clm: bool = True):
        """Drain-to-source current for the given terminal voltages.

        Accepts scalars or broadcastable numpy arrays.  The returned
        value follows the standard convention: positive current flows
        into the drain terminal for a conducting nMOS; for a conducting
        pMOS the returned value is negative (current flows out of the
        drain node).
        """
        pol = self.params.polarity
        vgs_d = pol * np.asarray(vgs, dtype=float)
        vds_d = pol * np.asarray(vds, dtype=float)
        # The device is source/drain symmetric: mirror so vds >= 0.
        swap = vds_d < 0
        vgs_eff = np.where(swap, vgs_d - vds_d, vgs_d)
        vds_eff = np.abs(vds_d)

        n = self.params.n
        vt0 = self.params.vt0
        fwd = self._branch(vgs_eff - vt0)
        rev = self._branch(vgs_eff - vt0 - n * vds_eff)
        ids = self.unit_current * (fwd - rev)
        if with_clm:
            ids = ids * (1.0 + self.params.lambda_ * vds_eff)
        ids = np.where(swap, -ids, ids)
        result = pol * ids
        if np.ndim(result) == 0:
            return float(result)
        return result

    def saturation_current(self, vgs, with_clm: bool = False, vds=None):
        """Forward (saturation) current of a grounded-source device.

        This is the quantity the monitor's boundary equation balances:
        asymptotically the square law ``(beta / 2)(|vgs| - vt)^2`` in
        strong inversion, an exponential below threshold.  ``vgs`` is
        the circuit-level gate-source voltage (negative for a conducting
        pMOS); the returned current is the magnitude flowing through the
        channel (always >= 0).
        """
        pol = self.params.polarity
        vgs_d = pol * np.asarray(vgs, dtype=float)
        ids = self.unit_current * self._branch(vgs_d - self.params.vt0)
        if with_clm:
            if vds is None:
                raise ValueError("with_clm=True requires vds")
            ids = ids * (1.0 + self.params.lambda_
                         * np.abs(np.asarray(vds, float)))
        if np.ndim(ids) == 0:
            return float(ids)
        return ids

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_params(self, params: MosParams) -> "MosModel":
        """Return a copy with a different model card (same W/L)."""
        return MosModel(params, self.w, self.l)


def square_law_current(beta: float, vgs: float, vt: float) -> float:
    """Ideal square-law saturation current, the paper's analytic idealization.

    ``I = beta/2 (vgs - vt)^2`` above threshold, 0 below.  Used by tests
    to pin the smooth model's strong-inversion asymptote and by the
    closed-form boundary expectations in the benchmarks.
    """
    over = vgs - vt
    if over <= 0:
        return 0.0
    return 0.5 * beta * over * over
