"""MOSFET netlist element wrapping :class:`repro.devices.MosModel`.

The element linearizes the smooth EKV-style device around the current
Newton iterate with the standard companion model::

    Id ~= Id0 + gm (vgs - vgs0) + gds (vds - vds0)

and stamps the equivalent VCCS pair plus a history current source.
Terminals are (drain, gate, source); the bulk is assumed tied to the
source rail (all circuits in the paper ground the nMOS sources and tie
pMOS sources to VDD, so the body effect is inert -- see
:mod:`repro.devices.mos_model`).
"""

from __future__ import annotations

from typing import Tuple

from repro.circuits.components import Element, StampContext
from repro.devices.mos_model import MosModel


class Mosfet(Element):
    """Three-terminal MOSFET element (drain, gate, source)."""

    nonlinear = True

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 model: MosModel) -> None:
        super().__init__(name, (drain, gate, source))
        self.model = model

    #: Voltage perturbation for the finite-difference Jacobian.
    _FD_STEP = 1e-6

    # ------------------------------------------------------------------
    def operating_point(self, ctx: StampContext) -> Tuple[float, float, float, float, float]:
        """(vgs, vds, id, gm, gds) at the current iterate.

        The partial derivatives are central finite differences of the
        exact smooth current, which keeps the Jacobian consistent in
        every operating region (including reverse conduction during
        Newton transients).  The companion stamp makes the *residual*
        exact at the iterate regardless, so the converged solution is
        independent of the Jacobian approximation.
        """
        d, g, s = self._idx
        vgs = ctx.voltage(g) - ctx.voltage(s)
        vds = ctx.voltage(d) - ctx.voltage(s)
        ids = self.model.drain_current(vgs, vds)
        e = self._FD_STEP
        gm = (self.model.drain_current(vgs + e, vds)
              - self.model.drain_current(vgs - e, vds)) / (2.0 * e)
        gds = (self.model.drain_current(vgs, vds + e)
               - self.model.drain_current(vgs, vds - e)) / (2.0 * e)
        return vgs, vds, ids, gm, gds

    def stamp(self, ctx: StampContext) -> None:
        d, g, s = self._idx
        vgs, vds, ids, gm, gds = self.operating_point(ctx)
        dId_dVgs = gm
        dId_dVds = gds
        if ctx.mode == "ac":
            # Small-signal: i_d = gm*vgs + gds*vds flowing d -> s.
            self._stamp_vccs(ctx, d, s, g, s, dId_dVgs)
            self._stamp_vccs(ctx, d, s, d, s, dId_dVds)
            return
        ieq = ids - dId_dVgs * vgs - dId_dVds * vds
        self._stamp_vccs(ctx, d, s, g, s, dId_dVgs)
        self._stamp_vccs(ctx, d, s, d, s, dId_dVds)
        ctx.stamp_current(d, s, ieq)
        if ctx.gmin > 0.0:
            ctx.add_A(d, d, ctx.gmin)
            ctx.add_A(s, s, ctx.gmin)

    @staticmethod
    def _stamp_vccs(ctx: StampContext, out_pos: int, out_neg: int,
                    ctrl_pos: int, ctrl_neg: int, g: float) -> None:
        ctx.add_A(out_pos, ctrl_pos, g)
        ctx.add_A(out_pos, ctrl_neg, -g)
        ctx.add_A(out_neg, ctrl_pos, -g)
        ctx.add_A(out_neg, ctrl_neg, g)
