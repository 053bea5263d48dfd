"""Transistor-level netlist of the Fig. 2 monitor on the MNA engine.

Topology (paper Fig. 2):

* M1..M4 -- nMOS inputs, sources grounded; M1, M2 drive the left output
  node ``out1``, M3, M4 the right node ``out2``; gates at V1..V4.
* M5, M8 -- equal pMOS active loads (diode-connected on their own side).
* M6, M7 -- equal pMOS cross-coupled pair "performing the required
  feedback to improve the gain of the stage" (gates on the opposite
  output).

The digital decision is the sign of the differential output
``v(out2) - v(out1)`` after the high-gain stage; the comparator trips
where the branch currents balance, so its zero locus should match the
analytic :class:`repro.monitor.comparator.MonitorBoundary` -- the
agreement benchmark (bench_monitor_transistor.py) quantifies the residual
difference caused by channel-length modulation and load asymmetry.

Solving a DC point per plane pixel is much slower than the analytic
balance, so this model is used on coarse grids and in spot checks, not
in the signature flow.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.circuits import Circuit, Mosfet, VoltageSource
from repro.circuits.dc import dc_operating_point
from repro.core.boundaries import Boundary
from repro.devices.mos_model import MosModel
from repro.devices.process import TECH_65NM, TechnologyParams
from repro.monitor.comparator import MonitorConfig, _resolve


class TransistorMonitor(Boundary):
    """Fig. 2 monitor simulated at transistor level.

    Parameters
    ----------
    config:
        Same wiring/sizing description as the analytic monitor.
    tech:
        Technology supplying nMOS/pMOS model cards and VDD.
    load_width_nm / feedback_width_nm:
        pMOS sizing of the diode loads (M5, M8) and the cross-coupled
        pair (M6, M7).  The feedback pair must stay weaker than the
        loads to keep the stage free of hysteresis.
    """

    def __init__(self, config: MonitorConfig,
                 tech: TechnologyParams = TECH_65NM,
                 load_width_nm: float = 2000.0,
                 feedback_width_nm: float = 1000.0) -> None:
        super().__init__(config.name + "-xtor",
                         reference_point=config.reference_point)
        if feedback_width_nm >= load_width_nm:
            raise ValueError(
                "cross-coupled pair must be weaker than the diode loads "
                "(hysteresis otherwise)")
        self.config = config
        self.tech = tech
        self.vdd = tech.vdd
        self._build(load_width_nm, feedback_width_nm)
        self._last_solution: Optional[np.ndarray] = None

    def _build(self, load_w_nm: float, fb_w_nm: float) -> None:
        cfg = self.config
        nmos = [MosModel(self.tech.nmos, w * 1e-9, cfg.length_nm * 1e-9)
                for w in cfg.widths_nm]
        length = cfg.length_nm * 1e-9
        pload = MosModel(self.tech.pmos, load_w_nm * 1e-9, length)
        pfb = MosModel(self.tech.pmos, fb_w_nm * 1e-9, length)

        ckt = Circuit(f"monitor {cfg.name}")
        ckt.add(VoltageSource("VDD", "vdd", "0", dc=self.vdd))
        self._gate_sources = []
        for i in range(4):
            src = ckt.add(VoltageSource(f"Vg{i + 1}", f"g{i + 1}", "0",
                                        dc=0.0))
            self._gate_sources.append(src)
        # Input devices: left branch (M1, M2) on out1, right on out2.
        ckt.add(Mosfet("M1", "out1", "g1", "0", nmos[0]))
        ckt.add(Mosfet("M2", "out1", "g2", "0", nmos[1]))
        ckt.add(Mosfet("M3", "out2", "g3", "0", nmos[2]))
        ckt.add(Mosfet("M4", "out2", "g4", "0", nmos[3]))
        # pMOS loads: diode-connected M5/M8, cross-coupled M6/M7.
        ckt.add(Mosfet("M5", "out1", "out1", "vdd", pload))
        ckt.add(Mosfet("M8", "out2", "out2", "vdd", pload))
        ckt.add(Mosfet("M6", "out1", "out2", "vdd", pfb))
        ckt.add(Mosfet("M7", "out2", "out1", "vdd", pfb))
        self.circuit = ckt
        self.system = ckt.assemble()

    # ------------------------------------------------------------------
    def solve_outputs(self, x: float, y: float) -> Tuple[float, float]:
        """DC-solve the stage for one plane point; returns (v1, v2)."""
        gates = [_resolve(h, x, y) for h in self.config.hookups]
        for src, v in zip(self._gate_sources, gates):
            src.dc = float(v)
        solution = dc_operating_point(self.system, x0=self._last_solution)
        self._last_solution = solution.x
        return (solution.voltage(self.system, "out1"),
                solution.voltage(self.system, "out2"))

    def decision(self, x, y):
        """Differential output v(out1) - v(out2).

        More left-branch (M1+M2) current pulls ``out1`` low, so the
        sign convention matches the analytic monitor's
        ``I_left - I_right`` through the inversion of the load stage:
        the decision here is ``v(out2) - v(out1)`` negated twice --
        i.e. we return ``v(out1) - v(out2)`` sign-flipped to align with
        the current-balance convention.
        """
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        out = np.empty(np.broadcast(x_arr, y_arr).shape)
        flat_iter = np.nditer([np.broadcast_to(x_arr, out.shape),
                               np.broadcast_to(y_arr, out.shape)],
                              flags=["multi_index"])
        for xv, yv in flat_iter:
            v1, v2 = self.solve_outputs(float(xv), float(yv))
            out[flat_iter.multi_index] = v2 - v1
        if out.ndim == 0:
            return float(out)
        return out
