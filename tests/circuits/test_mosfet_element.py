"""MOSFET element: operating points, residuals, polarity handling."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    Mosfet,
    Resistor,
    VoltageSource,
    ac_analysis,
    dc_operating_point,
)
from repro.devices import NMOS_65NM, PMOS_65NM
from repro.devices.mos_model import MosModel


@pytest.fixture
def nmos():
    return MosModel(NMOS_65NM, w=1.8e-6, l=180e-9)


@pytest.fixture
def pmos():
    return MosModel(PMOS_65NM, w=1.8e-6, l=180e-9)


def common_source(nmos, vg=0.6, rl=10e3, vdd=1.2):
    ckt = Circuit("cs")
    ckt.add(VoltageSource("VDD", "vdd", "0", dc=vdd))
    ckt.add(VoltageSource("VG", "g", "0", dc=vg))
    ckt.add(Resistor("RL", "vdd", "d", rl))
    m = ckt.add(Mosfet("M1", "d", "g", "0", nmos))
    return ckt.assemble(), m


def test_common_source_kcl(nmos):
    system, m = common_source(nmos)
    sol = dc_operating_point(system)
    vd = sol.voltage(system, "d")
    i_model = nmos.drain_current(0.6, vd)
    i_load = (1.2 - vd) / 10e3
    assert i_model == pytest.approx(i_load, rel=1e-9)
    assert np.max(np.abs(system.residual(sol.x))) < 1e-10


def test_cutoff_device_pulls_no_current(nmos):
    system, m = common_source(nmos, vg=0.1)  # far below VT
    sol = dc_operating_point(system)
    assert sol.voltage(system, "d") == pytest.approx(1.2, abs=1e-3)


def test_gate_draws_no_current(nmos):
    ckt = Circuit()
    ckt.add(VoltageSource("VDD", "vdd", "0", dc=1.2))
    ckt.add(VoltageSource("VG", "gg", "0", dc=0.8))
    ckt.add(Resistor("RG", "gg", "g", 1e6))  # series gate resistor
    ckt.add(Resistor("RL", "vdd", "d", 10e3))
    ckt.add(Mosfet("M1", "d", "g", "0", MosModel(NMOS_65NM, 1.8e-6, 180e-9)))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    # No gate current: no drop across RG.
    assert sol.voltage(system, "g") == pytest.approx(0.8, abs=1e-9)


def test_pmos_common_source(pmos):
    ckt = Circuit("cs-p")
    ckt.add(VoltageSource("VDD", "vdd", "0", dc=1.2))
    ckt.add(VoltageSource("VG", "g", "0", dc=0.5))  # VSG = 0.7: on
    ckt.add(Resistor("RL", "d", "0", 10e3))
    ckt.add(Mosfet("M1", "d", "g", "vdd", pmos))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    vd = sol.voltage(system, "d")
    assert 0.0 < vd < 1.2
    # pMOS sources current into the load: load current = vd / RL.
    i_dev = pmos.drain_current(0.5 - 1.2, vd - 1.2)
    assert -i_dev == pytest.approx(vd / 10e3, rel=1e-9)


def test_diode_connected_nmos(nmos):
    ckt = Circuit()
    ckt.add(VoltageSource("VDD", "vdd", "0", dc=1.2))
    ckt.add(Resistor("R1", "vdd", "d", 20e3))
    ckt.add(Mosfet("M1", "d", "d", "0", nmos))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    vd = sol.voltage(system, "d")
    assert NMOS_65NM.vt0 * 0.8 < vd < 1.0  # a VGS-ish drop
    assert nmos.drain_current(vd, vd) == pytest.approx((1.2 - vd) / 20e3,
                                                       rel=1e-9)


def test_small_signal_gain_matches_gm_times_load(nmos):
    """AC gain of the common-source stage = -gm * (RL || ro)."""
    ckt = Circuit("cs-ac")
    ckt.add(VoltageSource("VDD", "vdd", "0", dc=1.2))
    ckt.add(VoltageSource("VG", "g", "0", dc=0.6, ac=1.0))
    ckt.add(Resistor("RL", "vdd", "d", 10e3))
    ckt.add(Mosfet("M1", "d", "g", "0", nmos))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    vd = sol.voltage(system, "d")
    e = 1e-6
    gm = (nmos.drain_current(0.6 + e, vd)
          - nmos.drain_current(0.6 - e, vd)) / (2 * e)
    gds = (nmos.drain_current(0.6, vd + e)
           - nmos.drain_current(0.6, vd - e)) / (2 * e)
    res = ac_analysis(system, [1e3], x_op=sol.x)
    gain = res.voltage("d")[0]
    expected = -gm / (1.0 / 10e3 + gds)
    assert gain.real == pytest.approx(expected, rel=1e-4)
    assert abs(gain.imag) < 1e-9
