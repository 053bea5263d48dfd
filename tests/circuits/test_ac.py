"""AC analysis: poles, transfer functions, frequency grids."""

import numpy as np
import pytest

from repro.circuits import (
    Capacitor,
    Circuit,
    Inductor,
    Resistor,
    VoltageSource,
    ac_analysis,
)


def rc_lowpass():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", dc=0.0, ac=1.0))
    ckt.add(Resistor("R1", "in", "out", 1e3))
    ckt.add(Capacitor("C1", "out", "0", 1e-6))
    return ckt.assemble()


def test_rc_pole_minus_3db():
    system = rc_lowpass()
    f3 = 1.0 / (2 * np.pi * 1e3 * 1e-6)
    res = ac_analysis(system, [f3])
    assert res.magnitude("out")[0] == pytest.approx(1 / np.sqrt(2), rel=1e-9)
    assert res.phase_deg("out")[0] == pytest.approx(-45.0, abs=1e-6)


def test_rc_rolloff_20db_per_decade():
    system = rc_lowpass()
    f3 = 1.0 / (2 * np.pi * 1e3 * 1e-6)
    res = ac_analysis(system, [10 * f3, 100 * f3])
    db = 20.0 * np.log10(res.magnitude("out"))
    assert db[1] - db[0] == pytest.approx(-20.0, abs=0.1)


def test_ac_phase_of_source_respected():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", ac=2.0, ac_phase_deg=90.0))
    ckt.add(Resistor("R1", "in", "0", 1e3))
    system = ckt.assemble()
    res = ac_analysis(system, [1e3])
    v = res.voltage("in")[0]
    assert abs(v) == pytest.approx(2.0)
    assert np.degrees(np.angle(v)) == pytest.approx(90.0)


def test_lc_resonance_peak():
    """Series RLC driven at resonance: capacitor voltage is Q times input."""
    r, ell, c = 10.0, 1e-3, 1e-6
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", ac=1.0))
    ckt.add(Resistor("R1", "in", "a", r))
    ckt.add(Inductor("L1", "a", "b", ell))
    ckt.add(Capacitor("C1", "b", "0", c))
    system = ckt.assemble()
    f0 = 1.0 / (2 * np.pi * np.sqrt(ell * c))
    q = np.sqrt(ell / c) / r
    res = ac_analysis(system, [f0])
    assert res.magnitude("b")[0] == pytest.approx(q, rel=1e-6)


def test_transfer_helper():
    system = rc_lowpass()
    res = ac_analysis(system, [10.0, 100.0])
    h = res.transfer("out", "in")
    assert np.all(np.abs(h) <= 1.0)
    assert np.abs(h[0]) > np.abs(h[1])


def test_invalid_frequencies_rejected():
    system = rc_lowpass()
    with pytest.raises(ValueError):
        ac_analysis(system, [])
    with pytest.raises(ValueError):
        ac_analysis(system, [0.0])
    with pytest.raises(ValueError):
        ac_analysis(system, [-1.0])


def test_ground_node_phasor_is_zero():
    system = rc_lowpass()
    res = ac_analysis(system, [100.0])
    assert np.all(res.voltage("0") == 0.0)
