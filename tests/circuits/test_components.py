"""Component-level behaviour: sources, controlled sources, validation."""

import pytest

from repro.circuits import (
    Capacitor,
    Cccs,
    Ccvs,
    Circuit,
    CurrentSource,
    IdealOpAmp,
    Inductor,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
    dc_operating_point,
    piecewise_linear,
    pulse,
    sine,
)


# ----------------------------------------------------------------------
# Source waveform helpers
# ----------------------------------------------------------------------

def test_sine_waveform():
    w = sine(offset=1.0, amplitude=2.0, freq_hz=50.0, phase_deg=90.0)
    assert w(0.0) == pytest.approx(3.0)  # sin(90 deg) = 1
    assert w(0.01) == pytest.approx(-1.0)  # half period later


def test_pulse_waveform_phases():
    w = pulse(v1=0.0, v2=5.0, delay=1e-3, rise=1e-4, fall=1e-4,
              width=5e-4, period=2e-3)
    assert w(0.0) == 0.0
    assert w(1e-3 + 5e-5) == pytest.approx(2.5)  # mid rise
    assert w(1e-3 + 2e-4) == 5.0  # on
    assert w(1e-3 + 1e-4 + 5e-4 + 5e-5) == pytest.approx(2.5)  # mid fall
    assert w(1e-3 + 9e-4) == 0.0  # off
    assert w(3e-3 + 2e-4) == 5.0  # periodic repeat


def test_pulse_invalid_period():
    with pytest.raises(ValueError):
        pulse(0, 1, 0, 1e-6, 1e-6, 1e-3, 0.0)


def test_piecewise_linear():
    w = piecewise_linear([(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)])
    assert w(0.5) == pytest.approx(1.0)
    assert w(1.5) == pytest.approx(2.0)
    assert w(5.0) == pytest.approx(2.0)  # clamps right
    with pytest.raises(ValueError):
        piecewise_linear([(1.0, 0.0), (0.5, 1.0)])
    with pytest.raises(ValueError):
        piecewise_linear([])


# ----------------------------------------------------------------------
# Passive component validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cls,kwargs", [
    (Resistor, {"resistance": -1.0}),
    (Resistor, {"resistance": 0.0}),
    (Capacitor, {"capacitance": -1e-9}),
    (Inductor, {"inductance": 0.0}),
])
def test_nonpositive_values_rejected(cls, kwargs):
    with pytest.raises(ValueError):
        cls("X1", "a", "b", list(kwargs.values())[0])


def test_resistor_current_helper():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "a", "0", dc=2.0))
    r = ckt.add(Resistor("R1", "a", "0", 1e3))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    assert r.current(sol.x, ckt) == pytest.approx(2e-3)


# ----------------------------------------------------------------------
# Controlled sources
# ----------------------------------------------------------------------

def test_vcvs_gain():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "c", "0", dc=0.25))
    ckt.add(Vcvs("E1", "out", "0", "c", "0", gain=4.0))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    system = ckt.assemble()
    assert dc_operating_point(system).voltage(system, "out") \
        == pytest.approx(1.0)


def test_vccs_transconductance():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "c", "0", dc=1.0))
    # 1 mS from c into out through 1k load -> 1 V
    ckt.add(Vccs("G1", "0", "out", "c", "0", gm=1e-3))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    system = ckt.assemble()
    assert dc_operating_point(system).voltage(system, "out") \
        == pytest.approx(1.0)


def test_cccs_current_gain():
    ckt = Circuit()
    # 1 V across 1k in series with the 0 V sense source: 1 mA flows
    # in -> a -> (sense) -> ground, i.e. +1 mA in the sense branch.
    ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    ckt.add(Resistor("R1", "in", "a", 1e3))
    vsense = ckt.add(VoltageSource("Vs", "a", "0", dc=0.0))
    # F pushes 2 * 1 mA from node 0 into out: +2 V across the load.
    ckt.add(Cccs("F1", "0", "out", vsense, gain=2.0))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    assert sol.voltage(system, "out") == pytest.approx(2.0)


def test_ccvs_transresistance():
    ckt = Circuit()
    ckt.add(CurrentSource("I1", "0", "x", dc=1e-3))  # injects into x
    ckt.add(Resistor("Rx", "x", "a", 1.0))
    vsense = ckt.add(VoltageSource("Vs", "a", "0", dc=0.0))
    ckt.add(Ccvs("H1", "out", "0", vsense, transresistance=1e3))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    # Sense current is +1 mA (a -> ground through the source).
    assert sol.voltage(system, "out") == pytest.approx(1.0)


def test_ideal_inverting_amplifier():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", dc=0.1))
    ckt.add(Resistor("R1", "in", "x", 1e3))
    ckt.add(Resistor("R2", "x", "out", 2e3))
    ckt.add(IdealOpAmp("U1", "0", "x", "out"))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    assert sol.voltage(system, "out") == pytest.approx(-0.2)
    assert sol.voltage(system, "x") == pytest.approx(0.0, abs=1e-12)


def test_ideal_opamp_follower():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", dc=0.7))
    ckt.add(IdealOpAmp("U1", "in", "out", "out"))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    system = ckt.assemble()
    assert dc_operating_point(system).voltage(system, "out") \
        == pytest.approx(0.7)


def test_ideal_opamp_noninverting_gain():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", dc=0.1))
    ckt.add(IdealOpAmp("U1", "in", "fb", "out"))
    ckt.add(Resistor("R1", "fb", "0", 1e3))
    ckt.add(Resistor("R2", "out", "fb", 3e3))
    system = ckt.assemble()
    assert dc_operating_point(system).voltage(system, "out") \
        == pytest.approx(0.4)  # 1 + R2/R1 = 4


def test_source_value_at():
    v = VoltageSource("V1", "a", "0", dc=sine(0.0, 1.0, 1.0))
    assert v.value_at(0.25) == pytest.approx(1.0)
    i = CurrentSource("I1", "a", "0", dc=2e-3)
    assert i.value_at(123.0) == pytest.approx(2e-3)
