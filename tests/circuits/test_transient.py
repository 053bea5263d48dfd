"""Transient integration: analytic references, method accuracy, state."""

import numpy as np
import pytest

from repro.circuits import (
    Capacitor,
    Circuit,
    Inductor,
    Resistor,
    VoltageSource,
    sine,
    transient,
)


def rc_circuit(r=1e3, c=1e-6, source=1.0):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("V1", "in", "0", dc=source))
    ckt.add(Resistor("R1", "in", "out", r))
    ckt.add(Capacitor("C1", "out", "0", c))
    return ckt.assemble()


def test_rc_step_response_trap():
    system = rc_circuit()
    res = transient(system, 5e-3, 2e-6, use_ic=True)
    tau = 1e-3
    expect = 1.0 - np.exp(-res.time / tau)
    assert np.max(np.abs(res.voltage("out") - expect)) < 2e-3


def test_trap_beats_be_on_smooth_drive():
    """Second-order TRAP vs first-order BE on a sine-driven RC.

    The comparison needs a smooth excitation and a consistent initial
    state (a step start favours the damped BE rule); with a sine that
    is zero at t=0 the DC start is exact and the asymptotic orders show.
    """
    def build():
        ckt = Circuit()
        ckt.add(VoltageSource("V1", "in", "0", dc=sine(0.0, 1.0, 1e3)))
        ckt.add(Resistor("R1", "in", "out", 1e3))
        ckt.add(Capacitor("C1", "out", "0", 1e-7))
        return ckt.assemble()

    dt = 2e-6
    res_be = transient(build(), 5e-3, dt, method="be")
    res_tr = transient(build(), 5e-3, dt, method="trap",
                       startup_be_steps=0)
    h = 1.0 / (1.0 + 1j * 2 * np.pi * 1e3 * 1e-4)
    mask = res_be.time > 3e-3  # steady state
    expect = np.abs(h) * np.sin(2 * np.pi * 1e3 * res_be.time[mask]
                                + np.angle(h))
    err_be = np.max(np.abs(res_be.voltage("out")[mask] - expect))
    err_tr = np.max(np.abs(res_tr.voltage("out")[mask] - expect))
    assert err_tr < err_be / 10  # order gap at this step size


def test_rc_starts_from_dc_operating_point():
    system = rc_circuit()
    res = transient(system, 1e-4, 1e-6)  # no use_ic: DC start
    # At DC the capacitor is charged to the source: nothing moves.
    assert np.allclose(res.voltage("out"), 1.0, atol=1e-9)


def test_rc_sine_steady_state_matches_phasor():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", dc=sine(0.0, 1.0, 1e3)))
    ckt.add(Resistor("R1", "in", "out", 1e3))
    ckt.add(Capacitor("C1", "out", "0", 1e-7))
    system = ckt.assemble()
    res = transient(system, 10e-3, 5e-7)
    h = 1.0 / (1.0 + 1j * 2 * np.pi * 1e3 * 1e-4)
    mask = res.time > 5e-3
    expect = np.abs(h) * np.sin(2 * np.pi * 1e3 * res.time[mask]
                                + np.angle(h))
    assert np.max(np.abs(res.voltage("out")[mask] - expect)) < 5e-5


def test_rlc_underdamped_ringing_frequency():
    """Series RLC: ring frequency must match the damped natural frequency."""
    r, ell, c = 10.0, 1e-3, 1e-6
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    ckt.add(Resistor("R1", "in", "a", r))
    ckt.add(Inductor("L1", "a", "b", ell))
    ckt.add(Capacitor("C1", "b", "0", c))
    system = ckt.assemble()
    res = transient(system, 0.8e-3, 2e-7, use_ic=True)
    v = res.voltage("b")
    # Count zero crossings of (v - 1) to estimate the ring frequency.
    s = np.sign(v - 1.0)
    crossings = np.count_nonzero(np.diff(s) != 0)
    w0 = 1.0 / np.sqrt(ell * c)
    alpha = r / (2.0 * ell)
    wd = np.sqrt(w0 ** 2 - alpha ** 2)
    expected_crossings = 2 * wd / (2 * np.pi) * 0.8e-3
    assert crossings == pytest.approx(expected_crossings, abs=2)


def test_inductor_dc_is_short():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    ckt.add(Resistor("R1", "in", "a", 1e3))
    ckt.add(Inductor("L1", "a", "0", 1e-3))
    system = ckt.assemble()
    res = transient(system, 1e-3, 1e-6)
    # Started at DC: inductor carries V/R and node a stays at 0.
    assert abs(res.voltage("a")[-1]) < 1e-9
    ell = system.circuit.element("L1")
    assert res.states[-1, ell.branch_index] == pytest.approx(1e-3,
                                                             rel=1e-6)


def test_transient_result_accessors():
    system = rc_circuit()
    res = transient(system, 1e-4, 1e-6)
    assert len(res.time) == len(res.states)
    assert res.voltage("0").max() == 0.0  # ground waveform is zero


def test_invalid_parameters_raise():
    system = rc_circuit()
    with pytest.raises(ValueError):
        transient(system, 1e-3, -1e-6)
    with pytest.raises(ValueError):
        transient(system, 0.0, 1e-6)
    with pytest.raises(ValueError):
        transient(system, 1e-3, 1e-6, method="rk4")


def test_kcl_residual_along_trajectory():
    """The accepted transient states satisfy the stamped equations."""
    system = rc_circuit()
    res = transient(system, 5e-4, 1e-6, use_ic=True)
    # Spot-check a few steps by rebuilding the step equations.
    # (The residual helper covers the DC case; here we simply verify
    # charge continuity: i_R = C dv/dt within integration accuracy.)
    t = res.time
    v_out = res.voltage("out")
    i_r = (res.voltage("in") - v_out) / 1e3
    dv = np.gradient(v_out, t)
    i_c = 1e-6 * dv
    mask = (t > 5e-6) & (t < 4.9e-4)
    assert np.max(np.abs(i_r[mask] - i_c[mask])) < 2e-5
