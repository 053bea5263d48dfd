"""Property-based tests: circuit invariants and multitone algebra."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.circuits import (
    Circuit,
    Resistor,
    VoltageSource,
    dc_operating_point,
)
from repro.signals.multitone import Multitone, Tone


# ----------------------------------------------------------------------
# Random resistive ladders: KCL and passivity
# ----------------------------------------------------------------------

@st.composite
def ladders(draw):
    """Random series/shunt resistor ladder driven by one source."""
    n = draw(st.integers(min_value=1, max_value=6))
    series = [draw(st.floats(min_value=10.0, max_value=1e5))
              for _ in range(n)]
    shunt = [draw(st.floats(min_value=10.0, max_value=1e5))
             for _ in range(n)]
    v = draw(st.floats(min_value=-10.0, max_value=10.0))
    assume(abs(v) > 1e-3)
    return series, shunt, v


@given(ladders())
@settings(max_examples=50, deadline=None)
def test_ladder_kcl_and_passivity(ladder):
    series, shunt, v = ladder
    ckt = Circuit("ladder")
    src = ckt.add(VoltageSource("V1", "n0", "0", dc=v))
    prev = "n0"
    for i, (rs, rp) in enumerate(zip(series, shunt)):
        nxt = f"n{i + 1}"
        ckt.add(Resistor(f"Rs{i}", prev, nxt, rs))
        ckt.add(Resistor(f"Rp{i}", nxt, "0", rp))
        prev = nxt
    system = ckt.assemble()
    sol = dc_operating_point(system)
    # KCL residual vanishes.
    assert np.max(np.abs(system.residual(sol.x))) < 1e-9
    # Passivity: the source delivers the power the resistors dissipate.
    p_source = -v * src.current(sol.x)
    p_res = 0.0
    for element in ckt.elements:
        if isinstance(element, Resistor):
            p_res += element.current(sol.x, ckt) ** 2 * element.resistance
    assert p_source == pytest.approx(p_res, rel=1e-6)
    assert p_source >= 0.0
    # Voltage magnitudes decay monotonically down a dissipative ladder.
    mags = [abs(sol.voltage(system, f"n{i}"))
            for i in range(len(series) + 1)]
    assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))


@given(st.floats(min_value=10.0, max_value=1e6),
       st.floats(min_value=10.0, max_value=1e6),
       st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_divider_formula(r1, r2, v):
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "a", "0", dc=v))
    ckt.add(Resistor("R1", "a", "b", r1))
    ckt.add(Resistor("R2", "b", "0", r2))
    system = ckt.assemble()
    sol = dc_operating_point(system)
    assert sol.voltage(system, "b") == pytest.approx(
        v * r2 / (r1 + r2), rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# Multitone algebra
# ----------------------------------------------------------------------

@st.composite
def multitones(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    base = draw(st.integers(min_value=1, max_value=20)) * 100.0
    harmonics = draw(st.lists(st.integers(min_value=1, max_value=9),
                              min_size=n, max_size=n, unique=True))
    tones = [Tone(base * h,
                  draw(st.floats(min_value=0.01, max_value=0.5)),
                  draw(st.floats(min_value=0.0, max_value=360.0)))
             for h in harmonics]
    offset = draw(st.floats(min_value=-1.0, max_value=1.0))
    return Multitone(tones, offset)


@given(multitones())
@settings(max_examples=60, deadline=None)
def test_periodicity(stim):
    period = stim.period()
    t = np.linspace(0.0, period, 17, endpoint=False)
    np.testing.assert_allclose(stim(t + period), stim(t),
                               rtol=1e-9, atol=1e-9)


@given(multitones(), st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_through_is_linear_in_gain(stim, gain):
    """H = g (real) must scale the AC part by g and the offset by g."""
    out = stim.through(lambda f: gain)
    t = np.linspace(0.0, stim.period(), 64, endpoint=False)
    np.testing.assert_allclose(out(t), gain * stim(t), rtol=1e-9,
                               atol=1e-9)


@given(multitones())
@settings(max_examples=60, deadline=None)
def test_fundamental_divides_all_tones(stim):
    f0 = stim.fundamental_frequency()
    for tone in stim.tones:
        ratio = tone.freq_hz / f0
        assert ratio == pytest.approx(round(ratio), abs=1e-6)
