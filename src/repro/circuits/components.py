"""Primitive circuit elements and their MNA stamps.

Every element implements a single ``stamp(ctx)`` method; the
:class:`StampContext` tells it which analysis is being assembled
(``"dc"``, ``"tr"`` or ``"ac"``), carries the matrix/right-hand side
being built, the current Newton iterate, and -- for transient analysis
-- the previous solution, the timestep and the integration method.

Conventions
-----------
* Node voltages come first in the unknown vector, then branch currents.
  Ground rows/columns (index ``-1``) are silently dropped.
* For two-terminal elements the positive current flows from the first
  node to the second *through the element* (SPICE convention).  A
  :class:`CurrentSource` therefore *pulls* current out of its first
  node.
* Transient companions support backward Euler (``"be"``) and the
  trapezoidal rule (``"trap"``); per-element integration state (the
  previous branch current of a capacitor under TRAP, for instance)
  lives in ``ctx.state`` keyed by element, so elements stay reusable
  across analyses.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

SourceValue = Union[float, int, Callable[[float], float]]


class StampContext:
    """Mutable assembly context handed to every element's ``stamp``.

    Attributes
    ----------
    mode:
        ``"dc"``, ``"tr"`` or ``"ac"``.
    A, z:
        The MNA matrix and right-hand side under construction (complex
        in AC mode).
    x:
        Current Newton iterate (DC/TR) or the operating point (AC).
    x_prev:
        Previous accepted transient solution (TR only).
    t, h:
        Current time and timestep (TR only).
    method:
        Integration method, ``"be"`` or ``"trap"`` (TR only).
    state:
        Per-element integration state dict (TR only).
    omega:
        Angular frequency (AC only).
    source_scale:
        Multiplier applied to every independent source -- used by the
        source-stepping homotopy in the DC solver.
    gmin:
        Conductance added from every node touched by a nonlinear device
        to ground, for the gmin-stepping homotopy.
    """

    def __init__(self, mode: str, A, z, x=None, x_prev=None,
                 t: float = 0.0, h: float = 0.0, method: str = "trap",
                 state: Optional[dict] = None, omega: float = 0.0,
                 source_scale: float = 1.0, gmin: float = 0.0) -> None:
        self.mode = mode
        self.A = A
        self.z = z
        self.x = x
        self.x_prev = x_prev
        self.t = t
        self.h = h
        self.method = method
        self.state = state if state is not None else {}
        self.omega = omega
        self.source_scale = source_scale
        self.gmin = gmin

    # -- matrix helpers -------------------------------------------------
    def add_A(self, i: int, j: int, value) -> None:
        """Accumulate into A, ignoring ground indices."""
        if i >= 0 and j >= 0:
            self.A[i, j] += value

    def add_z(self, i: int, value) -> None:
        """Accumulate into the RHS, ignoring ground indices."""
        if i >= 0:
            self.z[i] += value

    def stamp_conductance(self, a: int, b: int, g) -> None:
        """Standard two-terminal conductance stamp between nodes a, b."""
        self.add_A(a, a, g)
        self.add_A(b, b, g)
        self.add_A(a, b, -g)
        self.add_A(b, a, -g)

    def stamp_current(self, a: int, b: int, i) -> None:
        """Current ``i`` flowing a -> b through the element."""
        self.add_z(a, -i)
        self.add_z(b, i)

    # -- solution access ------------------------------------------------
    def voltage(self, idx: int) -> float:
        """Voltage of a node index in the current iterate (0 for ground)."""
        if idx < 0 or self.x is None:
            return 0.0
        return float(np.real(self.x[idx]))

    def voltage_prev(self, idx: int) -> float:
        """Voltage of a node index in the previous transient solution."""
        if idx < 0 or self.x_prev is None:
            return 0.0
        return float(self.x_prev[idx])

    def unknown_prev(self, idx: int) -> float:
        """Any previous unknown (node voltage or branch current)."""
        if idx < 0 or self.x_prev is None:
            return 0.0
        return float(self.x_prev[idx])


class Element:
    """Base class for all netlist elements."""

    #: Number of extra branch-current unknowns this element introduces.
    num_currents = 0
    #: True when the element requires Newton iteration.
    nonlinear = False

    def __init__(self, name: str, nodes: Sequence[str]) -> None:
        self.name = name
        self.nodes = tuple(nodes)
        self._idx: Tuple[int, ...] = ()
        self._branch = -1

    def bind(self, node_idx: Tuple[int, ...], branch_offset: int) -> None:
        """Called by :meth:`Circuit.assemble` to freeze index assignments."""
        self._idx = node_idx
        self._branch = branch_offset

    @property
    def branch_index(self) -> int:
        """Index of the first branch-current unknown (if any)."""
        return self._branch

    def stamp(self, ctx: StampContext) -> None:
        raise NotImplementedError

    def update_state(self, ctx: StampContext, x) -> None:
        """Hook called after an accepted transient step."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.nodes}>"


# ----------------------------------------------------------------------
# Source waveform helpers
# ----------------------------------------------------------------------

def dc_value(spec: SourceValue, t: float) -> float:
    """Evaluate a source spec (constant or callable) at time ``t``."""
    if callable(spec):
        return float(spec(t))
    return float(spec)


def sine(offset: float, amplitude: float, freq_hz: float,
         phase_deg: float = 0.0) -> Callable[[float], float]:
    """SPICE-like SIN() source function."""
    phase = math.radians(phase_deg)

    def wave(t: float) -> float:
        return offset + amplitude * math.sin(2.0 * math.pi * freq_hz * t + phase)

    return wave


def pulse(v1: float, v2: float, delay: float, rise: float, fall: float,
          width: float, period: float) -> Callable[[float], float]:
    """SPICE-like PULSE() source function."""
    if period <= 0:
        raise ValueError("pulse period must be positive")

    def wave(t: float) -> float:
        if t < delay:
            return v1
        tau = (t - delay) % period
        if tau < rise:
            return v1 + (v2 - v1) * (tau / rise if rise > 0 else 1.0)
        tau -= rise
        if tau < width:
            return v2
        tau -= width
        if tau < fall:
            return v2 + (v1 - v2) * (tau / fall if fall > 0 else 1.0)
        return v1

    return wave


def piecewise_linear(points: Sequence[Tuple[float, float]]) -> Callable[[float], float]:
    """SPICE-like PWL() source function from (time, value) pairs."""
    if len(points) < 1:
        raise ValueError("PWL needs at least one point")
    times = np.asarray([p[0] for p in points], dtype=float)
    values = np.asarray([p[1] for p in points], dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("PWL times must be non-decreasing")

    def wave(t: float) -> float:
        return float(np.interp(t, times, values))

    return wave


# ----------------------------------------------------------------------
# Linear passives
# ----------------------------------------------------------------------

class Resistor(Element):
    """Ideal linear resistor."""

    def __init__(self, name: str, a: str, b: str, resistance: float) -> None:
        super().__init__(name, (a, b))
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive")
        self.resistance = float(resistance)

    def stamp(self, ctx: StampContext) -> None:
        g = 1.0 / self.resistance
        a, b = self._idx
        ctx.stamp_conductance(a, b, g)

    def current(self, x, circuit) -> float:
        """Post-processing helper: current a -> b for a solution vector."""
        a, b = self._idx
        va = 0.0 if a < 0 else float(x[a])
        vb = 0.0 if b < 0 else float(x[b])
        return (va - vb) / self.resistance


class Capacitor(Element):
    """Linear capacitor (open in DC, companion model in transient)."""

    def __init__(self, name: str, a: str, b: str, capacitance: float,
                 ic: Optional[float] = None) -> None:
        super().__init__(name, (a, b))
        if capacitance <= 0:
            raise ValueError(f"{name}: capacitance must be positive")
        self.capacitance = float(capacitance)
        self.ic = ic

    def stamp(self, ctx: StampContext) -> None:
        a, b = self._idx
        c = self.capacitance
        if ctx.mode == "dc":
            return  # open circuit
        if ctx.mode == "ac":
            ctx.stamp_conductance(a, b, 1j * ctx.omega * c)
            return
        # Transient companion.
        v_prev = ctx.voltage_prev(a) - ctx.voltage_prev(b)
        if ctx.method == "be":
            geq = c / ctx.h
            ieq = -geq * v_prev          # i = geq * v + ieq
        else:  # trapezoidal
            geq = 2.0 * c / ctx.h
            i_prev = ctx.state.get(self, 0.0)
            ieq = -geq * v_prev - i_prev
        ctx.stamp_conductance(a, b, geq)
        ctx.stamp_current(a, b, ieq)

    def update_state(self, ctx: StampContext, x) -> None:
        if ctx.mode != "tr":
            return
        a, b = self._idx
        va = 0.0 if a < 0 else float(x[a])
        vb = 0.0 if b < 0 else float(x[b])
        v_now = va - vb
        v_prev = ctx.voltage_prev(a) - ctx.voltage_prev(b)
        c = self.capacitance
        if ctx.method == "be":
            i_now = c / ctx.h * (v_now - v_prev)
        else:
            i_prev = ctx.state.get(self, 0.0)
            i_now = 2.0 * c / ctx.h * (v_now - v_prev) - i_prev
        ctx.state[self] = i_now


class Inductor(Element):
    """Linear inductor (short in DC); adds one branch current."""

    num_currents = 1

    def __init__(self, name: str, a: str, b: str, inductance: float,
                 ic: Optional[float] = None) -> None:
        super().__init__(name, (a, b))
        if inductance <= 0:
            raise ValueError(f"{name}: inductance must be positive")
        self.inductance = float(inductance)
        self.ic = ic

    def stamp(self, ctx: StampContext) -> None:
        a, b = self._idx
        br = self._branch
        # KCL coupling: branch current leaves a, enters b.
        ctx.add_A(a, br, 1.0)
        ctx.add_A(b, br, -1.0)
        ell = self.inductance
        if ctx.mode == "dc":
            # v_a - v_b = 0
            ctx.add_A(br, a, 1.0)
            ctx.add_A(br, b, -1.0)
            return
        if ctx.mode == "ac":
            ctx.add_A(br, a, 1.0)
            ctx.add_A(br, b, -1.0)
            ctx.add_A(br, br, -1j * ctx.omega * ell)
            return
        i_prev = ctx.unknown_prev(br)
        v_prev = ctx.voltage_prev(a) - ctx.voltage_prev(b)
        if ctx.method == "be":
            # i_n = i_prev + (h/L) v_n
            ctx.add_A(br, br, 1.0)
            ctx.add_A(br, a, -ctx.h / ell)
            ctx.add_A(br, b, ctx.h / ell)
            ctx.add_z(br, i_prev)
        else:
            k = ctx.h / (2.0 * ell)
            ctx.add_A(br, br, 1.0)
            ctx.add_A(br, a, -k)
            ctx.add_A(br, b, k)
            ctx.add_z(br, i_prev + k * v_prev)


# ----------------------------------------------------------------------
# Independent sources
# ----------------------------------------------------------------------

class VoltageSource(Element):
    """Independent voltage source; ``dc`` may be a constant or ``f(t)``.

    ``ac`` sets the small-signal magnitude (and optional phase in
    degrees) used by AC analysis.
    """

    num_currents = 1

    def __init__(self, name: str, npos: str, nneg: str,
                 dc: SourceValue = 0.0, ac: float = 0.0,
                 ac_phase_deg: float = 0.0) -> None:
        super().__init__(name, (npos, nneg))
        self.dc = dc
        self.ac = float(ac)
        self.ac_phase_deg = float(ac_phase_deg)

    def value_at(self, t: float) -> float:
        """Instantaneous source value."""
        return dc_value(self.dc, t)

    def stamp(self, ctx: StampContext) -> None:
        a, b = self._idx
        br = self._branch
        ctx.add_A(a, br, 1.0)
        ctx.add_A(b, br, -1.0)
        ctx.add_A(br, a, 1.0)
        ctx.add_A(br, b, -1.0)
        if ctx.mode == "ac":
            phasor = self.ac * np.exp(1j * math.radians(self.ac_phase_deg))
            ctx.add_z(br, phasor)
        else:
            ctx.add_z(br, ctx.source_scale * self.value_at(ctx.t))

    def current(self, x) -> float:
        """Branch current for a solution vector (positive npos -> nneg)."""
        return float(np.real(x[self._branch]))


class CurrentSource(Element):
    """Independent current source; current flows npos -> nneg internally."""

    def __init__(self, name: str, npos: str, nneg: str,
                 dc: SourceValue = 0.0, ac: float = 0.0,
                 ac_phase_deg: float = 0.0) -> None:
        super().__init__(name, (npos, nneg))
        self.dc = dc
        self.ac = float(ac)
        self.ac_phase_deg = float(ac_phase_deg)

    def value_at(self, t: float) -> float:
        """Instantaneous source value."""
        return dc_value(self.dc, t)

    def stamp(self, ctx: StampContext) -> None:
        a, b = self._idx
        if ctx.mode == "ac":
            phasor = self.ac * np.exp(1j * math.radians(self.ac_phase_deg))
            ctx.stamp_current(a, b, phasor)
        else:
            ctx.stamp_current(a, b, ctx.source_scale * self.value_at(ctx.t))


# ----------------------------------------------------------------------
# Controlled sources
# ----------------------------------------------------------------------

class Vcvs(Element):
    """Voltage-controlled voltage source (SPICE "E").

    ``v(out+) - v(out-) = gain * (v(c+) - v(c-))``
    """

    num_currents = 1

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gain: float) -> None:
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.gain = float(gain)

    def stamp(self, ctx: StampContext) -> None:
        op, on, cp, cn = self._idx
        br = self._branch
        ctx.add_A(op, br, 1.0)
        ctx.add_A(on, br, -1.0)
        ctx.add_A(br, op, 1.0)
        ctx.add_A(br, on, -1.0)
        ctx.add_A(br, cp, -self.gain)
        ctx.add_A(br, cn, self.gain)


class Vccs(Element):
    """Voltage-controlled current source (SPICE "G").

    Current ``gm * (v(c+) - v(c-))`` flows out+ -> out- through the
    element.
    """

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gm: float) -> None:
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.gm = float(gm)

    def stamp(self, ctx: StampContext) -> None:
        op, on, cp, cn = self._idx
        g = self.gm
        ctx.add_A(op, cp, g)
        ctx.add_A(op, cn, -g)
        ctx.add_A(on, cp, -g)
        ctx.add_A(on, cn, g)


class Cccs(Element):
    """Current-controlled current source (SPICE "F").

    The controlling current is the branch current of ``ctrl_source`` (a
    :class:`VoltageSource` or any element with one branch unknown).
    """

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_source: Element, gain: float) -> None:
        super().__init__(name, (out_pos, out_neg))
        self.ctrl_source = ctrl_source
        self.gain = float(gain)

    def stamp(self, ctx: StampContext) -> None:
        op, on = self._idx
        cbr = self.ctrl_source.branch_index
        if cbr < 0:
            raise ValueError(f"{self.name}: controlling element has no branch")
        ctx.add_A(op, cbr, self.gain)
        ctx.add_A(on, cbr, -self.gain)


class Ccvs(Element):
    """Current-controlled voltage source (SPICE "H")."""

    num_currents = 1

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_source: Element, transresistance: float) -> None:
        super().__init__(name, (out_pos, out_neg))
        self.ctrl_source = ctrl_source
        self.transresistance = float(transresistance)

    def stamp(self, ctx: StampContext) -> None:
        op, on = self._idx
        br = self._branch
        cbr = self.ctrl_source.branch_index
        if cbr < 0:
            raise ValueError(f"{self.name}: controlling element has no branch")
        ctx.add_A(op, br, 1.0)
        ctx.add_A(on, br, -1.0)
        ctx.add_A(br, op, 1.0)
        ctx.add_A(br, on, -1.0)
        ctx.add_A(br, cbr, -self.transresistance)


class IdealOpAmp(Element):
    """Ideal (nullor) op-amp: enforces v(in+) = v(in-) via output current.

    The classic MNA nullor stamp: one branch current injected at the
    output node, one constraint row equating the inputs.  Useful for
    ideal active-RC prototypes.
    """

    num_currents = 1

    def __init__(self, name: str, in_pos: str, in_neg: str, out: str) -> None:
        super().__init__(name, (in_pos, in_neg, out))

    def stamp(self, ctx: StampContext) -> None:
        ip, in_, out = self._idx
        br = self._branch
        ctx.add_A(out, br, 1.0)
        ctx.add_A(br, ip, 1.0)
        ctx.add_A(br, in_, -1.0)


# ----------------------------------------------------------------------
# Diode
# ----------------------------------------------------------------------

class Diode(Element):
    """Shockley diode with Newton companion model."""

    nonlinear = True

    def __init__(self, name: str, anode: str, cathode: str,
                 i_s: float = 1e-14, n: float = 1.0,
                 temperature_k: float = 300.0) -> None:
        super().__init__(name, (anode, cathode))
        self.i_s = float(i_s)
        self.n = float(n)
        self.vt = 0.02585 * temperature_k / 300.0

    def _iv(self, v: float) -> Tuple[float, float]:
        """Current and conductance at a junction voltage, overflow-safe."""
        nvt = self.n * self.vt
        arg = v / nvt
        if arg > 60.0:  # linearize beyond ~1.5 V to avoid overflow
            e = math.exp(60.0)
            i = self.i_s * (e * (1.0 + (arg - 60.0)) - 1.0)
            g = self.i_s * e / nvt
        else:
            e = math.exp(arg)
            i = self.i_s * (e - 1.0)
            g = self.i_s * e / nvt
        return i, max(g, 1e-15)

    def stamp(self, ctx: StampContext) -> None:
        a, b = self._idx
        v = ctx.voltage(a) - ctx.voltage(b)
        if ctx.mode == "ac":
            __, g = self._iv(v)
            ctx.stamp_conductance(a, b, g)
            return
        i, g = self._iv(v)
        ieq = i - g * v
        ctx.stamp_conductance(a, b, g)
        ctx.stamp_current(a, b, ieq)
        if ctx.gmin > 0.0:
            ctx.add_A(a, a, ctx.gmin)
            ctx.add_A(b, b, ctx.gmin)
