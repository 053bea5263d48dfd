"""Small-signal AC analysis.

Nonlinear elements are linearized at the DC operating point (computed on
demand), then the complex MNA system is solved at each requested
frequency.  Independent sources contribute their ``ac`` magnitude/phase;
their DC/transient value is irrelevant here.

The assembly is split once per circuit into a frequency-independent
static part and an ``omega``-scaled reactive part
(:class:`AcStampPattern`), so a sweep stamps the element list twice
instead of once per frequency.  :func:`ac_analysis_batch` lifts the same
split over a whole stack of same-topology circuits -- one fault
dictionary's worth of Tow-Thomas variants, say -- and solves every
circuit of the stack per frequency with a single batched
``np.linalg.solve``.

The :class:`AcResult` exposes complex node phasors and convenience
magnitude/phase accessors, plus a :meth:`AcResult.transfer` helper that
is used throughout the tests to compare the structural Biquad netlist
against its analytic transfer function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.circuits.components import StampContext
from repro.circuits.dc import dc_operating_point
from repro.circuits.mna import MnaSystem


@dataclass
class AcResult:
    """Result of an AC sweep."""

    freqs: np.ndarray
    phasors: np.ndarray  # shape (num_freqs, system size), complex
    system: MnaSystem

    def voltage(self, node: str) -> np.ndarray:
        """Complex phasor of a node across the sweep."""
        idx = self.system.circuit.node_index(node)
        if idx < 0:
            return np.zeros(len(self.freqs), dtype=complex)
        return self.phasors[:, idx].copy()

    def magnitude(self, node: str) -> np.ndarray:
        """|V(node)| across the sweep."""
        return np.abs(self.voltage(node))

    def phase_deg(self, node: str) -> np.ndarray:
        """Phase of V(node) in degrees."""
        return np.degrees(np.angle(self.voltage(node)))

    def transfer(self, out_node: str, in_node: str) -> np.ndarray:
        """Complex transfer function V(out)/V(in) across the sweep."""
        vin = self.voltage(in_node)
        if np.any(np.abs(vin) == 0.0):
            raise ZeroDivisionError(
                f"input node {in_node!r} has zero AC drive")
        return self.voltage(out_node) / vin


class AcStampPattern:
    """One circuit's AC stamp, split into static and reactive parts.

    The AC MNA matrix is affine in the angular frequency::

        A(omega) = A_static + omega * B

    where ``A_static`` collects every frequency-independent stamp
    (conductances, sources, controlled sources, op-amp constraints) and
    ``B`` the susceptance pattern (``j c`` per capacitor entry, ``-j L``
    per inductor branch).  Both are extracted by stamping the element
    list exactly twice -- at ``omega = 0`` and ``omega = 1`` -- so a
    sweep re-uses the pattern instead of rebuilding the system at every
    frequency, and a population of same-topology circuits can stack
    their patterns for batched solves.

    Bit-compatibility: every matrix entry accumulates its static (real)
    and reactive (imaginary) contributions on independent components,
    so ``matrix(omega)`` equals the interleaved per-frequency stamp bit
    for bit whenever at most one reactive element touches an entry --
    true for every circuit in this library.  (Two capacitors sharing an
    entry would sum as ``omega*(c1+c2)`` instead of
    ``omega*c1 + omega*c2``: an ulp-level difference at worst.)

    The RHS is frequency independent in AC (source phasors only), so it
    is captured once.
    """

    def __init__(self, system: MnaSystem,
                 x_op: Optional[np.ndarray] = None) -> None:
        if x_op is None and system.has_nonlinear:
            x_op = dc_operating_point(system).x
        self.system = system
        self.x_op = x_op
        static, z = system.build(
            StampContext("ac", None, None, x=x_op, omega=0.0))
        at_unit, __ = system.build(
            StampContext("ac", None, None, x=x_op, omega=1.0))
        self.static = static
        self.susceptance = at_unit - static
        self.z = z

    def matrix(self, omega: float) -> np.ndarray:
        """The complex MNA matrix at one angular frequency."""
        return self.static + omega * self.susceptance


def ac_analysis(system: MnaSystem, freqs: Sequence[float],
                x_op: Optional[np.ndarray] = None) -> AcResult:
    """Run an AC sweep over ``freqs`` (hertz).

    The frequency-independent MNA pattern is stamped once
    (:class:`AcStampPattern`); each sweep point only fills the
    ``omega``-scaled reactive entries and solves.

    Parameters
    ----------
    system:
        Assembled circuit; at least one source should declare an ``ac``
        magnitude.
    freqs:
        Iterable of analysis frequencies in hertz (must be positive).
    x_op:
        Optional precomputed operating point; computed via
        :func:`dc_operating_point` when omitted and the circuit has
        nonlinear elements.
    """
    freqs = np.asarray(list(freqs), dtype=float)
    if freqs.size == 0:
        raise ValueError("empty frequency list")
    if np.any(freqs <= 0):
        raise ValueError("AC frequencies must be positive")

    pattern = AcStampPattern(system, x_op)
    phasors = np.empty((freqs.size, system.size), dtype=complex)
    for k, f in enumerate(freqs):
        omega = 2.0 * np.pi * float(f)
        phasors[k] = system.solve_linear(pattern.matrix(omega), pattern.z)
    return AcResult(freqs, phasors, system)


# ----------------------------------------------------------------------
# Stacked (population-wide) AC analysis
# ----------------------------------------------------------------------
def systems_share_topology(a: MnaSystem, b: MnaSystem) -> bool:
    """True when two assembled systems stamp the same matrix pattern.

    Same unknown count, same element sequence (type, node indices,
    branch slot) -- component *values* are free to differ.  This is the
    precondition for stacking their AC patterns into one batched solve.
    """
    if a.size != b.size or a.num_nodes != b.num_nodes:
        return False
    ea, eb = a.circuit.elements, b.circuit.elements
    if len(ea) != len(eb):
        return False
    return all(type(x) is type(y)
               and x._idx == y._idx and x._branch == y._branch
               for x, y in zip(ea, eb))


@dataclass
class BatchAcResult:
    """AC sweep of M same-topology circuits: phasors ``(M, F, size)``."""

    freqs: np.ndarray
    phasors: np.ndarray
    system: MnaSystem  # topology representative (node-name lookups)

    def voltage(self, node: str) -> np.ndarray:
        """Complex phasors of a node: shape ``(M, num_freqs)``."""
        idx = self.system.circuit.node_index(node)
        if idx < 0:
            return np.zeros(self.phasors.shape[:2], dtype=complex)
        return self.phasors[:, :, idx].copy()

    def magnitude(self, node: str) -> np.ndarray:
        """|V(node)| per circuit and frequency."""
        return np.abs(self.voltage(node))

    def transfer(self, out_node: str, in_node: str) -> np.ndarray:
        """V(out)/V(in) per circuit and frequency, ``(M, F)`` complex."""
        vin = self.voltage(in_node)
        if np.any(np.abs(vin) == 0.0):
            raise ZeroDivisionError(
                f"input node {in_node!r} has zero AC drive")
        return self.voltage(out_node) / vin


def ac_analysis_batch(systems: Sequence[MnaSystem],
                      freqs: Sequence[float],
                      x_ops: Optional[Sequence[np.ndarray]] = None
                      ) -> BatchAcResult:
    """AC-sweep a whole stack of same-topology circuits at once.

    Each system's :class:`AcStampPattern` is stamped once (two passes
    over its element list); per frequency the stack solves through one
    batched ``np.linalg.solve`` over the ``(M, size, size)`` matrices
    instead of M sequential solves.  LAPACK factorizes each matrix of
    the batch with the same routine a single solve uses, so the phasors
    are bit-identical to ``[ac_analysis(s, freqs) for s in systems]``
    -- the fault-dictionary compilation relies on this.

    Raises ``ValueError`` when the systems do not share a topology and
    :class:`~repro.circuits.mna.SingularCircuitError` when any member
    of the stack is singular at some frequency.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("empty system stack")
    freqs = np.asarray(list(freqs), dtype=float)
    if freqs.size == 0:
        raise ValueError("empty frequency list")
    if np.any(freqs <= 0):
        raise ValueError("AC frequencies must be positive")
    first = systems[0]
    for other in systems[1:]:
        if not systems_share_topology(first, other):
            raise ValueError(
                "batched AC analysis needs same-topology systems")
    if x_ops is None:
        x_ops = [None] * len(systems)
    patterns = [AcStampPattern(system, x_op)
                for system, x_op in zip(systems, x_ops)]
    static = np.stack([p.static for p in patterns])
    susceptance = np.stack([p.susceptance for p in patterns])
    z = np.stack([p.z for p in patterns])

    phasors = np.empty((len(systems), freqs.size, first.size),
                       dtype=complex)
    for k, f in enumerate(freqs):
        omega = 2.0 * np.pi * float(f)
        phasors[:, k, :] = MnaSystem.solve_linear_batch(
            static + omega * susceptance, z)
    return BatchAcResult(freqs, phasors, first)


__all__ = [
    "AcResult",
    "AcStampPattern",
    "BatchAcResult",
    "ac_analysis",
    "ac_analysis_batch",
    "systems_share_topology",
]
