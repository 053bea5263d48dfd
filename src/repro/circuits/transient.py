"""Fixed-step transient analysis (trapezoidal or backward Euler).

The integrator advances the MNA system with a fixed timestep; at every
step the nonlinear elements are resolved by damped Newton iteration
seeded with the previous solution.  The trapezoidal rule (default) is
A-stable and second-order -- the right choice for the paper's lightly
damped Biquad -- while backward Euler is available for stiff start-up
transients and as an ablation reference.

The result object exposes node waveforms by name, which feeds directly
into :class:`repro.signals.waveform.Waveform` for the signature
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.circuits.components import StampContext
from repro.circuits.dc import ConvergenceError, NewtonOptions, dc_operating_point
from repro.circuits.mna import MnaSystem, SingularCircuitError


@dataclass
class TransientResult:
    """Sampled solution of a transient run.

    Attributes
    ----------
    time:
        1-D array of accepted time points (including t=0).
    states:
        2-D array, one row per time point, of full MNA vectors.
    system:
        The analysed system (for node-name lookup).
    """

    time: np.ndarray
    states: np.ndarray
    system: MnaSystem

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of a node voltage across the run."""
        idx = self.system.circuit.node_index(node)
        if idx < 0:
            return np.zeros_like(self.time)
        return self.states[:, idx].copy()


def _newton_step(system: MnaSystem, x_guess: np.ndarray,
                 x_prev: np.ndarray, t: float, h: float, method: str,
                 state: dict, options: NewtonOptions) -> Optional[np.ndarray]:
    """Solve one implicit timestep; returns None on failure."""
    x = x_guess.copy()
    for _ in range(options.max_iterations):
        ctx = StampContext("tr", None, None, x=x, x_prev=x_prev, t=t, h=h,
                           method=method, state=state)
        try:
            A, z = system.build(ctx)
            x_new = system.solve_linear(A, z)
        except SingularCircuitError:
            return None
        if not system.has_nonlinear:
            return x_new
        dx = x_new - x
        nv = system.num_nodes
        if nv:
            step = np.max(np.abs(dx[:nv]))
            if step > options.max_step_volts:
                dx *= options.max_step_volts / step
        x = x + dx
        if np.all(np.abs(dx) <= options.abstol + options.reltol * np.abs(x)):
            return x
    return None


def transient(system: MnaSystem, tstop: float, dt: float,
              method: str = "trap", x0: Optional[np.ndarray] = None,
              tstart: float = 0.0, use_ic: bool = False,
              newton_options: Optional[NewtonOptions] = None,
              startup_be_steps: int = 2) -> TransientResult:
    """Run a fixed-step transient analysis.

    Parameters
    ----------
    system:
        Assembled circuit.
    tstop:
        Final time in seconds (exclusive upper bound is rounded to the
        nearest whole number of steps).
    dt:
        Fixed timestep in seconds.
    method:
        ``"trap"`` (default) or ``"be"``.
    x0:
        Initial MNA vector; when omitted, the DC operating point at
        ``tstart`` is computed first (capacitors open, inductors short).
    tstart:
        Starting time (sources are evaluated from here).
    use_ic:
        When True, skip the DC solve and start from zeros (or ``x0``)
        honouring explicit initial conditions.
    startup_be_steps:
        Number of initial backward-Euler steps taken before switching
        to the trapezoidal rule; damps the classic TRAP start-up ringing
        when the initial state is not an exact circuit solution.

    Raises
    ------
    ConvergenceError
        If a timestep fails to converge even after retrying with
        backward Euler.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if tstop <= tstart:
        raise ValueError("tstop must exceed tstart")
    if method not in ("trap", "be"):
        raise ValueError(f"unknown integration method {method!r}")
    options = newton_options or NewtonOptions()

    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    elif use_ic:
        x = np.zeros(system.size)
    else:
        x = dc_operating_point(system, t=tstart).x

    steps = int(round((tstop - tstart) / dt))
    times = tstart + dt * np.arange(steps + 1)
    states = np.empty((steps + 1, system.size))
    states[0] = x

    state: dict = {}
    x_prev = x
    for k in range(1, steps + 1):
        t_k = float(times[k])
        step_method = method
        if method == "trap" and k <= startup_be_steps:
            step_method = "be"
        x_next = _newton_step(system, x_prev, x_prev, t_k, dt, step_method,
                              state, options)
        if x_next is None and step_method == "trap":
            # Retry the troublesome step with the more damped BE rule.
            x_next = _newton_step(system, x_prev, x_prev, t_k, dt, "be",
                                  state, options)
            step_method = "be"
        if x_next is None:
            raise ConvergenceError(
                f"transient step at t={t_k:.6g}s failed to converge")
        # Commit integration state for dynamic elements.
        ctx = StampContext("tr", None, None, x=x_next, x_prev=x_prev,
                           t=t_k, h=dt, method=step_method, state=state)
        for element in system.circuit.elements:
            element.update_state(ctx, x_next)
        states[k] = x_next
        x_prev = x_next

    return TransientResult(times, states, system)
