"""Population builders: what a campaign iterates over.

A campaign screens one of four population kinds:

* :class:`SpecPopulation` -- N Biquad design points (Monte Carlo dies,
  deviation sweeps, parameter grids, corner lists).  This is the
  vectorized fast path: the closed-form transfer of all N dies
  broadcasts per tone and the whole ``(N, samples)`` trace stack
  synthesizes in one buffered pass
  (:func:`repro.campaign.batch.batch_biquad_traces`) -- no per-die
  filter or signal objects exist anywhere.
* :class:`CutListPopulation` -- N arbitrary CUT objects.  Fault
  dictionaries and other same-topology linear netlist stacks solve
  through one batched MNA sweep per tone frequency
  (:func:`repro.campaign.batch.batch_netlist_traces`); heterogeneous
  cut lists fall back to per-CUT traces, and encoding/scoring always
  run batched.
* :class:`EncoderPopulation` -- one fault-free CUT observed through N
  varied monitor banks (process Monte Carlo, temperature corners).  The
  trace is computed once and re-encoded per bank.
* :class:`TracePopulation` -- N already-measured response traces on the
  shared capture grid (instrument dumps, transient simulations).  Only
  the encode/signature/NDF back half runs, and the stack's rows
  chunk over the executor like spec chunks do.

All Monte Carlo builders use :class:`numpy.random.SeedSequence` spawning
for per-die seeding: die ``i`` of seed ``s`` draws the same parameters
regardless of the population size or of how the executor chunks the
work.  For fleets larger than memory, :func:`stream_montecarlo_dies`
yields the same dies as :func:`montecarlo_dies` -- same seeds, same
order -- in bounded-size :class:`SpecPopulation` chunks that a
streaming campaign consumes one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.zones import ZoneEncoder
from repro.devices.mos_model import NMOS_65NM
from repro.devices.process import MonteCarloSampler
from repro.devices.temperature import at_temperature
from repro.filters.biquad import BiquadFilter, BiquadSpec
from repro.filters.faults import Fault, catastrophic_fault_universe
from repro.filters.towthomas import TowThomasValues
from repro.monitor.comparator import MonitorBoundary
from repro.monitor.configurations import table1_bank
from repro.monitor.montecarlo import bank_samples


@dataclass
class SpecPopulation:
    """N Biquad design points plus per-die ground-truth metadata."""

    specs: List[BiquadSpec]
    f0_deviations: np.ndarray
    q_deviations: np.ndarray
    labels: List[str]

    def __post_init__(self) -> None:
        n = len(self.specs)
        self.f0_deviations = np.asarray(self.f0_deviations, dtype=float)
        self.q_deviations = np.asarray(self.q_deviations, dtype=float)
        if (self.f0_deviations.shape != (n,)
                or self.q_deviations.shape != (n,)
                or len(self.labels) != n):
            raise ValueError("metadata must align with the spec list")

    def __len__(self) -> int:
        return len(self.specs)

    def cuts(self) -> List[BiquadFilter]:
        """Behavioural CUT per design point (for the per-die fallback)."""
        return [BiquadFilter(s) for s in self.specs]


@dataclass
class CutListPopulation:
    """N arbitrary CUT objects (anything with ``lissajous``/``response``)."""

    cuts: List[object]
    labels: List[str]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.cuts):
            raise ValueError("labels must align with the cut list")

    def __len__(self) -> int:
        return len(self.cuts)


@dataclass
class TracePopulation:
    """N captured response traces ``(N, samples)`` on the shared grid.

    ``y_stack`` rows are Y-channel samples on the campaign's capture
    grid (the X channel is the shared stimulus).  This is the entry
    point for screening *measured* waveforms: no CUT model is
    evaluated, only the encode -> signature -> NDF back half runs.
    """

    y_stack: np.ndarray
    labels: List[str]

    def __post_init__(self) -> None:
        self.y_stack = np.atleast_2d(np.asarray(self.y_stack,
                                                dtype=float))
        if len(self.labels) != self.y_stack.shape[0]:
            raise ValueError("labels must align with the trace stack")

    def __len__(self) -> int:
        return self.y_stack.shape[0]


def trace_population(y_stack: np.ndarray,
                     labels: Optional[Sequence[str]] = None
                     ) -> TracePopulation:
    """Wrap a measured ``(N, samples)`` stack as a population."""
    y_stack = np.atleast_2d(np.asarray(y_stack, dtype=float))
    if labels is None:
        labels = [f"trace{i:05d}" for i in range(y_stack.shape[0])]
    return TracePopulation(y_stack, list(labels))


@dataclass
class EncoderPopulation:
    """N varied zone encoders observing one fault-free CUT."""

    encoders: List[ZoneEncoder]
    labels: List[str]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.encoders):
            raise ValueError("labels must align with the encoder list")

    def __len__(self) -> int:
        return len(self.encoders)


# ----------------------------------------------------------------------
# Spec population builders
# ----------------------------------------------------------------------
def _die_population(golden_spec: BiquadSpec, children,
                    sigma_f0: float, sigma_q: float,
                    first_index: int) -> SpecPopulation:
    """Dies drawn from spawned seed children, labelled globally."""
    count = len(children)
    f0_devs = np.empty(count)
    q_devs = np.empty(count)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        f0_devs[i] = rng.normal(0.0, sigma_f0) if sigma_f0 > 0 else 0.0
        q_devs[i] = rng.normal(0.0, sigma_q) if sigma_q > 0 else 0.0
    specs = [golden_spec.with_f0_deviation(float(f)).with_q_deviation(
        float(q)) for f, q in zip(f0_devs, q_devs)]
    labels = [f"die{first_index + i:05d}" for i in range(count)]
    return SpecPopulation(specs, f0_devs, q_devs, labels)


def montecarlo_dies(golden_spec: BiquadSpec, count: int,
                    sigma_f0: float = 0.03, sigma_q: float = 0.0,
                    seed: int = 0) -> SpecPopulation:
    """Process-spread production dies, deterministically seeded.

    Die ``i`` draws from ``SeedSequence(seed).spawn()[i]``, so its
    deviations are a pure function of ``(seed, i)`` -- growing the
    population or re-chunking the executor never reshuffles dies.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    children = np.random.SeedSequence(seed).spawn(count)
    return _die_population(golden_spec, children, sigma_f0, sigma_q, 0)


def seed_children(seed: int, lo: int, hi: int) -> List:
    """Seed children ``lo..hi`` of root ``seed``, by global index.

    ``SeedSequence.spawn`` numbers its children globally -- child
    ``i`` is ``SeedSequence(entropy=seed, spawn_key=(i,))`` no matter
    how the spawn calls were batched -- so any contiguous range of a
    fleet's per-die seeds can be reconstructed directly.  This is what
    makes checkpoint/resume bit-identical: a campaign resumed at die
    ``k`` draws exactly the dies the uninterrupted run would have
    (equivalence is locked down by
    ``tests/robustness/test_checkpoint_resume.py``).
    """
    entropy = np.random.SeedSequence(seed).entropy
    return [np.random.SeedSequence(entropy=entropy, spawn_key=(i,))
            for i in range(lo, hi)]


def stream_montecarlo_dies(golden_spec: BiquadSpec, count: int,
                           chunk_size: int = 1024,
                           sigma_f0: float = 0.03, sigma_q: float = 0.0,
                           seed: int = 0, start: int = 0):
    """Generator form of :func:`montecarlo_dies` for bounded memory.

    Yields :class:`SpecPopulation` chunks of at most ``chunk_size``
    dies.  :class:`numpy.random.SeedSequence` numbers its spawned
    children across successive ``spawn`` calls, so die ``i`` of the
    stream draws from exactly the same child as die ``i`` of the
    monolithic builder -- a streamed campaign's verdict vector is
    bit-identical to the one-shot run, while only ``chunk_size``
    specs ever exist at once.

    ``start`` begins the stream mid-fleet: dies ``start..count-1``
    are yielded with the same seeds and labels they would have had
    from die 0 (children reconstruct by global index via
    :func:`seed_children`).  A resumed checkpointed campaign uses
    this to skip the already-screened prefix without re-drawing it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk size must be >= 1")
    if start < 0:
        raise ValueError("start must be non-negative")
    emitted = start
    while emitted < count:
        take = min(chunk_size, count - emitted)
        children = seed_children(seed, emitted, emitted + take)
        yield _die_population(golden_spec, children, sigma_f0, sigma_q,
                              emitted)
        emitted += take


def deviation_sweep_population(golden_spec: BiquadSpec,
                               deviations: Sequence[float],
                               parameter: str = "f0") -> SpecPopulation:
    """The Fig. 8 sweep as a population (one die per deviation)."""
    devs = [float(d) for d in deviations]
    if parameter == "f0":
        specs = [golden_spec.with_f0_deviation(d) for d in devs]
        f0_devs, q_devs = devs, [0.0] * len(devs)
    elif parameter == "q":
        specs = [golden_spec.with_q_deviation(d) for d in devs]
        f0_devs, q_devs = [0.0] * len(devs), devs
    elif parameter == "gain":
        specs = [golden_spec.with_gain_deviation(d) for d in devs]
        f0_devs, q_devs = [0.0] * len(devs), [0.0] * len(devs)
    else:
        raise ValueError(f"unknown parameter {parameter!r}")
    labels = [f"{parameter}{d:+.4f}" for d in devs]
    return SpecPopulation(specs, np.asarray(f0_devs),
                          np.asarray(q_devs), labels)


def parameter_grid(golden_spec: BiquadSpec,
                   f0_deviations: Sequence[float],
                   q_deviations: Sequence[float]) -> SpecPopulation:
    """The (f0, Q) deviation grid, row-major in Q (multiparam layout)."""
    f0_axis = [float(d) for d in f0_deviations]
    q_axis = [float(d) for d in q_deviations]
    specs = []
    f0_devs = []
    q_devs = []
    labels = []
    for q_dev in q_axis:
        for f0_dev in f0_axis:
            specs.append(golden_spec.with_f0_deviation(f0_dev)
                         .with_q_deviation(q_dev))
            f0_devs.append(f0_dev)
            q_devs.append(q_dev)
            labels.append(f"f0{f0_dev:+.4f}_q{q_dev:+.4f}")
    return SpecPopulation(specs, np.asarray(f0_devs),
                          np.asarray(q_devs), labels)


# ----------------------------------------------------------------------
# Generic-CUT population builders
# ----------------------------------------------------------------------
def fault_dictionary(values: TowThomasValues,
                     faults: Optional[Sequence[Fault]] = None
                     ) -> Tuple[CutListPopulation, List[Fault]]:
    """Every catastrophic open/short of the Tow-Thomas CUT.

    Returns the population plus the aligned fault list (reports want
    the fault objects back next to the verdicts).
    """
    fault_list = list(faults) if faults is not None \
        else catastrophic_fault_universe()
    cuts = [f.apply_to_biquad(values) for f in fault_list]
    return CutListPopulation(cuts, [f.label for f in fault_list]), fault_list


# ----------------------------------------------------------------------
# Encoder population builders
# ----------------------------------------------------------------------
def montecarlo_monitor_banks(bank: Sequence[MonitorBoundary],
                             num_dies: int,
                             sampler: Optional[MonteCarloSampler] = None,
                             seed: int = 0) -> EncoderPopulation:
    """Process+mismatch-varied copies of a monitor bank, one per die."""
    sampler = sampler if sampler is not None \
        else MonteCarloSampler(rng=seed)
    encoders = [ZoneEncoder(b)
                for b in bank_samples(bank, sampler, num_dies)]
    labels = [f"mcdie{i:05d}" for i in range(num_dies)]
    return EncoderPopulation(encoders, labels)


def temperature_corners(temperatures_k: Sequence[float]
                        ) -> EncoderPopulation:
    """Table I banks re-evaluated at junction-temperature corners."""
    encoders = []
    labels = []
    for t in temperatures_k:
        params = at_temperature(NMOS_65NM, float(t))
        encoders.append(ZoneEncoder(table1_bank(params)))
        labels.append(f"{float(t) - 273.15:+.0f}C")
    return EncoderPopulation(encoders, labels)
