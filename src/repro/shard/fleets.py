"""Shardable fleet descriptions: rebuild any die range on demand.

A sharded campaign cannot ship a materialized population to its
workers -- the whole point is that no process ever holds the fleet.
Instead the coordinator ships a small picklable *fleet* object that
every worker can ask for an arbitrary contiguous die range:
``fleet.chunks(lo, hi)`` yields :class:`SpecPopulation` chunks covering
global dies ``[lo, hi)`` with exactly the seeds and labels the
monolithic builder would have produced for those indices.  That
global-index purity (PR 7's ``seed_children`` /
``stream_montecarlo_dies(start=)`` contract) is what makes the merged
shard results bit-identical to the single-process run.

* :class:`MonteCarloFleet` -- process-spread MC dies, rebuilt from
  ``(golden_spec, seed)``; the payload is a few hundred bytes no
  matter the fleet size.
* :class:`PopulationFleet` -- an already-materialized
  :class:`SpecPopulation` (sweeps, grids) sliced by row range; fine
  for populations that fit in memory anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.campaign.scenarios import (
    SpecPopulation,
    fixed_seed,
    stream_montecarlo_dies,
)
from repro.filters.biquad import BiquadSpec


@dataclass(frozen=True)
class MonteCarloFleet:
    """A Monte Carlo die fleet, described (not materialized).

    Die ``i`` is a pure function of ``(seed, i)``; any worker
    reconstructs any range without communicating with any other.
    ``seed=None`` draws fresh root entropy once, when the fleet is
    built, and keeps it in ``seed``.
    """

    golden_spec: BiquadSpec
    count: int
    sigma_f0: float = 0.03
    sigma_q: float = 0.0
    seed: int = 0
    chunk_size: int = 256

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        object.__setattr__(self, "seed", fixed_seed(self.seed))

    def __len__(self) -> int:
        return self.count

    def chunks(self, lo: int, hi: int) -> Iterator[SpecPopulation]:
        """Population chunks covering global dies ``[lo, hi)``."""
        if not 0 <= lo <= hi <= self.count:
            raise ValueError(f"range [{lo}, {hi}) outside fleet of "
                             f"{self.count}")
        return stream_montecarlo_dies(
            self.golden_spec, hi, chunk_size=self.chunk_size,
            sigma_f0=self.sigma_f0, sigma_q=self.sigma_q,
            seed=self.seed, start=lo)


@dataclass(frozen=True)
class PopulationFleet:
    """A materialized :class:`SpecPopulation` sliced by die range.

    Sweeps and grids are small enough to pickle whole; each worker
    slices out its shard's rows.  Row ``i`` of the population is
    global die ``i`` -- slicing preserves per-die metadata, so shard
    results concatenate bit-identical to running the population
    through the engine in one piece.
    """

    population: SpecPopulation
    chunk_size: int = 256

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    def __len__(self) -> int:
        return len(self.population)

    def chunks(self, lo: int, hi: int) -> Iterator[SpecPopulation]:
        """Population chunks covering global dies ``[lo, hi)``."""
        n = len(self.population)
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"range [{lo}, {hi}) outside fleet of {n}")
        return self._iter_chunks(lo, hi)

    def _iter_chunks(self, lo: int, hi: int) -> Iterator[SpecPopulation]:
        for start in range(lo, hi, self.chunk_size):
            yield self.population[start:min(start + self.chunk_size, hi)]


ShardFleet = Union[MonteCarloFleet, PopulationFleet]


def as_fleet(obj, chunk_size: int = 256) -> ShardFleet:
    """Coerce ``obj`` into a shardable fleet.

    Fleet objects pass through; a :class:`SpecPopulation` (or a raw
    spec sequence) wraps into a :class:`PopulationFleet`.
    """
    if isinstance(obj, (MonteCarloFleet, PopulationFleet)):
        return obj
    if isinstance(obj, SpecPopulation):
        return PopulationFleet(obj, chunk_size=chunk_size)
    if hasattr(obj, "chunks") and hasattr(obj, "__len__"):
        return obj  # duck-typed custom fleet
    return PopulationFleet(SpecPopulation.from_specs(obj),
                           chunk_size=chunk_size)


__all__ = ["MonteCarloFleet", "PopulationFleet", "ShardFleet",
           "as_fleet"]
