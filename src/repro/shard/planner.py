"""Shard planning: split a global die-index range into shards.

A shard is the contiguous global range ``[lo, hi)`` one worker screens
and sends home chunk by chunk.  The planner only decides the ranges;
per-die work is a pure function of the global index (seeds, labels,
scoring are all chunk-boundary independent), so any plan merges
bit-identical to the monolithic run.

The static plan has one mode, ``shards=N``: a near-equal split into N
contiguous ranges, the first ``count % N`` shards one die longer (no
shard differs from another by more than one die, and no empty shards
are emitted for ``N > count``).  More shards than workers means
finer-grained reassignment when a worker dies: only the lost shard
re-executes, from the first row the coordinator does not hold.
:class:`ShardAutotuner` replaces the static plan with shards carved
during the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Shard:
    """One contiguous global die range ``[lo, hi)``."""

    index: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(f"invalid shard range [{self.lo}, {self.hi})")

    @property
    def num_dies(self) -> int:
        return self.hi - self.lo

    def checkpoint_name(self) -> str:
        """Stable per-shard checkpoint filename (a ``workdir``'s; the
        file holds a version-3 log despite the ``.npz`` suffix)."""
        return f"shard_{self.index:04d}.npz"


def plan_shards(count: int, shards: int = 2) -> List[Shard]:
    """Split ``count`` dies into ``shards`` near-equal contiguous
    shards.

    Empty shards are never emitted; a zero-die fleet plans zero
    shards.  Consecutive shards tile ``[0, count)`` exactly -- the
    invariant :meth:`StreamCheckpoint.merge` enforces when
    reassembling.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    plan: List[Shard] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        plan.append(Shard(i, lo, hi))
        lo = hi
    return plan


class ShardAutotuner:
    """Size the *next* shard from observed per-shard seconds.

    The static planner cuts equal slices, which is exactly wrong for a
    heterogeneous fleet of hosts: the slowest worker gates the
    campaign.  The autotuner closes the loop -- the coordinator
    reports every completed shard's ``(dies, seconds)`` per worker
    (:meth:`observe`), and :meth:`next_size` targets
    ``target_seconds`` of work for *that* worker from its smoothed
    die rate.  Slow hosts get smaller slices; fast hosts get bigger
    ones; a worker never measured gets ``initial_size``.

    Sizes are rounded up to a multiple of ``align`` (the fleet chunk
    size: row records end on chunk boundaries, so an aligned shard
    never splits a chunk) and clamped to ``[min_size, max_size]``.
    The *ranges* stay contiguous regardless -- the coordinator carves
    them sequentially from the frontier -- so bit-identity of the
    merge never depends on sizing decisions.
    """

    def __init__(self, target_seconds: float,
                 initial_size: int = 256, align: int = 1,
                 min_size: Optional[int] = None,
                 max_size: Optional[int] = None,
                 smoothing: float = 0.5) -> None:
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        if initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        if align < 1:
            raise ValueError("align must be >= 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.target_seconds = float(target_seconds)
        self.align = int(align)
        self.min_size = max(int(min_size) if min_size is not None
                            else self.align, 1)
        self.max_size = None if max_size is None else int(max_size)
        self.initial_size = self._quantize(int(initial_size))
        self.smoothing = float(smoothing)
        self._rates: Dict[object, float] = {}

    def _quantize(self, size: int) -> int:
        aligned = -(-size // self.align) * self.align  # ceil multiple
        aligned = max(aligned, self.min_size)
        if self.max_size is not None:
            aligned = min(aligned, self.max_size)
        return max(aligned, 1)

    def observe(self, worker: object, dies: int,
                seconds: float) -> None:
        """Record one completed shard for ``worker``'s rate."""
        if dies <= 0 or seconds <= 0:
            return
        rate = dies / seconds
        previous = self._rates.get(worker)
        if previous is None:
            self._rates[worker] = rate
        else:
            self._rates[worker] = (self.smoothing * rate +
                                   (1.0 - self.smoothing) * previous)

    def rate(self, worker: object) -> Optional[float]:
        """Smoothed dies/second for ``worker`` (None = unmeasured)."""
        return self._rates.get(worker)

    def next_size(self, worker: object) -> int:
        """Dies the next shard for ``worker`` should carry."""
        rate = self._rates.get(worker)
        if rate is None:
            return self.initial_size
        return self._quantize(int(round(rate * self.target_seconds)))


__all__ = ["Shard", "ShardAutotuner", "plan_shards"]
