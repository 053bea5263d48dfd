"""Executor layer: how a campaign's chunks are scheduled.

The engine splits a population into chunks and hands ``(worker, chunk)``
pairs to an executor.  Executors only schedule; all numerical work --
and all randomness -- happens in the deterministically-seeded chunks,
so every executor produces bit-identical results for the same
population (asserted by the equivalence tests).

* :class:`SerialExecutor` -- runs chunks in order, in process.  The
  right choice up to a few thousand dies, where batching (not
  parallelism) is the win.
* :class:`ProcessPoolExecutor` -- fans chunks out over worker
  processes via :mod:`concurrent.futures`; results are re-assembled in
  submission order.  Worker processes amortize golden-signature work
  through the process-wide default cache.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.obs.trace import (SpanRecord, TraceContext, context_tracer,
                             current_trace_context, current_tracer,
                             install_tracer, span, stamped_records)

T = TypeVar("T")
R = TypeVar("R")


def _traced_chunk_call(payload):
    """Pool-worker shim that joins the parent's trace.

    ``payload`` is ``(worker, context_dict, chunk)``: the worker
    process installs a :func:`context_tracer` rebuilt from the
    shipped :class:`TraceContext`, runs the real chunk worker under
    it, and returns ``(result, record_rows)`` -- its completed spans,
    pid-stamped, for the parent to :meth:`Tracer.absorb`.  Without
    this shim (tracing off) pool workers run the chunk worker
    directly and record nothing.
    """
    worker, context_row, chunk = payload
    tracer = context_tracer(TraceContext.from_dict(context_row))
    previous = install_tracer(tracer)
    try:
        result = worker(chunk)
    finally:
        install_tracer(previous)
    return result, stamped_records(tracer)


class SerialExecutor:
    """In-process, in-order chunk execution."""

    name = "serial"
    needs_picklable_work = False

    def map(self, worker: Callable[[T], R],
            chunks: Iterable[T]) -> List[R]:
        """Apply ``worker`` to every chunk, preserving order.

        With tracing on, every chunk runs under an ``executor.chunk``
        span (stage spans opened inside the chunk nest under it).
        """
        results: List[R] = []
        for index, chunk in enumerate(chunks):
            with span("executor.chunk", executor=self.name,
                      index=index):
                results.append(worker(chunk))
        return results

    def shutdown(self) -> None:
        """Nothing to release."""


class ProcessPoolExecutor:
    """Chunk fan-out over a process pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count (capped at 8 --
        the workloads saturate memory bandwidth well before that).
    """

    needs_picklable_work = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("need at least one worker")
        self.max_workers = int(max_workers)
        self.name = f"process-pool[{self.max_workers}]"
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers)
        return self._pool

    def map(self, worker: Callable[[T], R],
            chunks: Iterable[T]) -> List[R]:
        """Run chunks on the pool; results come back in order.

        ``worker`` and every chunk must be picklable (the engine's
        chunk workers are module-level functions taking dataclass
        payloads, which are).
        """
        chunks = list(chunks)
        with span("executor.map", executor=self.name,
                  chunks=len(chunks)) as map_span:
            pool = self._ensure_pool()
            # With tracing on, ship the (trace_id, parent_span_id)
            # pair into each pool worker so its stage spans come back
            # parented under this map span; workers return their
            # records alongside the chunk result and the parent
            # absorbs them into the active tracer.
            context = current_trace_context()
            if context is None:
                futures = [pool.submit(worker, chunk)
                           for chunk in chunks]
            else:
                parent_id = getattr(map_span, "_span_id", None)
                row = TraceContext(
                    trace_id=context.trace_id,
                    parent_span_id=parent_id).to_dict()
                futures = [pool.submit(_traced_chunk_call,
                                       (worker, row, chunk))
                           for chunk in chunks]
            results: List[R] = []
            for index, future in enumerate(futures):
                with span("executor.chunk", executor=self.name,
                          index=index):
                    outcome = future.result()
                if context is None:
                    results.append(outcome)
                else:
                    result, rows = outcome
                    tracer = current_tracer()
                    if tracer is not None:
                        tracer.absorb(SpanRecord.from_dict(r)
                                      for r in rows)
                    results.append(result)
            return results

    def shutdown(self) -> None:
        """Tear the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


#: Old name of the retired shared-memory pool, kept because
#: ``perfbench/layers.py`` imports it; drop it together with the
#: benchmark's ``executor.shm_speedup`` metric.
SharedMemoryExecutor = ProcessPoolExecutor
