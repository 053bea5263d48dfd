"""The shard coordinator: split, dispatch, watch, reassign, merge.

One :class:`ShardCoordinator` owns a sharded campaign end to end:

1. **Plan** -- :func:`~repro.shard.planner.plan_shards` tiles the
   fleet's global die range into contiguous shards.  With
   ``autotune_target_s`` set the plan is carved *during* the campaign
   instead: each idle worker gets a slice sized from its observed die
   rate (:class:`~repro.shard.planner.ShardAutotuner`), so slow hosts
   get smaller slices and the ranges still tile ``[0, N)``.
2. **Dispatch** -- workers reach the coordinator through a
   :class:`~repro.shard.transport.Transport`: spawned subprocesses
   over stdio pipes (the default), or processes that dialed a
   ``listen`` TCP endpoint (``repro shard-worker --connect``).  Each
   gets an ``init`` (pickled config, the threshold resolved *once* in
   this process, the fleet description, the trace context) and then
   ``assign`` messages; a reader thread per worker funnels its
   protocol lines into one queue.  A worker that dials in mid-
   campaign -- a late rejoin -- is init-ed on accept and handed
   pending shards like any other.
3. **Watch** -- a worker speaks only while it holds a shard: a
   ``progress`` record per screened chunk, and a ``ping`` whenever
   nothing else went out for ``heartbeat/2`` seconds.  A worker whose
   channel closes (pipe EOF, process exit, socket close/reset), that
   holds a shard and goes silent past the heartbeat deadline, or
   that speaks an undecodable line (protocol desync) is declared
   lost: its channel is torn down, its shard goes back on the queue
   and -- pipe mode only -- a fresh worker respawns into the slot (a
   dialled-in worker must redial).
4. **Hold** -- the coordinator is the only holder of shard state.
   Every ``progress`` line carries the chunk's rows as a one-record
   :class:`StreamCheckpoint` log (a CRC-checked flat record), and the
   coordinator appends it to the shard's held rows in index order
   only: a record that fails its CRC, whose arrays disagree in
   length, that does not start at the shard's next index or that
   names another campaign than this one's ``init`` did, is a desync
   that loses the worker, like an undecodable line.  The record that
   brings the held rows to the shard's ``hi`` completes the shard.
   So every single lost line ends the campaign: a lost record leaves
   a hole (a desync), and a lost last record or ``assign`` leaves
   silence (a stall).  A reassignment carries ``resume_at``, the
   first row the coordinator does not hold, so it **resumes, never
   restarts**, on either carrier, and no worker writes a file.
5. **Merge** -- one :meth:`StreamCheckpoint.merge` over the held
   shards reassembles the fleet in global-index order, bit-identical
   to the monolithic stream (proven by ``tests/shard/`` and the CI
   ``sharded-campaign-smoke`` drill, including its loopback-TCP
   partition phase).  With a ``workdir`` each shard's merged state
   lands there as ``shard_NNNN.npz`` (a version-3 checkpoint log,
   whatever the name says) after a clean campaign.

Lifecycle metrics land in the process-default registry
(``shard_dispatched_total`` / ``shard_completed_total`` /
``shard_reassigned_total`` / ``shard_merge_seconds``, plus
``shard_bytes_total`` per transport direction and
``shard_rtt_seconds`` -- the assign-to-last-row round trip per shard,
which is also what feeds the autotuner --
``shard_record_decode_seconds``, one observation per row record
decoded, and
``shard_worker_startup_seconds``, spawn to first ``hello`` per
pipe worker process); with tracing on, the whole campaign nests under a
``shard.campaign`` span whose ``shard.dispatch`` children carry
``(shard, worker, attempt)`` -- a re-dispatch is visible as
``attempt > 1`` -- and worker-side spans come home pid- and
host-stamped on each shard's last ``progress`` record.  Stopping
workers is a ``shard.shutdown`` span wherever it happens: after a
standalone coordinator's campaign, after a failed one, when a set
replaces workers that started under another environment, and when a
set closes.

Pipe workers come from a :class:`WorkerSet`.  An engine keeps one until
it closes, so its second campaign leases the first one's
processes -- imports, engine, golden and front-half tables already
warm -- instead of spawning and shutting down two interpreters; a
standalone coordinator owns a private set and closes it at the end of
:meth:`ShardCoordinator.run`.

The drill hook: ``REPRO_SHARD_WORKER_FAULTS`` in the coordinator's
environment is forwarded (as ``REPRO_FAULTS``) to the *first* worker
a set spawns after the environment changed, and ``REPRO_FAULTS``
itself is stripped from every worker environment -- so
``shard.worker.kill`` SIGKILLs exactly one worker and the respawned
replacement cannot inherit the same death.  A set whose workers
started under another environment replaces them rather than lease
them, so a drill armed between two campaigns still lands in a fresh
worker.  The ``shard.transport.*`` fault points break the channel
itself (:mod:`repro.shard.transport`).
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import encoder_key
from repro.campaign.checkpoint import StreamCheckpoint
from repro.monitor.bank_encode import kernel_key
from repro.obs.logs import log_event
from repro.obs.metrics import DEFAULT_BUCKETS, default_registry
from repro.obs.trace import (
    SpanRecord,
    current_trace_context,
    current_tracer,
    span,
)
from repro.shard.planner import Shard, ShardAutotuner, plan_shards
from repro.shard.protocol import (
    assign_message,
    decode_message,
    encode_message,
    init_message,
    shutdown_message,
    unpack_rows,
)
from repro.shard.transport import (
    PipeTransport,
    SocketListener,
    Transport,
    TransportClosed,
)

#: Environment variable naming faults to arm in the FIRST worker a set
#: spawns under a new environment only (the worker-loss drill).
#: Respawned workers never see it, so an armed ``shard.worker.kill``
#: cannot loop forever.
WORKER_FAULTS_ENV = "REPRO_SHARD_WORKER_FAULTS"

#: Silence allowance before the first ``hello`` (interpreter start +
#: imports are much slower than a heartbeat interval).  Doubles as the
#: default grace a listening coordinator waits for its first -- or a
#: replacement -- worker to dial in.
STARTUP_GRACE = 60.0

#: Dispatch attempts per shard before the campaign fails.
MAX_ATTEMPTS = 3

#: Seconds each worker gets to exit after ``shutdown`` before it is
#: killed.  Every worker is told first, so the grace runs concurrently.
SHUTDOWN_GRACE = 5.0

#: ``shard_record_decode_seconds`` buckets: a row record decodes in
#: tens of microseconds, below the default buckets' 100 us floor.
DECODE_BUCKETS = (0.00001, 0.000025, 0.00005) + DEFAULT_BUCKETS


class ShardWorkerError(RuntimeError):
    """A worker reported a non-recoverable error or a shard ran out
    of reassignment attempts."""


class _Worker:
    """One worker (transport + bookkeeping), any carrier.

    Its reader thread delivers every received line, as ``(worker,
    message)``, to :attr:`sink` -- the queue of the campaign that
    holds the worker -- and drops lines while the worker idles in a
    :class:`WorkerSet` (``sink`` None), so nothing a worker says
    between campaigns can reach the next one.
    """

    __slots__ = ("index", "transport", "shard", "last_seen",
                 "hello_seen", "assigned_at", "host", "spawned_at",
                 "sink", "reading")

    def __init__(self, index: int, transport: Transport,
                 sink=None) -> None:
        self.index = index
        self.transport = transport
        self.shard: Optional[Shard] = None
        self.last_seen = time.monotonic()
        self.hello_seen = False
        self.assigned_at = 0.0
        self.host: Optional[str] = None
        #: Pipe workers only: monotonic spawn time, until the first
        #: ``hello`` is observed in ``shard_worker_startup_seconds``.
        self.spawned_at: Optional[float] = None
        self.sink: Optional["queue.Queue"] = sink
        #: False once the reader saw EOF or an undecodable line.
        self.reading = True

    @property
    def idle(self) -> bool:
        return self.shard is None

    def listen(self) -> None:
        """Start the reader thread."""
        threading.Thread(target=self._read, daemon=True,
                         name=f"shard-reader-{self.transport.describe()}"
                         ).start()

    def _read(self) -> None:
        for line in self.transport.lines():
            try:
                message = decode_message(line)
            except ValueError:
                # Protocol desync: nothing after an undecodable line
                # can be trusted, so this worker is lost (the
                # coordinator survives; the worker does not).
                self._deliver({"type": "_garbage", "line": line[:200]})
                return
            self._deliver(message)
        self._deliver({"type": "_eof"})

    def _deliver(self, message: dict) -> None:
        if message["type"] in ("_garbage", "_eof"):
            # Cleared before the sink is read: a lease that binds its
            # queue and then finds ``reading`` still set is sure to
            # receive this worker's end.
            self.reading = False
        sink = self.sink
        if sink is not None:
            sink.put((self, message))


def _send(worker: _Worker, message: Dict[str, object]) -> bool:
    try:
        worker.transport.send_line(encode_message(message))
        return True
    except TransportClosed:
        return False


def _stop_workers(workers: Sequence[_Worker]) -> None:
    """Stop workers, waiting out one exit instead of the sum.

    ``shutdown`` goes to every live worker before any wait starts;
    each then gets :data:`SHUTDOWN_GRACE` seconds from that send to
    exit and is killed if it has not.  A worker whose channel is
    already closed is killed at once; a dead one is skipped.
    """
    if not workers:
        return
    with span("shard.shutdown", workers=len(workers)):
        stopping: List[Transport] = []
        for worker in workers:
            worker.sink = None
            transport = worker.transport
            if not transport.alive():
                continue
            if _send(worker, shutdown_message()):
                stopping.append(transport)
            else:
                transport.kill()
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for transport in stopping:
            try:
                transport.wait(
                    timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                transport.kill()
            else:
                transport.close()


def _settle_keys(config) -> None:
    """Compute the keys a campaign memoizes on ``config``'s banks.

    A config pickles with whatever its encoders and boundaries have
    memoized so far (``encoder_key``, ``kernel_key``, each boundary's
    ``origin_sign``), and a campaign in this process can add them.
    Settled before the first ``init``, the same configuration packs to
    the same bytes on every campaign, which is what a warm worker
    compares -- exactly -- to decide that it may keep its engine.
    """
    for encoder in (config.encoder, *config.extra_encoders):
        encoder_key(encoder)
        kernel_key(encoder)
        for boundary in encoder.boundaries:
            boundary.origin_sign


class WorkerSet:
    """Local ``repro shard-worker`` processes kept warm across campaigns.

    A campaign leases workers (:meth:`lease`), which binds their reader
    threads to its message queue, and sends each its own ``init``
    (threshold, fleet, heartbeat, trace context); a worker keeps its
    engine, golden and front-half tables while the configuration is
    unchanged.  After a clean merge the campaign hands them back
    (:meth:`release`) and they idle until the next lease; after a
    failed campaign they are stopped instead.  Every
    :class:`~repro.campaign.engine.CampaignEngine` owns one set (see
    :meth:`~repro.campaign.engine.CampaignEngine.close`).

    The set spawns fresh workers instead of leasing idle ones when the
    caller's environment changed after they started, and forwards
    ``REPRO_SHARD_WORKER_FAULTS`` to the first worker spawned after
    such a change only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._environ: Optional[Dict[str, str]] = None
        self._drill_faults: Optional[str] = None
        self._logdir: Optional[str] = None
        self._serial = itertools.count()
        self._closed = False

    @property
    def pids(self) -> List[int]:
        """Process ids of the idle workers."""
        with self._lock:
            return [worker.transport.proc.pid for worker in self._idle]

    def lease(self, count: int, sink: "queue.Queue") -> List[_Worker]:
        """``count`` workers bound to ``sink``: idle ones first, then
        fresh spawns."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the shard worker set is closed")
            environ = dict(os.environ)
            stale: List[_Worker] = []
            if environ != self._environ:
                stale, self._idle = self._idle, []
                self._environ = environ
                self._drill_faults = environ.get(WORKER_FAULTS_ENV)
            warm, self._idle = self._idle[:count], self._idle[count:]
        _stop_workers(stale)
        leased: List[_Worker] = []
        for worker in warm:
            worker.sink = sink
            if worker.reading and worker.transport.alive():
                leased.append(worker)
            else:
                worker.sink = None
                worker.transport.kill()  # exited while idle: reap it
        try:
            while len(leased) < count:
                leased.append(self.spawn(sink))
        except BaseException:
            _stop_workers(leased)  # no campaign holds them yet
            raise
        return leased

    def spawn(self, sink: "queue.Queue") -> _Worker:
        """Start one worker bound to ``sink`` (for a lease, or to
        replace a worker lost mid-campaign)."""
        with self._lock:
            if self._logdir is None:
                self._logdir = tempfile.mkdtemp(
                    prefix="repro-shard-workers-")
            stderr_path = os.path.join(
                self._logdir, f"worker_{next(self._serial)}.stderr.log")
            env = self._worker_env()
        spawned_at = time.monotonic()
        with open(stderr_path, "w") as stderr_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "shard-worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=stderr_file, env=env, text=True, bufsize=1)
        worker = _Worker(-1, PipeTransport(proc, stderr_path),
                         sink=sink)
        worker.spawned_at = spawned_at
        worker.listen()
        log_event("shard.worker.spawned", pid=proc.pid)
        return worker

    def release(self, workers: Sequence[_Worker], healthy: bool) -> None:
        """Take a campaign's workers back: idle after a clean
        campaign, stopped after a failed one or once closed."""
        keep: List[_Worker] = []
        with self._lock:
            if healthy and not self._closed:
                keep = [worker for worker in workers
                        if worker.reading and worker.transport.alive()]
                for worker in keep:
                    worker.sink = None
                self._idle.extend(keep)
        _stop_workers([worker for worker in workers
                       if worker not in keep])

    def close(self) -> None:
        """Stop every idle worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            logdir, self._logdir = self._logdir, None
        _stop_workers(idle)
        if logdir is not None:
            shutil.rmtree(logdir, ignore_errors=True)

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # Never let the coordinator's own armed faults leak into
        # workers -- a respawned worker inheriting shard.worker.kill
        # would die forever.
        env.pop("REPRO_FAULTS", None)
        env.pop(WORKER_FAULTS_ENV, None)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing \
            else src_root + os.pathsep + existing
        if self._drill_faults:
            env["REPRO_FAULTS"] = self._drill_faults
            self._drill_faults = None  # first spawn only
        return env


class ShardCoordinator:
    """Run one sharded campaign; see the module docstring.

    Parameters
    ----------
    config, threshold, fleet:
        The engine configuration, the *resolved* NDF threshold (float
        or None -- workers never calibrate), and the shardable fleet
        (:mod:`repro.shard.fleets`).
    shards, workers:
        Planning and pool sizing: split into ``shards`` near-equal
        ranges and run at most ``workers`` subprocesses (default: one
        per shard); more shards than workers gives finer-grained
        reassignment.  With ``listen`` set the pool is whoever dials
        in, and an explicit ``workers`` is a dispatch barrier: no
        shard goes out until that many workers have said ``hello``
        (or ``rejoin_grace`` expires with at least one connected), so
        the first worker to dial in cannot drain the plan before the
        others arrive.  ``workers=None`` dispatches to each worker as
        it connects.
    workdir:
        Directory that receives each shard's merged state
        (``shard_NNNN.npz``, a :class:`StreamCheckpoint` log) after a
        clean campaign; None writes nothing.  Nothing reads
        it back: a campaign's rows live in this process only.
    heartbeat:
        Seconds of silence after which a worker that holds a shard
        counts as stalled.  A shard that fails :data:`MAX_ATTEMPTS`
        dispatches fails the campaign.
    listen:
        ``(host, port)`` to accept TCP workers on (port 0 binds an
        ephemeral port; read it back from :attr:`address`).  The
        coordinator then spawns nothing: ``repro shard-worker
        --connect HOST:PORT`` processes dial in, possibly late,
        possibly from other machines.
    autotune_target_s:
        When set, ignore the static plan and carve each worker's next
        shard to ``~autotune_target_s`` seconds of its *observed*
        screening rate (:class:`ShardAutotuner`).  The first slice
        per worker is ``ceil(count / (2 * shards))`` dies, aligned to
        the fleet chunk size.
    rejoin_grace:
        Listening mode only: seconds the coordinator waits with work
        pending and *zero* connected workers before failing the
        campaign (default :data:`STARTUP_GRACE`).
    worker_set:
        Pipe mode: the :class:`WorkerSet` to lease workers from and
        hand them back to (an engine passes its own).  None: a
        private set, closed when :meth:`run` ends.
    """

    def __init__(self, config, threshold: Optional[float], fleet,
                 shards: int = 2, workers: Optional[int] = None,
                 workdir: Optional[str] = None,
                 heartbeat: float = 5.0,
                 listen: Optional[Tuple[str, int]] = None,
                 autotune_target_s: Optional[float] = None,
                 rejoin_grace: float = STARTUP_GRACE,
                 worker_set: Optional[WorkerSet] = None) -> None:
        self.config = config
        self.threshold = None if threshold is None else float(threshold)
        self.fleet = fleet
        self._total = len(fleet)
        self.autotuner: Optional[ShardAutotuner] = None
        if autotune_target_s is not None:
            align = max(1, int(getattr(fleet, "chunk_size", 1) or 1))
            initial = max(align, math.ceil(
                self._total / max(1, 2 * shards)))
            self.autotuner = ShardAutotuner(
                float(autotune_target_s), initial_size=initial,
                align=align, max_size=max(self._total, 1))
            self.plan: List[Shard] = []
            self._frontier = 0
        else:
            self.plan = plan_shards(self._total, shards)
            self._frontier = self._total
        self._carved: List[Shard] = list(self.plan)
        self.listening = listen is not None
        self._listener = (SocketListener(listen[0], listen[1])
                          if self.listening else None)
        #: Listening mode only: hellos to wait for before dispatch.
        self._barrier = (max(1, int(workers))
                         if self.listening and workers is not None
                         else None)
        if self.listening:
            self.num_workers = max(1, workers if workers is not None
                                   else shards)
        else:
            self.num_workers = max(1, min(
                workers if workers is not None else shards,
                max(1, len(self.plan) or shards)))
        self.heartbeat = float(heartbeat)
        self.rejoin_grace = float(rejoin_grace)
        self._workdir = workdir
        #: Each dispatched shard's rows so far, in index order.
        self._held: Dict[int, StreamCheckpoint] = {}
        self._queue: "queue.Queue[Tuple[Optional[_Worker], dict]]" = \
            queue.Queue()
        self._workers: Dict[int, _Worker] = {}
        self._next_slot = 0
        self._worker_set = worker_set
        self._own_set = worker_set is None and not self.listening
        self._trace_context = None
        #: Drawn by :meth:`run`; every ``progress`` must echo it.
        self._campaign: Optional[str] = None
        self._accept_stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self.stats: Dict[str, float] = {
            "planned": float(len(self.plan)), "dispatched": 0.0,
            "completed": 0.0, "reassigned": 0.0,
            "workers": float(0 if self.listening
                             else self.num_workers),
            "merge_seconds": 0.0,
        }

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The listening ``(host, port)``; None in pipe mode."""
        return None if self._listener is None \
            else self._listener.address

    # ------------------------------------------------------------------
    # Worker channel management
    # ------------------------------------------------------------------
    def _enlist(self, slot: int, worker: _Worker) -> _Worker:
        """Give ``worker`` slot ``slot`` of this campaign and send it
        this campaign's ``init``."""
        worker.index = slot
        worker.shard = None
        worker.hello_seen = False
        worker.last_seen = time.monotonic()
        self._workers[slot] = worker
        self.stats["workers"] = max(self.stats["workers"],
                                    float(len(self._workers)))
        context = self._trace_context if self._trace_context \
            is not None else current_trace_context()
        # A closed channel fails here silently: the reader's EOF
        # declares the worker lost.
        _send(worker, init_message(
            self.config, self.threshold, self.fleet, self.heartbeat,
            None if context is None else context.to_dict(),
            self._campaign))
        return worker

    def _spawn(self, slot: int) -> _Worker:
        return self._enlist(slot, self._worker_set.spawn(self._queue))

    def _admit(self, slot: int, transport: Transport) -> _Worker:
        """Register a dialled-in channel: send ``init``, start its
        reader."""
        worker = self._enlist(slot, _Worker(slot, transport,
                                            sink=self._queue))
        worker.listen()
        return worker

    def _accept_loop(self) -> None:
        while not self._accept_stop.is_set():
            transport = self._listener.accept(timeout=0.2)
            if transport is not None:
                self._queue.put((None, {"type": "_connect",
                                        "transport": transport}))

    # ------------------------------------------------------------------
    # The campaign
    # ------------------------------------------------------------------
    def run(self) -> Tuple[StreamCheckpoint, Dict[str, float]]:
        """Execute every shard and merge; returns ``(merged, stats)``."""
        if self._own_set:
            self._worker_set = WorkerSet()
        _settle_keys(self.config)
        # A warm worker whose ``init`` was lost still holds the last
        # campaign's fleet: its rows name that campaign, not this one.
        self._campaign = os.urandom(8).hex()
        clean = False
        try:
            with span("shard.campaign",
                      shards=len(self.plan) or None,
                      workers=self.num_workers,
                      dies=self._total,
                      transport="socket" if self.listening else "pipe"):
                self._trace_context = current_trace_context()
                if self.listening:
                    self._accept_thread = threading.Thread(
                        target=self._accept_loop, daemon=True,
                        name="shard-accept")
                    self._accept_thread.start()
                self._run_shards()
                merged = self._merge()
                if self._workdir is not None:
                    os.makedirs(self._workdir, exist_ok=True)
                    for shard in self._carved:
                        self._held[shard.index].save(os.path.join(
                            self._workdir, shard.checkpoint_name()))
            clean = True
            return merged, dict(self.stats)
        finally:
            self._stop_accepting()
            self._hand_back(clean)

    def _stop_accepting(self) -> None:
        self._accept_stop.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None

    def _carve(self, worker: _Worker) -> Optional[Shard]:
        """Autotune mode: cut the next shard off the frontier, sized
        for this worker's observed rate."""
        if self._frontier >= self._total:
            return None
        size = self.autotuner.next_size(worker.index)
        shard = Shard(len(self._carved), self._frontier,
                      min(self._frontier + size, self._total))
        self._carved.append(shard)
        self._frontier = shard.hi
        self.stats["planned"] += 1
        log_event("shard.carved", shard=shard.index, lo=shard.lo,
                  hi=shard.hi, worker=worker.index,
                  rate=self.autotuner.rate(worker.index))
        return shard

    def _assign(self, worker: _Worker, shard: Shard,
                attempts: Dict[int, int]) -> bool:
        attempt = attempts.get(shard.index, 0) + 1
        attempts[shard.index] = attempt
        held = self._held.get(shard.index)
        if held is None:
            held = self._held[shard.index] = StreamCheckpoint(
                self.config.checkpoint_key(), self.threshold,
                start_index=shard.lo)
        with span("shard.dispatch", shard=shard.index, lo=shard.lo,
                  hi=shard.hi, worker=worker.index, attempt=attempt,
                  transport=worker.transport.kind):
            ok = _send(worker, assign_message(
                shard.index, shard.lo, shard.hi, held.next_index))
        if ok:
            worker.shard = shard
            worker.last_seen = worker.assigned_at = time.monotonic()
            self.stats["dispatched"] += 1
            default_registry().counter("shard_dispatched_total").inc()
            log_event("shard.dispatched", shard=shard.index,
                      lo=shard.lo, hi=shard.hi, worker=worker.index,
                      attempt=attempt)
        return ok

    def _lose_worker(self, worker: _Worker, pending: "deque[Shard]",
                     attempts: Dict[int, int], reason: str) -> None:
        """Tear down a lost worker and requeue its shard.

        Pipe mode respawns the slot (the coordinator owns the
        process); listening mode discards it and waits for the
        survivors or a redial -- the coordinator cannot restart a
        process on another machine.
        """
        worker.transport.kill()
        self._workers.pop(worker.index, None)
        shard = worker.shard
        worker.shard = None
        if shard is not None:
            if attempts.get(shard.index, 0) >= MAX_ATTEMPTS:
                raise ShardWorkerError(
                    f"shard {shard.index} dies [{shard.lo}, "
                    f"{shard.hi}) failed {MAX_ATTEMPTS} "
                    f"dispatch attempts (last worker "
                    f"{worker.transport.describe()} {reason}); "
                    f"worker stderr tail:\n"
                    f"{worker.transport.stderr_tail()}")
            pending.appendleft(shard)
            self.stats["reassigned"] += 1
            default_registry().counter("shard_reassigned_total").inc()
            log_event("shard.reassigned", shard=shard.index,
                      worker=worker.index, reason=reason)
        else:
            log_event("shard.worker.lost", worker=worker.index,
                      reason=reason)
        if not self.listening:
            self._spawn(worker.index)

    def _run_shards(self) -> None:
        if not self._carved and self._frontier >= self._total:
            return
        pending: "deque[Shard]" = deque(self.plan)
        attempts: Dict[int, int] = {}
        if not self.listening:
            for slot, worker in enumerate(self._worker_set.lease(
                    self.num_workers, self._queue)):
                self._enlist(slot, worker)
        tick = max(0.05, min(0.5, self.heartbeat / 4.0))
        workerless_since: Optional[float] = (
            time.monotonic() if self.listening else None)
        barrier_since = time.monotonic()
        dispatching = self._barrier is None
        while self.stats["completed"] < len(self._carved) \
                or self._frontier < self._total:
            if not dispatching:
                greeted = sum(1 for worker in self._workers.values()
                              if worker.hello_seen)
                dispatching = greeted >= self._barrier or (
                    bool(self._workers) and time.monotonic()
                    - barrier_since > self.rejoin_grace)
                if dispatching:
                    log_event("shard.dispatch.open", greeted=greeted,
                              connected=len(self._workers),
                              expected=self._barrier)
            for worker in (list(self._workers.values())
                           if dispatching else ()):
                if not worker.idle:
                    continue
                if not pending and self.autotuner is not None:
                    carved = self._carve(worker)
                    if carved is not None:
                        pending.append(carved)
                if not pending:
                    continue
                if self._assign(worker, pending[0], attempts):
                    pending.popleft()
                else:
                    # Channel already closed: treat as lost (shard
                    # stays at the queue front for the next worker).
                    self._lose_worker(worker, pending, attempts,
                                      "channel closed at assign")
            try:
                source, message = self._queue.get(timeout=tick)
            except queue.Empty:
                message = None
            if message is not None and source is None:
                if message.get("type") == "_connect" \
                        and not self._accept_stop.is_set():
                    transport = message["transport"]
                    worker = self._admit(self._next_slot, transport)
                    self._next_slot += 1
                    workerless_since = None
                    log_event("shard.worker.connected",
                              worker=worker.index,
                              peer=transport.describe())
            elif message is not None:
                worker = source
                if self._workers.get(worker.index) is not worker:
                    continue  # line from a replaced worker
                worker.last_seen = time.monotonic()
                kind = message.get("type")
                if kind == "hello":
                    worker.hello_seen = True
                    worker.host = message.get("host")
                    if worker.spawned_at is not None:
                        # Once per process: a warm worker says hello
                        # again to every campaign that re-inits it.
                        default_registry().histogram(
                            "shard_worker_startup_seconds").observe(
                            worker.last_seen - worker.spawned_at)
                        worker.spawned_at = None
                elif kind == "progress":
                    desync = self._take(worker, message)
                    if desync is not None:
                        self._lose_worker(worker, pending, attempts,
                                          desync)
                elif kind == "error":
                    raise ShardWorkerError(
                        f"worker {worker.index} "
                        f"({worker.transport.describe()}) failed "
                        f"shard {message.get('shard')}: "
                        f"{message.get('message')}\nstderr tail:\n"
                        f"{worker.transport.stderr_tail()}")
                elif kind == "_garbage":
                    self._lose_worker(
                        worker, pending, attempts,
                        f"sent an undecodable line "
                        f"{message.get('line')!r}")
                elif kind == "_eof":
                    worker.transport.wait()
                    if worker.shard is not None or pending \
                            or self._frontier < self._total:
                        self._lose_worker(worker, pending, attempts,
                                          "channel closed")
                    else:
                        self._workers.pop(worker.index, None)
                # ping only refreshes last_seen (above)
            # Stall detection, the only liveness rule: silent past the
            # deadline with work assigned (an idle worker says nothing).
            # Pre-hello workers get the startup grace.
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.shard is None:
                    continue
                deadline = self.heartbeat if worker.hello_seen \
                    else max(self.heartbeat, STARTUP_GRACE)
                if now - worker.last_seen > deadline:
                    self._lose_worker(worker, pending, attempts,
                                      "heartbeat deadline passed")
            # Listening mode liveness: fail rather than wait forever
            # when every worker is gone and none redials.
            if self.listening:
                if self._workers:
                    workerless_since = None
                elif workerless_since is None:
                    workerless_since = now
                elif now - workerless_since > self.rejoin_grace:
                    raise ShardWorkerError(
                        f"no connected workers for "
                        f"{self.rejoin_grace:.0f}s with "
                        f"{len(pending)} shard(s) pending; workers "
                        f"dial in with: repro shard-worker "
                        f"--connect {self.address[0]}:"
                        f"{self.address[1]}")

    def _take(self, worker: _Worker, message: dict) -> Optional[str]:
        """Accept a ``progress`` record; returns why the line is a
        desync (the worker is then lost), else None.

        Rows are taken in index order only: a record must name this
        campaign, start at its shard's next held index and stay inside
        the shard.  The record that brings the held rows to the
        shard's ``hi`` completes the shard.
        """
        shard = worker.shard
        if shard is None or message.get("shard") != shard.index:
            return (f"sent rows for shard {message.get('shard')!r} "
                    f"while assigned "
                    f"{None if shard is None else shard.index}")
        if message.get("campaign") != self._campaign:
            return (f"sent rows of campaign "
                    f"{message.get('campaign')!r}, not of this "
                    f"campaign {self._campaign!r}")
        held = self._held[shard.index]
        try:
            start = time.perf_counter()
            record = StreamCheckpoint.from_bytes(unpack_rows(message))
            default_registry().histogram(
                "shard_record_decode_seconds",
                buckets=DECODE_BUCKETS).observe(
                time.perf_counter() - start)
            if record.next_index > shard.hi:
                raise ValueError(f"rows up to die {record.next_index} "
                                 f"overrun the shard")
            held.append(record)
        except Exception as error:  # any unusable record: desync
            return (f"sent a row record that does not follow shard "
                    f"{shard.index} [{shard.lo}, {shard.hi}) held to "
                    f"die {held.next_index}: "
                    f"{type(error).__name__}: {error}")
        if held.next_index < shard.hi:
            return None
        held.complete = True
        worker.shard = None
        rtt = time.monotonic() - worker.assigned_at
        self.stats["completed"] += 1
        default_registry().counter("shard_completed_total").inc()
        default_registry().histogram(
            "shard_rtt_seconds",
            transport=worker.transport.kind).observe(rtt)
        if self.autotuner is not None:
            self.autotuner.observe(worker.index, shard.num_dies, rtt)
        log_event("shard.completed", shard=shard.index,
                  worker=worker.index, host=worker.host,
                  num_dies=shard.num_dies, seconds=round(rtt, 3))
        rows = message.get("spans") or []
        tracer = current_tracer()
        if tracer is not None and rows:
            tracer.absorb(SpanRecord.from_dict(r) for r in rows)
        return None

    def _merge(self) -> StreamCheckpoint:
        """One merge over the held shards (each complete by now)."""
        start = time.perf_counter()
        with span("shard.merge", parts=len(self._held)):
            if self._held:
                merged = StreamCheckpoint.merge(self._held.values())
            else:
                merged = StreamCheckpoint(self.config.checkpoint_key(),
                                          self.threshold)
                merged.complete = True
        elapsed = time.perf_counter() - start
        self.stats["merge_seconds"] = elapsed
        default_registry().histogram(
            "shard_merge_seconds").observe(elapsed)
        return merged

    def _hand_back(self, clean: bool) -> None:
        """Return pipe workers to their set after a clean campaign and
        stop them after a failed one; TCP workers always stop."""
        workers = list(self._workers.values())
        self._workers.clear()
        if self.listening:
            _stop_workers(workers)
            return
        self._worker_set.release(workers, healthy=clean)
        if self._own_set:
            self._worker_set.close()


__all__ = ["MAX_ATTEMPTS", "SHUTDOWN_GRACE", "STARTUP_GRACE",
           "ShardCoordinator", "ShardWorkerError", "WORKER_FAULTS_ENV",
           "WorkerSet"]
