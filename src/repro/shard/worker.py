"""The shard-worker loop behind ``repro shard-worker``.

A worker speaks the :mod:`repro.shard.protocol` line protocol on
stdin/stdout when the coordinator spawned it, or over a TCP socket
when it dialed in with ``repro shard-worker --connect HOST:PORT``
(the two carriers are byte-identical: the socket path simply wraps
the connection in text streams and runs the same loop).  It receives
an ``init`` (engine config, resolved threshold, fleet description,
trace context), then ``assign`` messages naming global die ranges.
A pipe worker lives in its engine's
:class:`~repro.shard.coordinator.WorkerSet` and gets a fresh ``init``
from every campaign that leases it: it installs that campaign's
tracer (or none) and heartbeat, and keeps its engine -- golden and
front-half tables included -- when the config bytes equal the last
ones (the ``shard.worker.init`` span says ``warm``).

Each assignment screens ``fleet.chunks(resume_at, hi)`` through the
engine's own per-part body (the one a streamed campaign folds) and
sends each chunk's rows home in a ``progress`` line, as a one-record
:class:`~repro.campaign.checkpoint.StreamCheckpoint` log (a
CRC-checked flat record: raw arrays and labels, no archive).  The
record that reaches ``hi`` completes the shard: it goes out after the
``shard.worker.run`` span closed, with the worker's span rows.  The
worker writes no file and keeps no state between chunks: the
coordinator holds every row, so a reassigned shard resumes at the
``resume_at`` the coordinator names, whichever worker takes it.

A worker speaks only while it holds a shard: until the shard's last
record, a daemon thread sends a ``ping`` whenever nothing else went
out for ``heartbeat/2`` seconds, so the coordinator can tell a
stalled worker from a slow chunk.  An idle worker is silent.

Fault points (the worker-loss drill):

=========================  =========================================
``shard.worker.kill``      SIGKILL this worker after a progress
                           report, the shard's last one included
                           (armed via ``REPRO_FAULTS`` in the
                           *worker's* environment; the coordinator
                           strips the variable from respawned
                           workers so the drill kills exactly once)
``shard.worker.error``     raise inside the assignment (exercises
                           the ``error`` protocol path)
=========================  =========================================
"""

from __future__ import annotations

import argparse
import os
import signal
import socket as socket_module
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, TextIO

from repro.campaign.engine import CampaignEngine
from repro.obs.trace import (
    TraceContext,
    context_tracer,
    install_tracer,
    span,
    stamped_records,
)
from repro.shard.protocol import (
    decode_message,
    encode_message,
    progress_message,
    unpack_payload,
)
from repro.shard.transport import dial, parse_endpoint
from repro.testing.faultinject import fail_if_armed, should_fail


class _Emitter:
    """Locked line writer, shared with the heartbeat thread.

    From :meth:`hold` to :meth:`release` -- while a shard is held --
    the heartbeat sends a ``ping`` whenever nothing went out for
    ``interval`` seconds.  A ping only fills silence, so a fast
    shard's records go out back to back.
    """

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self._sent_at = time.monotonic()
        self._stop = threading.Event()

    def send(self, message: Dict[str, object],
             if_silent_for: float = 0.0) -> None:
        """Write one line, unless one went out less than
        ``if_silent_for`` seconds ago."""
        line = encode_message(message)
        with self._lock:
            if time.monotonic() - self._sent_at < if_silent_for:
                return
            self._stream.write(line + "\n")
            self._stream.flush()
            self._sent_at = time.monotonic()

    def hold(self, interval: float) -> None:
        with self._lock:
            self._sent_at = time.monotonic()  # silence counts from here
        self._stop = stop = threading.Event()
        threading.Thread(target=self._heartbeat, args=(interval, stop),
                         daemon=True, name="shard-heartbeat").start()

    def release(self) -> None:
        self._stop.set()

    def _heartbeat(self, interval: float, stop: threading.Event) -> None:
        while not stop.wait(self._sent_at + interval - time.monotonic()):
            try:
                self.send({"type": "ping"}, if_silent_for=interval)
            except Exception:
                return  # coordinator went away; the loop ends us


class _State:
    """What the last ``init`` set up, and the engine kept warm."""

    def __init__(self, emit: _Emitter) -> None:
        self.emit = emit
        self.engine: Optional[CampaignEngine] = None
        self.config_b64: Optional[str] = None
        self.fleet = None
        self.threshold = None
        self.heartbeat = 5.0
        self.campaign: Optional[str] = None
        self.tracer = None

    def init(self, init: Dict[str, object]) -> None:
        """Take a campaign's ``init``: its id, tracer, fleet, threshold
        and heartbeat; a new engine only when the config bytes
        changed."""
        self.tracer = None if init.get("trace") is None else \
            context_tracer(TraceContext.from_dict(init["trace"]))
        install_tracer(self.tracer)
        with span("shard.worker.init", pid=os.getpid()) as record:
            warm = init["config_b64"] == self.config_b64
            if not warm:
                self.config_b64 = str(init["config_b64"])
                self.engine = CampaignEngine(
                    unpack_payload(self.config_b64))
            record.set(warm=warm)
            self.fleet = unpack_payload(init["fleet_b64"])
            self.threshold = init.get("threshold")
        self.heartbeat = float(init.get("heartbeat", 5.0))
        self.campaign = init.get("campaign")
        self.emit.send({"type": "hello", "pid": os.getpid(),
                        "host": socket_module.gethostname()})

    def send_rows(self, shard_index: int, record,
                  spans: Optional[List[Dict[str, object]]] = None
                  ) -> None:
        """Send one record home (``spans`` on a shard's last).  The kill
        fault point sits right after: dying there is the worst case
        for the coordinator (it believes the worker healthy)."""
        self.emit.send(progress_message(
            shard_index, self.campaign, record.to_bytes(), spans))
        if should_fail("shard.worker.kill"):
            os.kill(os.getpid(), signal.SIGKILL)


def worker_main(stdin: Optional[TextIO] = None,
                stdout: Optional[TextIO] = None) -> int:
    """Run the worker loop until ``shutdown`` or EOF; returns exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    emit = _Emitter(stdout)

    init_line = stdin.readline()
    if not init_line:
        return 1
    init = decode_message(init_line)
    if init.get("type") != "init":
        emit.send({"type": "error", "shard": None,
                   "message": f"expected init, got {init.get('type')!r}"})
        return 1
    state = _State(emit)
    try:
        state.init(init)
        for line in stdin:
            message = decode_message(line)
            kind = message.get("type")
            if kind == "shutdown":
                break
            if kind == "init":
                state.init(message)
                continue
            if kind != "assign":
                emit.send({"type": "error", "shard": None,
                           "message": f"unexpected message {kind!r}"})
                return 1
            shard_index = int(message["shard"])
            lo, hi = int(message["lo"]), int(message["hi"])
            try:
                _run_assignment(state, shard_index, lo, hi,
                                int(message["resume_at"]))
            except Exception:
                emit.send({"type": "error", "shard": shard_index,
                           "message": traceback.format_exc(limit=8)})
                return 1
        return 0
    finally:
        emit.release()


def _run_assignment(state: _State, shard_index: int, lo: int, hi: int,
                    resume_at: int) -> None:
    """Screen dies ``[resume_at, hi)`` of shard ``[lo, hi)`` and send
    each chunk's rows home, heartbeating until the last record.

    The rows carry the coordinator's *resolved* threshold, so no
    worker ever re-runs calibration.
    """
    engine = state.engine
    state.emit.hold(state.heartbeat / 2.0)
    with span("shard.worker.run", shard=shard_index, lo=lo, hi=hi,
              resume_at=resume_at, pid=os.getpid()):
        fail_if_armed("shard.worker.error")
        for __, record, __ in engine._screen_parts(
                state.fleet.chunks(resume_at, hi),
                engine.config.checkpoint_key(), state.threshold,
                offset=resume_at):
            if record.next_index == hi:
                break
            state.send_rows(shard_index, record)
    tracer = state.tracer
    rows = [] if tracer is None else stamped_records(tracer)
    if tracer is not None:
        tracer.clear()
    state.send_rows(shard_index, record, spans=rows)
    state.emit.release()


def connect_main(host: str, port: int, attempts: int = 40,
                 delay: float = 0.25) -> int:
    """Dial a listening coordinator and run the worker loop over TCP.

    The socket is wrapped in line-buffered text streams and handed to
    the exact :func:`worker_main` the stdio path runs -- the protocol
    and every screening semantic are carrier-independent by
    construction.
    """
    sock = dial(host, port, attempts=attempts, delay=delay)
    try:
        sock.setsockopt(socket_module.IPPROTO_TCP,
                        socket_module.TCP_NODELAY, 1)
    except OSError:
        pass
    reader = sock.makefile("r", encoding="utf-8", newline="\n")
    writer = sock.makefile("w", encoding="utf-8", newline="\n")
    try:
        return worker_main(stdin=reader, stdout=writer)
    except (BrokenPipeError, ConnectionError, OSError):
        return 1  # coordinator went away mid-campaign
    finally:
        for handle in (reader, writer):
            try:
                handle.close()
            except (OSError, ValueError):
                pass
        try:
            sock.close()
        except OSError:
            pass


def worker_cli(argv: Optional[List[str]] = None) -> int:
    """``repro shard-worker`` entry: stdio by default, TCP with
    ``--connect HOST:PORT``."""
    parser = argparse.ArgumentParser(
        prog="repro shard-worker",
        description="Run a shard worker: speaks the shard line "
                    "protocol on stdin/stdout (when spawned by a "
                    "coordinator) or dials a coordinator listening "
                    "with --listen (multi-node campaigns).")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="dial a coordinator instead of speaking "
                             "on stdin/stdout")
    parser.add_argument("--retries", type=int, default=40,
                        help="connection attempts before giving up "
                             "(default 40)")
    parser.add_argument("--retry-delay", type=float, default=0.25,
                        help="seconds between connection attempts "
                             "(default 0.25)")
    args = parser.parse_args(argv)
    if args.connect is None:
        return worker_main()
    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as error:
        parser.error(str(error))
    try:
        return connect_main(host, port, attempts=args.retries,
                            delay=args.retry_delay)
    except ConnectionError as error:
        print(f"shard-worker: {error}", file=sys.stderr)
        return 1


__all__ = ["connect_main", "worker_cli", "worker_main"]
