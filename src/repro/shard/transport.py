"""Coordinator-side worker channels: one line protocol, two carriers.

The coordinator never talks to a subprocess or a socket directly; it
talks to a :class:`Transport` -- send a protocol line, iterate received
lines, ask whether the far side is alive, close or kill the channel.
Two implementations carry the identical :mod:`repro.shard.protocol`
framing:

* :class:`PipeTransport` -- the original mode: the coordinator spawned
  ``repro shard-worker`` itself and owns its stdin/stdout pipes and a
  stderr log file.  "Lost" means the pipe closed or the process
  exited; recovery is respawning into the same slot.
* :class:`SocketTransport` -- a TCP connection a worker dialed
  into the coordinator's :class:`SocketListener` (``repro campaign
  --listen HOST:PORT`` accepting ``repro shard-worker --connect``).
  "Lost" means the socket closed or the heartbeat went silent;
  recovery is reassigning to the surviving or late-rejoining workers
  (the coordinator cannot respawn a process on another machine).

Every line through either carrier feeds the ``shard_bytes_total``
counter (labelled by direction and transport), and three fault points
sit on the receive/send seams so the chaos suite can break the network
on demand (``tests/shard/test_network_faults.py``):

==============================  ======================================
``shard.transport.drop``        silently discard one line (sent lines
                                vanish in flight; received lines
                                never reach the coordinator loop)
``shard.transport.delay``       deliver one line late
                                (``REPRO_FAULT_SLOW_S`` seconds) --
                                latency, not loss: nothing may be
                                reassigned for it
``shard.transport.partition``   sever the channel abruptly (socket
                                closed / worker killed mid-line), as
                                a network partition would
==============================  ======================================
"""

from __future__ import annotations

import socket
import subprocess
import time
from typing import Iterator, Optional, Tuple

from repro.obs.metrics import default_registry
from repro.testing.faultinject import should_fail, slow_seconds


class TransportClosed(ConnectionError):
    """The channel to the worker is gone (send failed or severed)."""


def _count_bytes(direction: str, transport: str, line: str) -> None:
    default_registry().counter(
        "shard_bytes_total", direction=direction,
        transport=transport).inc(len(line) + 1)  # +1: the newline


class Transport:
    """One coordinator<->worker channel (see the module docstring).

    Subclasses implement the raw carrier (:meth:`_write_line`,
    :meth:`_iter_lines`, :meth:`alive`, :meth:`close`, :meth:`kill`);
    the base class owns what must behave identically on every
    carrier: byte accounting and the three network fault points.
    """

    kind = "abstract"

    # -- carrier hooks -------------------------------------------------
    def _write_line(self, line: str) -> None:
        raise NotImplementedError

    def _iter_lines(self) -> Iterator[str]:
        raise NotImplementedError

    def alive(self) -> bool:
        """True while the far side could still speak."""
        raise NotImplementedError

    def close(self) -> None:
        """Graceful close (after ``shutdown`` was sent)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Forceful teardown (lost worker, partition drill)."""
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None) -> None:
        """Wait for the far side to finish (no-op unless owned)."""

    def describe(self) -> str:
        """Human-readable endpoint for logs and errors."""
        return self.kind

    def stderr_tail(self, lines: int = 20) -> str:
        """Last stderr lines when the carrier captures them."""
        return "<no stderr captured: dialled-in worker>"

    # -- the shared wire discipline ------------------------------------
    def send_line(self, line: str) -> None:
        """Send one protocol line; raises :class:`TransportClosed`.

        Runs the fault gate first: a partition severs the channel and
        raises, a delay stalls the send, a drop returns as if the
        line had been delivered (the far side simply never sees it).
        """
        if should_fail("shard.transport.partition"):
            self.kill()
            raise TransportClosed(
                f"injected partition on {self.describe()}")
        if should_fail("shard.transport.delay"):
            time.sleep(slow_seconds())
        if should_fail("shard.transport.drop"):
            return
        _count_bytes("sent", self.kind, line)
        self._write_line(line)

    def lines(self) -> Iterator[str]:
        """Received protocol lines until EOF (reader-thread food).

        The same fault gate runs per received line: a partition kills
        the channel and ends the iteration (the reader reports EOF,
        exactly what a real mid-campaign cable pull produces), a
        delay stalls delivery, a drop skips the line.
        """
        for line in self._iter_lines():
            if should_fail("shard.transport.partition"):
                self.kill()
                return
            if should_fail("shard.transport.delay"):
                time.sleep(slow_seconds())
            if should_fail("shard.transport.drop"):
                continue
            # Received lines keep their newline; sent lines don't --
            # strip before counting so both directions count wire
            # bytes identically.
            _count_bytes("received", self.kind, line.rstrip("\n"))
            yield line


class PipeTransport(Transport):
    """The spawned-subprocess carrier (stdin/stdout text pipes)."""

    kind = "pipe"

    def __init__(self, proc: subprocess.Popen,
                 stderr_path: str) -> None:
        self.proc = proc
        self.stderr_path = stderr_path

    def _write_line(self, line: str) -> None:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as error:
            raise TransportClosed(
                f"pipe to pid {self.proc.pid} closed: {error}") \
                from None

    def _iter_lines(self) -> Iterator[str]:
        # The reader thread owns stdout: it closes it at EOF, so kill()
        # never waits on the reader's buffer lock.
        with self.proc.stdout:
            yield from self.proc.stdout

    def alive(self) -> bool:
        return self.proc.poll() is None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except (OSError, ValueError):
            pass

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()
        self.close()

    def wait(self, timeout: Optional[float] = None) -> None:
        self.proc.wait(timeout=timeout)

    def describe(self) -> str:
        return f"pipe[pid {self.proc.pid}]"

    def stderr_tail(self, lines: int = 20) -> str:
        try:
            with open(self.stderr_path, "r", errors="replace") as fh:
                return "".join(fh.readlines()[-lines:])
        except OSError:
            return "<no stderr captured>"


class SocketTransport(Transport):
    """The dialed-in TCP carrier (one accepted connection)."""

    kind = "socket"

    def __init__(self, sock: socket.socket,
                 peer: Optional[Tuple[str, int]] = None) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (socketpair in tests)
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8",
                                     newline="\n")
        self._writer = sock.makefile("w", encoding="utf-8",
                                     newline="\n")
        if peer is None:
            try:
                peer = sock.getpeername()
            except OSError:
                peer = None
        if not (isinstance(peer, tuple) and len(peer) >= 2):
            peer = None  # AF_UNIX socketpair in tests: no host:port
        self.peer = peer
        self._closed = False

    def _write_line(self, line: str) -> None:
        if self._closed:
            raise TransportClosed(f"{self.describe()} already closed")
        try:
            self._writer.write(line + "\n")
            self._writer.flush()
        except (BrokenPipeError, ConnectionError, OSError,
                ValueError) as error:
            self.kill()
            raise TransportClosed(
                f"{self.describe()} closed: {error}") from None

    def _iter_lines(self) -> Iterator[str]:
        try:
            for line in self._reader:
                yield line
        except (ConnectionError, OSError, ValueError):
            return  # reset mid-read reads as EOF: same loss path

    def alive(self) -> bool:
        return not self._closed

    def close(self) -> None:
        self.kill()

    def kill(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Shut the socket down first: it wakes a reader thread blocked
        # in recv (which holds the reader's buffer lock), so closing
        # the reader below cannot wait on it forever.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for handle in (self._writer, self._reader):
            try:
                handle.close()
            except (OSError, ValueError):
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    def describe(self) -> str:
        if self.peer is None:
            return "socket"
        return f"socket[{self.peer[0]}:{self.peer[1]}]"


class SocketListener:
    """The coordinator's ``--listen`` endpoint.

    Binds eagerly (so :attr:`address` is known before the campaign
    starts -- tests and benchmarks listen on port 0) and hands each
    accepted connection back as a :class:`SocketTransport`.
    """

    def __init__(self, host: str, port: int, backlog: int = 16) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET,
                              socket.SO_REUSEADDR, 1)
        self._sock.bind((host, int(port)))
        self._sock.listen(backlog)
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolved when port was 0)."""
        return self._sock.getsockname()[:2]

    def accept(self, timeout: float = 0.2
               ) -> Optional[SocketTransport]:
        """One accepted worker connection, or None on timeout/close."""
        if self._closed:
            return None
        self._sock.settimeout(timeout)
        try:
            conn, peer = self._sock.accept()
        except socket.timeout:
            return None
        except OSError:
            return None  # listener closed under us: accept loop ends
        return SocketTransport(conn, peer=(peer[0], peer[1]))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


def dial(host: str, port: int, attempts: int = 40,
         delay: float = 0.25) -> socket.socket:
    """Connect a worker to a listening coordinator, with retries.

    Workers routinely start before (or outlive) the coordinator's
    listener -- a late-rejoining worker uses exactly this path -- so
    refusal retries for ``attempts * delay`` seconds before giving up.
    """
    last: Optional[Exception] = None
    for _ in range(max(1, attempts)):
        try:
            return socket.create_connection((host, int(port)),
                                            timeout=10.0)
        except OSError as error:
            last = error
            time.sleep(delay)
    raise ConnectionError(
        f"could not connect to coordinator at {host}:{port}: {last}")


def parse_endpoint(value: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` -> ``(host, port)`` (ValueError on junk)."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"endpoint {value!r} is not HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"endpoint {value!r} has a non-numeric port") from None


__all__ = ["PipeTransport", "SocketListener", "SocketTransport",
           "Transport", "TransportClosed", "dial", "parse_endpoint"]
