"""Transport-layer unit tests: both carriers, one wire discipline.

The coordinator's behaviour must not depend on the carrier, so these
tests drive :class:`PipeTransport` and :class:`SocketTransport`
through the identical send/receive/fault surface -- socket pairs and
a tiny echo subprocess stand in for real workers.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.metrics import default_registry
from repro.shard.transport import (
    PipeTransport,
    SocketListener,
    SocketTransport,
    TransportClosed,
    dial,
    parse_endpoint,
)
from repro.testing.faultinject import arm


def _socket_pair():
    left, right = socket.socketpair()
    return SocketTransport(left), SocketTransport(right)


def _echo_pipe():
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys\n"
         "for line in sys.stdin:\n"
         "    sys.stdout.write(line)\n"
         "    sys.stdout.flush()\n"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, bufsize=1)
    return PipeTransport(proc, stderr_path="/nonexistent")


# ---------------------------------------------------------------------
# parse_endpoint
# ---------------------------------------------------------------------
def test_parse_endpoint_host_port():
    assert parse_endpoint("127.0.0.1:9100") == ("127.0.0.1", 9100)
    assert parse_endpoint("node-a.local:0") == ("node-a.local", 0)


@pytest.mark.parametrize("junk", ["", "9100", ":9100", "host:",
                                  "host:abc", "host:1:2:x"])
def test_parse_endpoint_rejects_junk(junk):
    with pytest.raises(ValueError):
        parse_endpoint(junk)


# ---------------------------------------------------------------------
# SocketTransport basics
# ---------------------------------------------------------------------
def test_socket_round_trip_lines():
    a, b = _socket_pair()
    try:
        a.send_line('{"type":"ping"}')
        a.send_line('{"type":"done"}')
        received = b.lines()
        assert next(received).strip() == '{"type":"ping"}'
        assert next(received).strip() == '{"type":"done"}'
    finally:
        a.kill()
        b.kill()


def test_socket_send_after_kill_raises_transport_closed():
    a, b = _socket_pair()
    b.kill()
    a.kill()
    with pytest.raises(TransportClosed):
        a.send_line("x")
    assert not a.alive()


def test_socket_peer_close_reads_as_eof():
    a, b = _socket_pair()
    a.send_line("one")
    a.kill()
    try:
        assert [line.strip() for line in b.lines()] == ["one"]
    finally:
        b.kill()


def test_socket_kill_wakes_a_reader_blocked_in_recv():
    """Losing a worker kills its channel from the coordinator's thread
    while the channel's reader thread waits for a line: the kill must
    end that read (as EOF), not wait for it."""
    a, b = _socket_pair()
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(a.lines()),
                              daemon=True)
    reader.start()
    time.sleep(0.05)  # let the reader block in recv
    killer = threading.Thread(target=a.kill, daemon=True)
    killer.start()
    killer.join(timeout=5.0)
    reader.join(timeout=5.0)
    try:
        assert not killer.is_alive(), "kill waited on the blocked reader"
        assert not reader.is_alive() and lines == []
    finally:
        b.kill()


def test_socket_counts_bytes_both_directions():
    a, b = _socket_pair()
    sent = default_registry().counter(
        "shard_bytes_total", direction="sent", transport="socket")
    received = default_registry().counter(
        "shard_bytes_total", direction="received",
        transport="socket")
    sent_before, received_before = sent.value, received.value
    try:
        a.send_line("hello")  # 5 + newline
        assert next(b.lines()).strip() == "hello"
    finally:
        a.kill()
        b.kill()
    assert sent.value == sent_before + 6
    assert received.value == received_before + 6


# ---------------------------------------------------------------------
# PipeTransport basics
# ---------------------------------------------------------------------
def test_pipe_round_trip_and_describe():
    transport = _echo_pipe()
    try:
        assert transport.alive()
        assert str(transport.proc.pid) in transport.describe()
        transport.send_line("echo-me")
        assert next(transport.lines()).strip() == "echo-me"
    finally:
        transport.kill()
    assert not transport.alive()


def test_pipe_send_after_exit_raises_transport_closed():
    transport = _echo_pipe()
    transport.kill()
    with pytest.raises(TransportClosed):
        transport.send_line("too late")


# ---------------------------------------------------------------------
# Fault gates (identical on every carrier)
# ---------------------------------------------------------------------
def test_drop_fault_swallows_one_sent_line():
    a, b = _socket_pair()
    try:
        arm("shard.transport.drop", times=1)
        a.send_line("lost in flight")
        a.send_line("delivered")
        assert next(b.lines()).strip() == "delivered"
    finally:
        a.kill()
        b.kill()


def test_drop_fault_swallows_one_received_line():
    a, b = _socket_pair()
    try:
        a.send_line("first")
        a.send_line("second")
        arm("shard.transport.drop", times=1)
        assert next(b.lines()).strip() == "second"
    finally:
        a.kill()
        b.kill()


def test_partition_fault_severs_send_side():
    a, b = _socket_pair()
    try:
        arm("shard.transport.partition", times=1)
        with pytest.raises(TransportClosed):
            a.send_line("never arrives")
        assert not a.alive()
    finally:
        a.kill()
        b.kill()


def test_partition_fault_severs_receive_side_as_eof():
    a, b = _socket_pair()
    try:
        a.send_line("doomed")
        arm("shard.transport.partition", times=1)
        assert list(b.lines()) == []
        assert not b.alive()
    finally:
        a.kill()
        b.kill()


def test_delay_fault_is_latency_not_loss(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SLOW_S", "0.01")
    a, b = _socket_pair()
    try:
        arm("shard.transport.delay", times=1)
        a.send_line("late but intact")
        assert next(b.lines()).strip() == "late but intact"
    finally:
        a.kill()
        b.kill()


# ---------------------------------------------------------------------
# Listener + dial
# ---------------------------------------------------------------------
def test_listener_accept_and_dial_round_trip():
    listener = SocketListener("127.0.0.1", 0)
    host, port = listener.address
    assert port != 0  # ephemeral port resolved at bind
    try:
        client = dial(host, port, attempts=5, delay=0.05)
        server_side = listener.accept(timeout=2.0)
        assert server_side is not None
        assert "socket[" in server_side.describe()
        client_side = SocketTransport(client)
        try:
            client_side.send_line("dialed in")
            assert next(server_side.lines()).strip() == "dialed in"
            server_side.send_line("assigned")
            assert next(client_side.lines()).strip() == "assigned"
        finally:
            client_side.kill()
            server_side.kill()
    finally:
        listener.close()


def test_listener_accept_times_out_quietly():
    listener = SocketListener("127.0.0.1", 0)
    try:
        assert listener.accept(timeout=0.05) is None
    finally:
        listener.close()
    assert listener.accept(timeout=0.05) is None  # closed: still None


def test_dial_gives_up_with_context():
    listener = SocketListener("127.0.0.1", 0)
    host, port = listener.address
    listener.close()
    with pytest.raises(ConnectionError, match=str(port)):
        dial(host, port, attempts=2, delay=0.01)
