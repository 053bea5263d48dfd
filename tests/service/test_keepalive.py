"""Kept-alive HTTP/1.1 connections: every answer leaves the connection
in step, a client thread reuses one connection, and a request's
announcement to the batcher never outlives its handler."""

import http.client
import json
import time

import pytest

from repro.service import (
    MetricsRegistry,
    ScreeningSession,
    ServiceClient,
    ServiceError,
    build_server,
)
from repro.service.server import MAX_BODY_BYTES
from repro.testing.faultinject import inject

pytestmark = pytest.mark.campaign

SAMPLES = 512
LOT = json.dumps({"kind": "mc", "dies": 1, "seed": 3})


@pytest.fixture(scope="module")
def session():
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES)
    session.warm(dictionary=False)
    return session


def _serve(session, **kwargs):
    return build_server(port=0, session=session,
                        metrics=MetricsRegistry(), **kwargs).start()


def _post(connection, path, body=LOT, headers=None):
    connection.request("POST", path, body=body,
                       headers=dict(headers or {}, **{
                           "Content-Type": "application/json",
                           "X-Client": "keepalive"}))
    response = connection.getresponse()
    return response.status, response.read()


def _connect(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


# ----------------------------------------------------------------------
# Answers given before the body was needed keep the connection in step
# ----------------------------------------------------------------------
def test_throttled_posts_keep_the_connection_in_step(session):
    server = _serve(session, rate=0.001, burst=1)
    connection = _connect(server)
    try:
        assert _post(connection, "/campaign")[0] == 200
        assert _post(connection, "/campaign")[0] == 429
        # The 429's unread body used to be parsed as the next request
        # line: "400 Bad request syntax".
        assert _post(connection, "/campaign")[0] == 429
    finally:
        connection.close()
        server.close()


def test_early_answers_read_the_body_first(session, monkeypatch):
    server = _serve(session)
    connection = _connect(server)
    key = {"Idempotency-Key": "keepalive-1"}
    try:
        assert _post(connection, "/nope")[0] == 404
        first = _post(connection, "/campaign", headers=key)
        assert first[0] == 200
        assert _post(connection, "/campaign", headers=key) == first
        with inject("server.handler.error", times=1):
            assert _post(connection, "/campaign")[0] == 500
        monkeypatch.setattr(server, "draining", True)
        assert _post(connection, "/campaign")[0] == 503
        monkeypatch.setattr(server, "draining", False)
        assert _post(connection, "/campaign")[0] == 200
    finally:
        connection.close()
        server.close()


def test_oversized_body_is_refused_and_the_connection_closed(session):
    server = _serve(session)
    connection = _connect(server)
    try:
        connection.putrequest("POST", "/campaign")
        connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert b"too large" in response.read()
        assert response.will_close
        # The refusal costs only that connection.
        assert ServiceClient(server.url).campaign(
            kind="mc", dies=1, seed=3)["dies"] == 1
    finally:
        connection.close()
        server.close()


# ----------------------------------------------------------------------
# The client's connection
# ----------------------------------------------------------------------
def test_one_client_thread_is_served_on_one_connection(session,
                                                       monkeypatch):
    server = _serve(session)
    accepted = []
    process_request = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    monkeypatch.setattr(server, "process_request", counting)
    try:
        client = ServiceClient(server.url, client_id="one-connection")
        for seed in range(20):
            reply = client.campaign(kind="mc", dies=1, seed=seed)
            assert reply["dies"] == 1
        with pytest.raises(ServiceError) as excinfo:
            client.campaign(kind="nope")
        assert excinfo.value.status == 400
        assert client.healthz()["status"] == "ok"
    finally:
        server.close()
    assert len(accepted) == 1


def test_client_survives_a_server_restart_without_retrying(session):
    server = _serve(session)
    port = server.server_address[1]
    client = ServiceClient(server.url, client_id="restart")  # no retry
    first = client.campaign(kind="mc", dies=2, seed=5)
    server.close()
    server = build_server(port=port, session=session,
                          metrics=MetricsRegistry()).start()
    try:
        # The kept connection was closed with the old server; the
        # client opens a new one instead of sending into it.
        assert client.campaign(kind="mc", dies=2, seed=5)["ndfs"] \
            == first["ndfs"]
    finally:
        server.close()


def test_close_right_after_a_request_is_prompt(session):
    """close() waits one accept-loop poll at most for serve_forever to
    stop, not serve_forever's default half second."""
    server = _serve(session)
    client = ServiceClient(server.url, client_id="close")
    client.campaign(kind="mc", dies=1, seed=3)
    start = time.perf_counter()
    server.close()
    assert time.perf_counter() - start < 0.25


# ----------------------------------------------------------------------
# Announcements to the batcher end with their handler
# ----------------------------------------------------------------------
def test_released_announcements_never_hold_a_later_linger(session,
                                                          monkeypatch):
    """A 400, a pass-through trace lot and a handler exception each
    leave without queuing; none may keep a later lone request waiting
    out the 10 s window (its 2 s deadline would answer 504)."""
    server = _serve(session, window=10.0, deadline=2.0)
    client = ServiceClient(server.url, client_id="released")
    golden = session.engine.golden().y
    try:
        with pytest.raises(ServiceError) as excinfo:
            client.campaign(kind="nope")
        assert excinfo.value.status == 400
        traced = client.campaign(kind="traces", y=[golden.tolist()])
        assert traced["dies"] == 1
        with inject("server.handler.error", times=1):
            with pytest.raises(ServiceError) as excinfo:
                client.campaign(kind="mc", dies=1, seed=1)
        assert excinfo.value.status == 500

        def boom(request, timeout=None):
            raise RuntimeError("engine exploded")

        with monkeypatch.context() as patch:
            patch.setattr(server.batcher, "submit", boom)
            with pytest.raises(ServiceError) as excinfo:
                client.campaign(kind="mc", dies=1, seed=1)
        assert excinfo.value.status == 500
        assert client.campaign(kind="mc", dies=1, seed=1)["dies"] == 1
        lingers = server.metrics.histogram("batcher_linger_seconds",
                                           reason="alone")
        assert lingers.count == 1
        assert not server.batcher._arrivals
    finally:
        server.close()
