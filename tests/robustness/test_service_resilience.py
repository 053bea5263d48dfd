"""End-to-end service resilience: idempotent replays, deadlines, load
shedding, graceful drain, and the batcher's crash-proof worker."""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.campaign import ScreeningRequest, montecarlo_dies
from repro.service import (
    CoalescingBatcher,
    DeadlineExceeded,
    IdempotencyCache,
    QueueFull,
    RetryPolicy,
    ScreeningSession,
    ServiceClient,
    ServiceError,
    build_server,
)
from repro.testing.faultinject import FaultInjected, inject

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    store_root = str(tmp_path_factory.mktemp("store"))
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES,
                                          store=store_root)
    session.warm(dictionary=False)
    return session


@pytest.fixture(scope="module")
def server(session):
    server = build_server(port=0, window=0.002, session=session,
                          deadline=30.0)
    server.start()
    yield server
    if server._serve_thread is not None:
        server.close()


@pytest.fixture()
def client(server):
    client = ServiceClient(
        server.url, client_id="robust",
        retry=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0))
    client._sleep = lambda seconds: None  # storms converge instantly
    return client


def _lot(session, dies=6, seed=3):
    return montecarlo_dies(session.engine.config.golden_spec, dies,
                           sigma_f0=0.05, seed=seed)


# ----------------------------------------------------------------------
# Idempotency: a retried lot never executes twice
# ----------------------------------------------------------------------
def test_replay_after_connection_drop_skips_execution(server, session,
                                                      client):
    reference = client.campaign(kind="mc", dies=6, sigma=0.05, seed=1)
    submitted = session.submitted
    with inject("server.handler.close", times=1) as fault:
        replayed = client.campaign(kind="mc", dies=6, sigma=0.05,
                                   seed=1)
    assert fault.fired == 1
    # One execution happened (before the simulated crash); the retry
    # was answered from the idempotency cache without re-screening.
    assert session.submitted == submitted + 1
    assert replayed["ndfs"] == reference["ndfs"]
    assert replayed["verdicts"] == reference["verdicts"]


def test_failed_execution_is_not_cached(server, session, client):
    submitted = session.submitted
    with inject("session.submit.error", times=1) as fault:
        result = client.campaign(kind="mc", dies=4, sigma=0.05, seed=2)
    assert fault.fired == 1
    # First attempt 500'd (not cached), retry re-executed for real.
    assert result["dies"] == 4
    assert session.submitted == submitted + 2


def test_handler_error_fault_converges_via_retry(server, client):
    with inject("server.handler.error", times=1) as fault:
        result = client.campaign(kind="mc", dies=4, sigma=0.05, seed=5)
    assert fault.fired == 1
    assert result["dies"] == 4


def test_concurrent_duplicates_execute_once(server, session):
    """Two racing requests with one idempotency key: the second waits
    for the first execution and replays it."""
    import json as jsonlib
    import urllib.request

    payload = jsonlib.dumps({"kind": "mc", "dies": 5, "sigma": 0.05,
                             "seed": 11}).encode()
    submitted = session.submitted
    results = []

    def post():
        request = urllib.request.Request(
            server.url + "/campaign", data=payload,
            headers={"Content-Type": "application/json",
                     "X-Client": "dup", "Idempotency-Key": "race-1"})
        with urllib.request.urlopen(request, timeout=60) as response:
            results.append(jsonlib.loads(response.read()))

    threads = [threading.Thread(target=post) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 2
    assert results[0]["ndfs"] == results[1]["ndfs"]
    assert session.submitted == submitted + 1


def test_idempotency_cache_unit():
    cache = IdempotencyCache(maxsize=2)
    key = ("c", "campaign", "k1")
    action, __ = cache.claim(key)
    assert action == "execute"
    action, event = cache.claim(key)
    assert action == "wait" and not event.is_set()
    cache.finish(key, 200, {"ok": 1})
    assert event.is_set()
    action, stored = cache.claim(key)
    assert action == "replay" and stored == (200, {"ok": 1})
    # Failures are not cached: the key becomes claimable again.
    key2 = ("c", "campaign", "k2")
    assert cache.claim(key2)[0] == "execute"
    cache.finish(key2, 500, {"error": "boom"})
    assert cache.claim(key2)[0] == "execute"
    cache.finish(key2, 200, {"ok": 2})
    # LRU bound.
    key3 = ("c", "campaign", "k3")
    cache.claim(key3)
    cache.finish(key3, 200, {"ok": 3})
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Deadlines and load shedding
# ----------------------------------------------------------------------
def test_slow_request_gets_504(server, client, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SLOW_S", "1.0")
    monkeypatch.setattr(server, "deadline", 0.05)
    bare = ServiceClient(server.url, client_id="slowpoke")  # no retry
    with inject("session.slow", times=1):
        with pytest.raises(ServiceError) as excinfo:
            bare.campaign(kind="mc", dies=4, sigma=0.05, seed=6)
    assert excinfo.value.status == 504


def test_draining_server_sheds_with_retry_after(server, client,
                                                monkeypatch):
    monkeypatch.setattr(server, "draining", True)
    bare = ServiceClient(server.url, client_id="late")
    with pytest.raises(ServiceError) as excinfo:
        bare.campaign(kind="mc", dies=2, sigma=0.05, seed=7)
    assert excinfo.value.status == 503
    assert excinfo.value.retry_after is not None
    # Health endpoint reports it (and keeps answering).
    assert bare.healthz()["status"] == "draining"


def test_healthz_and_metrics_expose_store_counters(server, client):
    health = client.healthz()
    assert "store" in health
    assert health["store"]["writes"] >= 2  # golden + calibration
    text = client.metrics_text()
    assert "repro_store_writes" in text
    assert "repro_store_quarantined" in text


# ----------------------------------------------------------------------
# Graceful drain end to end
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_work(session, monkeypatch):
    server = build_server(port=0, window=0.002, session=session)
    server.start()
    monkeypatch.setenv("REPRO_FAULT_SLOW_S", "0.3")
    outcome = {}

    def slow_request():
        bare = ServiceClient(server.url, client_id="inflight")
        outcome["result"] = bare.campaign(kind="mc", dies=4,
                                          sigma=0.05, seed=8)

    with inject("session.slow", times=1):
        thread = threading.Thread(target=slow_request)
        thread.start()
        deadline = time.monotonic() + 5.0
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.inflight == 1
        assert server.drain(timeout=10.0)
        thread.join(timeout=10.0)
    # The in-flight request completed with a real answer before exit.
    assert outcome["result"]["dies"] == 4
    assert server.inflight == 0


# ----------------------------------------------------------------------
# Batcher: the hang regression and its new failure modes
# ----------------------------------------------------------------------
@pytest.fixture()
def batcher(session):
    batcher = CoalescingBatcher(session, window=0.01)
    yield batcher
    batcher.close()


def test_engine_error_mid_batch_propagates_to_all_waiters(session,
                                                          batcher):
    """The satellite regression: every queued client gets the batch's

    exception instead of hanging forever."""
    lots = [_lot(session, dies=3, seed=s) for s in (0, 1)]
    errors = []

    def submit(lot):
        try:
            batcher.submit(ScreeningRequest(population=lot))
        except FaultInjected as error:
            errors.append(error)

    with inject("session.submit.error", times=-1):
        threads = [threading.Thread(target=submit, args=(lot,))
                   for lot in lots]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert len(errors) == 2
    assert all(e.fault == "session.submit.error" for e in errors)


def test_worker_survives_flush_crash(session, batcher, monkeypatch):
    """An exception escaping the flush machinery itself must fail the

    batch's waiters and leave the worker alive for later requests."""
    real_run_group = batcher._run_group

    def exploding_run_group(threshold, group):
        raise RuntimeError("flush machinery exploded")

    monkeypatch.setattr(batcher, "_run_group", exploding_run_group)
    with pytest.raises(RuntimeError, match="exploded"):
        batcher.submit(ScreeningRequest(population=_lot(session)))
    monkeypatch.setattr(batcher, "_run_group", real_run_group)
    # Worker thread still alive and serving.
    result = batcher.submit(ScreeningRequest(population=_lot(session)))
    assert result.num_dies == 6


@contextmanager
def _announced_elsewhere(batcher):
    """Another thread announces a request and holds the announcement
    for the block, so every flush lingers for the full window."""
    held, release = threading.Event(), threading.Event()

    def hold():
        with batcher.arriving():
            held.set()
            release.wait()

    thread = threading.Thread(target=hold)
    thread.start()
    assert held.wait(timeout=30)
    try:
        yield
    finally:
        release.set()
        thread.join()


def test_submit_deadline_withdraws_queued_request(session):
    batcher = CoalescingBatcher(session, window=0.5)
    submitted = session.submitted
    try:
        with _announced_elsewhere(batcher):
            with pytest.raises(DeadlineExceeded):
                batcher.submit(
                    ScreeningRequest(population=_lot(session)),
                    timeout=0.05)
            # Withdrawn before the linger window flushed: never
            # executed.
            assert batcher.queue_depth == 0
            time.sleep(0.6)
        assert session.submitted == submitted
    finally:
        batcher.close()


def test_max_queue_sheds_load(session):
    batcher = CoalescingBatcher(session, window=0.5, max_queue=1)
    try:
        with _announced_elsewhere(batcher):
            background = threading.Thread(
                target=lambda: batcher.submit(
                    ScreeningRequest(population=_lot(session))))
            background.start()
            deadline = time.monotonic() + 5.0
            while batcher.queue_depth == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert batcher.queue_depth == 1
            with pytest.raises(QueueFull) as excinfo:
                batcher.submit(
                    ScreeningRequest(population=_lot(session)))
            assert excinfo.value.retry_after > 0
        background.join(timeout=30.0)
    finally:
        batcher.close()
