"""Span nesting under the coalescing batcher.

N concurrent compatible clients coalesce into ONE engine pass: the
trace must show exactly one ``batcher.flush`` span carrying all N
request ids, with one ``batcher.slice`` child per client and the
single ``session.submit``/``campaign.submit`` chain beneath it.
"""

import threading

import numpy as np
import pytest

from repro.campaign import ScreeningRequest, montecarlo_dies
from repro.obs import Tracer, install_tracer, new_request_id
from repro.service import CoalescingBatcher, ScreeningSession

pytestmark = pytest.mark.campaign

SAMPLES = 512
THRESHOLD = 0.05


@pytest.fixture(scope="module")
def session():
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES)
    session.warm(dictionary=False)
    return session


@pytest.fixture
def tracer():
    tracer = Tracer()
    previous = install_tracer(tracer)
    yield tracer
    install_tracer(previous)


def _lot(seed, dies=5):
    from repro.paper import PAPER_BIQUAD

    return montecarlo_dies(PAPER_BIQUAD, dies, sigma_f0=0.03,
                           seed=seed)


def test_concurrent_clients_one_flush_span_n_slices(session, tracer):
    clients = 3
    barrier = threading.Barrier(clients)
    # Every client announces before any submits, so the first flush
    # lingers until all three have queued; the window only caps it.
    batcher = CoalescingBatcher(session, window=10.0)
    rids = [new_request_id() for __ in range(clients)]
    results = {}

    def submit(index):
        request = ScreeningRequest(
            population=_lot(seed=index), band=THRESHOLD,
            client=f"client-{index}", request_id=rids[index])
        with batcher.arriving():
            barrier.wait()
            results[index] = batcher.submit(request, timeout=30)

    try:
        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        batcher.close()

    records = tracer.records()
    flushes = [r for r in records if r.name == "batcher.flush"]
    assert len(flushes) == 1, \
        "concurrent compatible lots must coalesce into one flush"
    flush = flushes[0]
    assert flush.attributes["clients"] == clients
    assert flush.attributes["dies"] == clients * 5
    assert sorted(flush.attributes["request_ids"]) == sorted(rids)

    slices = [r for r in records if r.name == "batcher.slice"]
    assert len(slices) == clients
    assert all(s.parent_id == flush.span_id for s in slices)
    assert sorted(s.attributes["request_id"] for s in slices) \
        == sorted(rids)
    assert sorted(s.attributes["client"] for s in slices) \
        == [f"client-{i}" for i in range(clients)]

    # Exactly one engine pass ran, nested under the flush.
    submits = [r for r in records if r.name == "session.submit"]
    assert len(submits) == 1
    assert submits[0].parent_id == flush.span_id
    engine = [r for r in records if r.name == "campaign.submit"]
    assert len(engine) == 1
    assert engine[0].parent_id == submits[0].span_id

    # And the coalesced slices really went back to the right clients.
    for index in range(clients):
        solo = session.submit(ScreeningRequest(
            population=_lot(seed=index), band=THRESHOLD))
        assert np.array_equal(results[index].ndfs, solo.ndfs)
        assert np.array_equal(results[index].verdicts, solo.verdicts)


def test_solo_flush_keeps_the_single_request_identity(session, tracer):
    batcher = CoalescingBatcher(session, window=0.0)
    rid = new_request_id()
    try:
        batcher.submit(ScreeningRequest(
            population=_lot(seed=42), band=THRESHOLD, client="solo",
            request_id=rid), timeout=30)
    finally:
        batcher.close()
    records = tracer.records()
    flush = next(r for r in records if r.name == "batcher.flush")
    assert flush.attributes["clients"] == 1
    assert flush.attributes["request_ids"] == [rid]
    # A solo group's packed pass keeps the requester's identity, so
    # the session span (and every engine stage under it) carries the
    # request id end to end.
    submit = next(r for r in records if r.name == "session.submit")
    assert submit.attributes["request_id"] == rid
    assert submit.attributes["client"] == "solo"
    stages = [r for r in records if r.name.startswith("stage.")]
    assert stages
    assert all(r.attributes.get("request_id") == rid for r in stages)


def test_non_coalescible_requests_bypass_the_flush_span(session,
                                                        tracer):
    batcher = CoalescingBatcher(session, window=0.0)
    rid = new_request_id()
    try:
        batcher.submit(ScreeningRequest(
            population=iter([_lot(seed=1)]), band=THRESHOLD,
            request_id=rid), timeout=None)
    finally:
        batcher.close()
    records = tracer.records()
    assert not any(r.name == "batcher.flush" for r in records)
    submit = next(r for r in records if r.name == "session.submit")
    assert submit.attributes["request_id"] == rid
