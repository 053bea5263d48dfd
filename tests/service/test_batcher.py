"""Coalescing batcher: packed passes, slices bit-identical to solo."""

import re
import threading

import numpy as np
import pytest

from repro.campaign import (
    ScreeningRequest,
    deviation_sweep_population,
    montecarlo_dies,
    trace_population,
)
from repro.filters import BiquadFilter
from repro.monitor.second_signature import second_signature_bank
from repro.service import (
    CoalescingBatcher,
    MetricsRegistry,
    ScreeningSession,
    concatenate_populations,
)

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def session():
    session = ScreeningSession.from_paper(samples_per_period=SAMPLES)
    session.warm(dictionary=False)
    return session


@pytest.fixture()
def batcher(session):
    batcher = CoalescingBatcher(session, window=0.02)
    yield batcher
    batcher.close()


def _lots(golden_spec, seeds=(0, 1, 2), dies=5):
    return [montecarlo_dies(golden_spec, dies, sigma_f0=0.05,
                            seed=seed) for seed in seeds]


def test_concatenate_populations_preserves_rows(golden_spec):
    lots = _lots(golden_spec, seeds=(3, 4))
    combined = concatenate_populations(lots)
    assert len(combined) == sum(len(lot) for lot in lots)
    assert combined.labels == lots[0].labels + lots[1].labels
    np.testing.assert_array_equal(
        combined.f0_deviations,
        np.concatenate([lot.f0_deviations for lot in lots]))
    assert combined.specs == lots[0].specs + lots[1].specs


def test_concurrent_slices_match_solo_runs(session):
    """The tentpole contract: a client's coalesced slice is

    bit-identical to running its lot alone."""
    lots = _lots(session.engine.config.golden_spec, seeds=(0, 1, 2, 3))
    solo = [session.submit(ScreeningRequest(population=lot))
            for lot in lots]

    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=0.1, metrics=metrics)
    try:
        results = [None] * len(lots)
        barrier = threading.Barrier(len(lots))

        def work(i, lot):
            barrier.wait()
            results[i] = batcher.submit(
                ScreeningRequest(population=lot))

        threads = [threading.Thread(target=work, args=(i, lot))
                   for i, lot in enumerate(lots)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        batcher.close()

    for reference, sliced in zip(solo, results):
        np.testing.assert_array_equal(reference.ndfs, sliced.ndfs)
        np.testing.assert_array_equal(reference.verdicts,
                                      sliced.verdicts)
        np.testing.assert_array_equal(reference.f0_deviations,
                                      sliced.f0_deviations)
        assert reference.labels == sliced.labels
        assert reference.threshold == sliced.threshold
    # The four requests actually shared passes: every flush recorded
    # its request count, and they sum to the four submissions.
    snap = metrics.snapshot()["windows"]
    coalesced = snap["coalesced_requests"]
    assert coalesced["sum"] == len(lots)
    assert coalesced["count"] <= len(lots)
    assert snap["coalesced_dies"]["sum"] == sum(len(lot)
                                                for lot in lots)


def test_flush_groups_and_slices_directly(session):
    """Deterministic path: _flush on a hand-built batch coalesces

    compatible requests into one pass and scatters exact slices."""
    from repro.service.batcher import _Pending

    lots = _lots(session.engine.config.golden_spec, seeds=(5, 6))
    solo = [session.submit(ScreeningRequest(population=lot))
            for lot in lots]
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=0.0, metrics=metrics)
    try:
        pendings = [_Pending(ScreeningRequest(population=lot), lot)
                    for lot in lots]
        batcher._flush(pendings)
        for pending in pendings:
            assert pending.done.is_set()
            assert pending.error is None
        for reference, pending in zip(solo, pendings):
            np.testing.assert_array_equal(reference.ndfs,
                                          pending.result.ndfs)
            np.testing.assert_array_equal(reference.verdicts,
                                          pending.result.verdicts)
        # One combined pass for the whole batch.
        window = metrics.snapshot()["windows"]["coalesced_requests"]
        assert window["count"] == 1
        assert window["last"] == 2
    finally:
        batcher.close()


def test_incompatible_bands_split_groups(session):
    """Different explicit thresholds cannot share a pass."""
    from repro.service.batcher import _Pending

    lot = _lots(session.engine.config.golden_spec, seeds=(7,))[0]
    loose = ScreeningRequest(population=lot, band=0.5)
    tight = ScreeningRequest(population=lot, band=0.001)
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=0.0, metrics=metrics)
    try:
        pendings = [_Pending(loose, lot), _Pending(tight, lot)]
        batcher._flush(pendings)
        assert pendings[0].result.threshold == 0.5
        assert pendings[1].result.threshold == 0.001
        window = metrics.snapshot()["windows"]["coalesced_requests"]
        assert window["count"] == 2  # two passes, one per band
    finally:
        batcher.close()


def test_max_dies_splits_oversized_groups(session):
    from repro.service.batcher import _Pending

    lots = _lots(session.engine.config.golden_spec,
                 seeds=(8, 9, 10), dies=4)
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=0.0, max_dies=8,
                                metrics=metrics)
    try:
        pendings = [_Pending(ScreeningRequest(population=lot), lot)
                    for lot in lots]
        batcher._flush(pendings)
        window = metrics.snapshot()["windows"]["coalesced_dies"]
        # 12 dies at a cap of 8: two passes (8 + 4).
        assert window["count"] == 2
        assert window["recent_max"] <= 8
        solo = session.submit(ScreeningRequest(population=lots[-1]))
        np.testing.assert_array_equal(solo.ndfs,
                                      pendings[-1].result.ndfs)
    finally:
        batcher.close()


def test_auto_band_and_equal_threshold_share_a_pass(session):
    """band='auto' resolves to the calibrated threshold, so it groups
    with requests pinning that same number explicitly."""
    from repro.service.batcher import _Pending

    threshold = session.threshold()
    lot = _lots(session.engine.config.golden_spec, seeds=(11,))[0]
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=0.0, metrics=metrics)
    try:
        pendings = [
            _Pending(ScreeningRequest(population=lot), lot),
            _Pending(ScreeningRequest(population=lot, band=threshold),
                     lot),
        ]
        batcher._flush(pendings)
        window = metrics.snapshot()["windows"]["coalesced_requests"]
        assert window["count"] == 1 and window["last"] == 2
        np.testing.assert_array_equal(pendings[0].result.ndfs,
                                      pendings[1].result.ndfs)
    finally:
        batcher.close()


def test_coalesced_two_channel_requests_keep_channel_thresholds(
        session):
    """Every channel of a coalesced multi-signature pass keeps the
    threshold its own bank calibrates, as in the solo runs."""
    from repro.service.batcher import _Pending

    encoders = [session.engine.config.encoder,
                second_signature_bank(-0.10, 1e-5)]
    lots = _lots(session.engine.config.golden_spec, seeds=(15, 16),
                 dies=6)
    solo = [session.submit(ScreeningRequest(population=lot,
                                            encoders=encoders))
            for lot in lots]
    assert solo[0].channel_thresholds[0] != solo[0].channel_thresholds[1]
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=0.0, metrics=metrics)
    try:
        pendings = [_Pending(ScreeningRequest(population=lot,
                                              encoders=encoders), lot)
                    for lot in lots]
        batcher._flush(pendings)
        window = metrics.snapshot()["windows"]["coalesced_requests"]
        assert window["count"] == 1 and window["last"] == 2
        for reference, pending in zip(solo, pendings):
            assert pending.error is None
            np.testing.assert_array_equal(
                reference.channel_thresholds,
                pending.result.channel_thresholds)
            np.testing.assert_array_equal(
                reference.channel_verdicts,
                pending.result.channel_verdicts)
    finally:
        batcher.close()


def test_request_with_another_first_bank_gets_its_own_threshold(
        session):
    """A request screening through a bank that is not the session's
    resolves "auto" on that bank, not on the session's."""
    from repro.service.batcher import _Pending

    lot = _lots(session.engine.config.golden_spec, seeds=(17,))[0]
    request = ScreeningRequest(
        population=lot, encoders=[second_signature_bank(-0.10, 1e-5)])
    solo = session.submit(request)
    assert solo.threshold != session.threshold()
    batcher = CoalescingBatcher(session, window=0.0)
    try:
        pending = _Pending(request, lot)
        batcher._flush([pending])
        assert pending.error is None
        assert pending.result.threshold == solo.threshold
        np.testing.assert_array_equal(pending.result.verdicts,
                                      solo.verdicts)
    finally:
        batcher.close()


def test_non_coalescible_requests_pass_through(session):
    """Streams of chunks and trace stacks bypass the queue entirely."""
    batcher = CoalescingBatcher(session, window=10.0)  # long window:
    # a queued request would visibly hang; pass-through returns fast.
    try:
        lot = _lots(session.engine.config.golden_spec, seeds=(12,),
                    dies=2)[0]
        stream = batcher.submit(ScreeningRequest(population=[lot, lot]))
        assert stream.num_dies == 4
        assert stream.executor.endswith("+stream")

        traces = session.engine.golden().y[None, :]
        result = batcher.submit(ScreeningRequest(
            population=trace_population(traces)))
        assert result.num_dies == 1
    finally:
        batcher.close()


def test_raw_spec_list_coalesces_with_solo_labels(session):
    golden_spec = session.engine.config.golden_spec
    specs = deviation_sweep_population(golden_spec, [-0.1, 0.1]).specs
    solo = session.submit(ScreeningRequest(population=list(specs)))
    batcher = CoalescingBatcher(session, window=0.0)
    try:
        sliced = batcher.submit(ScreeningRequest(
            population=list(specs)))
    finally:
        batcher.close()
    np.testing.assert_array_equal(solo.ndfs, sliced.ndfs)
    assert solo.labels == sliced.labels


def test_malformed_raw_list_fails_alone(session):
    """A raw list holding anything but specs never joins a pass: it
    fails solo, with the error ``session.submit`` gives it, while a
    well-formed lot sent alongside it still gets its solo result."""
    golden_spec = session.engine.config.golden_spec
    malformed = ([BiquadFilter(golden_spec)],
                 [golden_spec, BiquadFilter(golden_spec), golden_spec])
    for population in malformed:
        assert CoalescingBatcher._coalescible_population(
            ScreeningRequest(population=population)) is None

    lot = _lots(golden_spec, seeds=(15,), dies=3)[0]
    solo = session.submit(ScreeningRequest(population=lot))
    batcher = CoalescingBatcher(session, window=0.05)
    try:
        results = []
        good = threading.Thread(target=lambda: results.append(
            batcher.submit(ScreeningRequest(population=lot))))
        good.start()
        for population in malformed:
            request = ScreeningRequest(population=population)
            with pytest.raises(Exception) as solo_error:
                session.submit(request)
            with pytest.raises(type(solo_error.value)):
                batcher.submit(request)
        good.join(timeout=60)
    finally:
        batcher.close()
    assert not good.is_alive()
    assert len(results) == 1
    np.testing.assert_array_equal(results[0].ndfs, solo.ndfs)
    assert results[0].labels == solo.labels


def test_closed_batcher_rejects_submissions(session):
    batcher = CoalescingBatcher(session, window=0.0)
    batcher.close()
    lot = _lots(session.engine.config.golden_spec, seeds=(13,),
                dies=1)[0]
    with pytest.raises(RuntimeError):
        batcher.submit(ScreeningRequest(population=lot))


def test_group_error_propagates_to_every_member(session):
    from repro.service.batcher import _Pending

    lot = _lots(session.engine.config.golden_spec, seeds=(14,),
                dies=2)[0]
    batcher = CoalescingBatcher(session, window=0.0)
    try:
        bad = _Pending(ScreeningRequest(population=lot,
                                        band="not-a-band"), lot)
        batcher._flush([bad])
        assert bad.done.is_set()
        assert bad.error is not None
    finally:
        batcher.close()


# ----------------------------------------------------------------------
# The linger: only while an announced request is on its way
# ----------------------------------------------------------------------
def _linger_counts(metrics):
    """Flushes per linger reason, from the ``batcher_linger_seconds``
    histograms."""
    counts = {}
    for key, series in metrics.snapshot()["histograms"].items():
        match = re.fullmatch(r'batcher_linger_seconds\{reason="(\w+)"\}',
                             key)
        if match:
            counts[match.group(1)] = series["count"]
    return counts


def test_lone_request_flushes_without_lingering(session):
    """Nothing announced: a 10 s window costs a lone request nothing."""
    lot = _lots(session.engine.config.golden_spec, seeds=(18,),
                dies=2)[0]
    solo = session.submit(ScreeningRequest(population=lot))
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=10.0, metrics=metrics)
    try:
        result = batcher.submit(ScreeningRequest(population=lot),
                                timeout=2.0)
    finally:
        batcher.close()
    np.testing.assert_array_equal(result.ndfs, solo.ndfs)
    assert _linger_counts(metrics) == {"alone": 1}


def test_announced_request_joins_the_lingering_flush(session,
                                                    monkeypatch):
    """A request announced before the first one queues joins its
    flush: one pass with both, every run, whatever the timing."""
    from repro.obs import tracing

    lots = _lots(session.engine.config.golden_spec, seeds=(19, 20),
                 dies=3)
    solo = [session.submit(ScreeningRequest(population=lot))
            for lot in lots]
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=10.0, metrics=metrics)
    # The worker enters its linger holding the lock, so once this is
    # set a submit can only run while the linger waits.
    lingering = threading.Event()
    linger = batcher._linger

    def signalling_linger():
        lingering.set()
        return linger()

    monkeypatch.setattr(batcher, "_linger", signalling_linger)
    results = {}
    first = threading.Thread(target=lambda: results.setdefault(
        0, batcher.submit(ScreeningRequest(population=lots[0]),
                          timeout=30)))
    try:
        with tracing() as tracer:
            with batcher.arriving():
                first.start()
                # The first request queues, and its flush lingers on
                # this thread's announcement.
                assert lingering.wait(timeout=30)
                results[1] = batcher.submit(
                    ScreeningRequest(population=lots[1]), timeout=30)
            first.join(timeout=30)
    finally:
        batcher.close()
    flushes = [r for r in tracer.records() if r.name == "batcher.flush"]
    assert [f.attributes["clients"] for f in flushes] == [2]
    lingers = [r for r in tracer.records() if r.name == "batcher.linger"]
    assert [r.attributes["reason"] for r in lingers] == ["joined"]
    assert lingers[0].attributes["waited_s"] < 10.0
    assert _linger_counts(metrics) == {"joined": 1}
    for index, reference in enumerate(solo):
        np.testing.assert_array_equal(results[index].ndfs,
                                      reference.ndfs)


def test_window_caps_the_linger_on_an_announcement_that_never_arrives(
        session):
    lot = _lots(session.engine.config.golden_spec, seeds=(21,),
                dies=1)[0]
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=0.05, metrics=metrics)
    held, release = threading.Event(), threading.Event()

    def hold():
        with batcher.arriving():
            held.set()
            release.wait()

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(timeout=30)
        result = batcher.submit(ScreeningRequest(population=lot),
                                timeout=30)
    finally:
        release.set()
        holder.join()
        batcher.close()
    assert result.num_dies == 1
    histogram = metrics.histogram("batcher_linger_seconds",
                                  reason="window")
    assert histogram.count == 1
    assert histogram.total >= 0.05
    # Leaving the block without submitting withdrew the announcement.
    assert not batcher._arrivals


def test_close_ends_a_linger_and_flushes_what_is_queued(session):
    lot = _lots(session.engine.config.golden_spec, seeds=(22,),
                dies=1)[0]
    metrics = MetricsRegistry()
    batcher = CoalescingBatcher(session, window=10.0, metrics=metrics)
    results = []
    with batcher.arriving():
        queued = threading.Thread(target=lambda: results.append(
            batcher.submit(ScreeningRequest(population=lot))))
        queued.start()
        with batcher._cond:
            assert batcher._cond.wait_for(lambda: batcher._queue,
                                          timeout=30)
        batcher.close()
    queued.join(timeout=30)
    assert len(results) == 1 and results[0].num_dies == 1
    assert _linger_counts(metrics) == {"closed": 1}
