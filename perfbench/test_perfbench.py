"""Self-tests of the benchmark's own code.

Run from the checkout root:  python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from benchstats import (highest_tail, median, percentile,  # noqa: E402
                        samples_beyond)
from catalog import LAYER_NOTES  # noqa: E402
from hostprobe import PROBE_REF_MS, Probe, Timeline  # noqa: E402
from oracle import Oracle, Tally  # noqa: E402
from spanlog import NullSpanLog, SpanLog  # noqa: E402
from workloads import SERVICE_CHECK_EVERY, Context, _check_reply, \
    _connection  # noqa: E402


# ----------------------------------------------------------------------
# correction formula
# ----------------------------------------------------------------------
def test_correction_uses_median_of_nearby_probes():
    timeline = Timeline()
    for t, value in ((0.0, 2.0), (0.1, 2.0), (0.2, 9.0), (1.4, 2.0),
                     (1.5, 2.0), (5.0, 7.0)):
        timeline.add(t, t + 0.01, value)
    # The outlier next to the unit and the far probe do not count.
    assert timeline.factor(0.3, 1.3) == pytest.approx(PROBE_REF_MS / 2.0)


def test_correction_scales_raw_time_to_reference_speed():
    calm, slow = Timeline(), Timeline()
    for timeline, scale in ((calm, 1.0), (slow, 2.0)):
        timeline.add(0.0, 0.01, 2.0 * scale)
        timeline.add(1.0, 1.01, 4.0 * scale)
    # With one probe on each side, the correction is by their mean.
    assert calm.factor(0.1, 0.9) == pytest.approx(PROBE_REF_MS / 3.0)
    # A host at half speed doubles the probes and the raw time alike;
    # the corrected time (raw * factor) is unchanged.
    assert 20.0 * slow.factor(0.1, 0.9) == pytest.approx(
        10.0 * calm.factor(0.1, 0.9))


def test_unit_without_a_probe_on_each_side_is_refused():
    timeline = Timeline()
    timeline.add(0.0, 0.01, 2.0)
    with pytest.raises(RuntimeError, match="1 probe"):
        timeline.factor(0.1, 0.2)


def test_probe_helper_answers_and_records():
    probe = Probe(warmup=1)
    try:
        value = probe.measure()
    finally:
        probe.close()
    assert value > 0
    assert probe.timeline.values() == [value]


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_tail_refused_with_fewer_than_ten_samples_beyond():
    assert samples_beyond(99, 90) == 9
    assert highest_tail(list(range(99))) is None
    assert highest_tail(list(range(100))) == (90, pytest.approx(89.1))
    assert highest_tail(list(range(199)))[0] == 90
    assert highest_tail(list(range(200))) == (95, pytest.approx(189.05))
    assert highest_tail(list(range(1000)))[0] == 99


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 25, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert median([3, 1, 2]) == 2


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    log = SpanLog()
    with log.span("outer", unit="u1"):
        with log.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    outer, = log.named("outer")
    inner, = log.named("inner")
    assert inner.parent == outer.id and inner.unit == "u1"
    self_times = log.self_times()
    assert self_times[outer.id] == pytest.approx(
        outer.duration - inner.duration)
    assert self_times[inner.id] == inner.duration


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def screened():
    from repro.campaign import montecarlo_dies
    from repro.paper import paper_setup

    setup = paper_setup(samples_per_period=256)
    engine = setup.campaign_engine(tolerance=0.05)
    threshold = engine.band().threshold
    lot = montecarlo_dies(setup.golden_spec, 4, sigma_f0=0.05, seed=3)
    result = engine.run(lot, band=threshold)
    return Oracle(256), lot, result, threshold


def test_oracle_accepts_engine_output(screened):
    oracle, lot, result, threshold = screened
    tally = Tally()
    tally.record(oracle.dies_agree(lot.specs, result.ndfs, result.verdicts,
                                   threshold, range(len(lot))))
    assert (tally.attempted, tally.failed) == (1, 0)


def test_injected_oracle_mismatch_is_a_failed_operation(screened):
    oracle, lot, result, threshold = screened
    tally = Tally()
    ndfs = result.ndfs.copy()
    ndfs[2] = np.nextafter(ndfs[2], math.inf)
    tally.record(oracle.dies_agree(lot.specs, ndfs, result.verdicts,
                                   threshold, [2]), "ndf off by one ulp")
    verdicts = ~result.verdicts
    tally.record(oracle.dies_agree(lot.specs, result.ndfs, verdicts,
                                   threshold, [1]), "verdict flipped")
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.problems == ["ndf off by one ulp", "verdict flipped"]


def test_injected_mismatch_in_a_service_reply_fails(screened):
    oracle, lot, result, threshold = screened

    def check(reply):
        return _check_reply(oracle, _golden_spec(), reply, len(lot), 0.05,
                            3, 2, False)

    good = _reply(result, threshold)
    assert check(good)
    off = _reply(result, threshold)
    off["ndfs"][2] += 1e-12
    malformed = [dict(good, **{key: value}) for key, value in (
        ("ndfs", None), ("ndfs", [0.0]), ("verdicts", None),
        ("threshold", None))]
    for reply in [off, None] + malformed:
        assert not check(reply), reply


class _NoProbe:
    def measure(self, count=1):
        return 1.0


class _FakeClient:
    """Answers every request with ``answer(dies)``."""

    def __init__(self, answer):
        self.answer = answer
        self.calls = 0

    def campaign(self, kind, dies, sigma, seed):
        self.calls += 1
        return self.answer(dies)

    diagnose = campaign


def _refuse(dies):
    raise OSError("connection refused")


@pytest.mark.parametrize("answer, every", [
    (lambda dies: {"ndfs": None, "verdicts": [True] * dies,
                   "threshold": 0.1, "diagnosis": {}}, SERVICE_CHECK_EVERY),
    (lambda dies: {"ndfs": ["x"] * dies, "verdicts": [True] * dies,
                   "threshold": 0.1, "diagnosis": {}}, SERVICE_CHECK_EVERY),
    (_refuse, 1),
], ids=["null-ndfs", "non-numeric-ndf", "error-reply"])
def test_bad_reply_in_a_connection_is_a_failed_operation(screened, answer,
                                                          every):
    """Checked requests (every ``every``-th) fail; the connection goes
    on and every request is counted."""
    oracle = screened[0]
    ctx = Context("", 1, 0.2, False, _NoProbe(), NullSpanLog())
    client = _FakeClient(answer)

    def check(*args):
        return _check_reply(oracle, _golden_spec(), *args)

    _connection(ctx, 0, ctx.window(), client, check, [])
    assert client.calls == ctx.tally.attempted > 1
    assert ctx.tally.failed == -(-client.calls // every)


def _reply(result, threshold):
    return {"ndfs": [float(v) for v in result.ndfs],
            "verdicts": [bool(v) for v in result.verdicts],
            "threshold": threshold}


def _golden_spec():
    from repro.paper import paper_setup

    return paper_setup(samples_per_period=256).golden_spec


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------
def test_every_layer_metric_has_its_reasoning():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_NOTES)
    assert all(note.moves and note.steady for note in LAYER_NOTES.values())
