"""Packed SignatureBatch: extraction, fleet NDF, batched quantize."""

import numpy as np
import pytest

from repro.campaign import (
    GoldenCache,
    batch_codes,
    batch_extract,
    batch_multitone_eval,
    batch_ndf,
    batch_signatures,
    montecarlo_dies,
    sample_times,
)
from repro.core.capture import AsyncCapture, CaptureConfig
from repro.core.ndf import ndf
from repro.core.signature import Signature
from repro.core import signature_batch
from repro.core.signature_batch import SignatureBatch, fleet_ndf
from repro.filters.biquad import BiquadFilter
from repro.monitor.configurations import table1_encoder
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def population_codes():
    """(times, code stack, period, golden signature) of a small fleet."""
    from repro.campaign import CampaignEngine

    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    golden = engine.golden()
    dies = montecarlo_dies(PAPER_BIQUAD, 24, sigma_f0=0.05, seed=17)
    responses = [BiquadFilter(s).response(PAPER_STIMULUS)
                 for s in dies.specs]
    y = batch_multitone_eval(responses, golden.times)
    codes = batch_codes(engine.config.encoder, golden.x, y)
    return golden.times, codes, golden.period, golden.signature


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def test_rows_bit_identical_to_from_samples(population_codes):
    times, codes, period, __ = population_codes
    batch = SignatureBatch.from_code_stack(times, codes, period)
    assert len(batch) == codes.shape[0]
    for i in range(len(batch)):
        reference = Signature.from_samples(times, codes[i], period)
        row = batch.row(i)
        assert np.array_equal(row._codes, reference._codes)
        assert np.array_equal(row.durations(), reference.durations())
        assert np.array_equal(row._starts, reference._starts)


def test_start_times_match_signature_starts(population_codes):
    times, codes, period, __ = population_codes
    batch = SignatureBatch.from_code_stack(times, codes, period)
    starts = batch.start_times()
    for i in range(len(batch)):
        lo, hi = batch.row_offsets[i], batch.row_offsets[i + 1]
        reference = Signature.from_samples(times, codes[i], period)
        assert np.array_equal(starts[lo:hi], reference._starts[:-1])


def test_constant_row_is_single_run():
    times = sample_times(1.0, 16)
    codes = np.vstack([np.full(16, 5), [0] * 8 + [1] * 8])
    batch = SignatureBatch.from_code_stack(times, codes, 1.0)
    assert np.array_equal(batch.runs_per_row, [1, 2])
    assert batch.row(0).codes() == [5]
    assert batch.row(0).durations()[0] == 1.0


def test_from_code_stack_validates_times():
    codes = np.zeros((2, 8), dtype=int)
    good = sample_times(1.0, 8)
    with pytest.raises(ValueError):
        SignatureBatch.from_code_stack(good + 0.1, codes, 1.0)
    with pytest.raises(ValueError):
        SignatureBatch.from_code_stack(good, codes, 0.5)
    with pytest.raises(ValueError):
        SignatureBatch.from_code_stack(good[::-1], codes, 1.0)


def test_from_signatures_roundtrip(population_codes):
    times, codes, period, __ = population_codes
    signatures = batch_signatures(times, codes, period)
    packed = SignatureBatch.from_signatures(signatures)
    assert len(packed) == len(signatures)
    for original, row in zip(signatures, packed.to_signatures()):
        assert np.array_equal(original._codes, row._codes)
        assert np.array_equal(original.durations(), row.durations())
    empty = SignatureBatch.from_signatures([])
    assert len(empty) == 0


def test_batch_extract_is_batch_signatures_source(population_codes):
    times, codes, period, __ = population_codes
    packed = batch_extract(times, codes, period)
    unpacked = batch_signatures(times, codes, period)
    assert [s.codes() for s in packed.to_signatures()] \
        == [s.codes() for s in unpacked]


# ----------------------------------------------------------------------
# Fleet NDF
# ----------------------------------------------------------------------
def test_fleet_ndf_bit_identical_to_per_die(population_codes):
    """The tentpole guarantee: no drift at all vs the scalar metric."""
    times, codes, period, golden = population_codes
    batch = SignatureBatch.from_code_stack(times, codes, period)
    packed = batch.ndf_to(golden)
    reference = batch_ndf(batch.to_signatures(), golden)
    assert np.array_equal(packed, reference)
    assert np.array_equal(fleet_ndf(batch, golden), packed)


def test_fleet_ndf_zero_against_itself(population_codes):
    times, codes, period, golden = population_codes
    golden_stack = np.tile(golden.code_at(times), (3, 1))
    batch = SignatureBatch.from_code_stack(times, golden_stack, period)
    assert np.array_equal(batch.ndf_to(golden), np.zeros(3))


def test_fleet_ndf_rejects_period_mismatch(population_codes):
    times, codes, period, golden = population_codes
    other = SignatureBatch.from_code_stack(
        times / 2.0, codes, period / 2.0)
    with pytest.raises(ValueError):
        other.ndf_to(golden)


def test_fleet_ndf_empty_batch(population_codes):
    *_, golden = population_codes
    assert SignatureBatch.from_signatures([]).ndf_to(golden).shape == (0,)


def test_fleet_ndf_handles_hand_built_signatures():
    golden = Signature.from_pairs([(0, 0.25), (1, 0.5), (3, 0.25)], 1.0)
    rows = [
        Signature.from_pairs([(0, 0.25), (1, 0.5), (3, 0.25)], 1.0),
        Signature.from_pairs([(2, 0.6), (0, 0.4)], 1.0),
        Signature.from_pairs([(7, 1.0)], 1.0),
    ]
    packed = SignatureBatch.from_signatures(rows)
    expected = np.asarray([ndf(r, golden) for r in rows])
    assert np.array_equal(packed.ndf_to(golden), expected)


def _score_both(rows, golden):
    """(kernel NDFs, scalar NDFs) of ``rows`` against ``golden``."""
    packed = SignatureBatch.from_signatures(rows).ndf_to(golden)
    return packed, np.asarray([ndf(row, golden) for row in rows])


def test_midpoint_rule_reads_the_next_interval():
    """A one-ulp interval whose rounded midpoint is its right end.

    ``t1 = nextafter(0.25, 1)`` has an odd mantissa, so the midpoint of
    ``[t1, t1 + ulp)`` rounds half-even onto ``t1 + ulp``, and the
    scalar metric reads that interval's codes (3 against 3) instead of
    its own (0 against 3).
    """
    t1 = np.nextafter(0.25, 1.0)
    t2 = np.nextafter(t1, 1.0)
    assert t1 + 0.5 * (t2 - t1) == t2
    golden = Signature.from_transitions(1, [(t1, 3)], 1.0)
    observed = Signature.from_transitions(0, [(t2, 3)], 1.0)
    other = Signature.from_transitions(0, [(0.5, 3)], 1.0)
    packed, scalar = _score_both([other, observed, other], golden)
    assert packed.tobytes() == scalar.tobytes()
    assert packed[1] == 0.25000000000000006
    # Weighing the interval by its own codes gives another number.
    assert packed[1] != np.sum([1 * t1, 2 * (t2 - t1), 0.0])


def test_midpoint_rule_wraps_to_the_first_interval():
    """The same rule on the last interval, one ulp below the period:
    the midpoint rounds onto the period, and ``code_at`` wraps it to
    t = 0, so the row's first interval's codes weigh it."""
    last = np.nextafter(1.0, 0.0)
    assert last + 0.5 * (1.0 - last) == 1.0
    golden = Signature.from_transitions(2, [(0.5, 3)], 1.0)
    observed = Signature.from_transitions(0, [(0.5, 3), (last, 4)], 1.0)
    assert observed._starts[2] == last
    other = Signature.from_transitions(1, [(0.25, 3)], 1.0)
    packed, scalar = _score_both([observed, other, observed], golden)
    assert packed.tobytes() == scalar.tobytes()
    # First interval: 0 against 2, one bit; its own: 4 against 3.
    assert packed[0] == 0.5 + 1 * (1.0 - last)
    assert packed[0] != np.sum([1 * 0.5, 0.0, 3 * (1.0 - last)])


def test_lane_probe_runs_without_numpy_random():
    """The once-per-process probe builds its rows without importing
    numpy.random (a cold-start cost)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys; from repro.core import signature_batch as s; "
             "print(s._lane_model_agrees(), 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    agrees, loaded = out.stdout.split()
    assert agrees in ("True", "False")
    assert loaded == "False"


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    yield fresh
    set_default_registry(previous)


def test_lane_probe_failure_falls_back_row_by_row(registry, monkeypatch):
    """A numpy whose sum order the lane model misses: every row is
    summed by np.sum instead, with the same NDFs, and counted."""
    from repro.campaign import CampaignEngine

    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=SAMPLES,
                                       cache=GoldenCache())
    dies = montecarlo_dies(PAPER_BIQUAD, 150, sigma_f0=0.1, seed=23)
    lanes = engine.run(dies, band=0.05)
    assert registry.counter("ndf_fallback_rows_total").value == 0.0
    monkeypatch.setattr(signature_batch, "_lanes_agree", False)
    fallback = engine.run(dies, band=0.05)
    assert fallback.ndfs.tobytes() == lanes.ndfs.tobytes()
    assert registry.counter("ndf_fallback_rows_total").value == 150.0


def test_noise_rows_past_the_lane_block_match_scalar(monkeypatch):
    """run_noise at the paper's 4096 samples makes rows of more than
    128 merged intervals, which numpy splits in two: they still score
    like the scalar metric."""
    from repro.campaign import CampaignEngine

    longest = []
    kernel = SignatureBatch.ndf_to

    def checked(batch, golden):
        values = kernel(batch, golden)
        rows = batch.to_signatures()
        assert values.tobytes() == np.asarray(
            [ndf(row, golden) for row in rows]).tobytes()
        longest.append(max(
            np.unique(np.concatenate([row.start_times(),
                                      golden.start_times()])).size
            for row in rows))
        return values

    monkeypatch.setattr(SignatureBatch, "ndf_to", checked)
    engine = CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                       PAPER_BIQUAD,
                                       samples_per_period=4096,
                                       cache=GoldenCache())
    engine.run_noise(montecarlo_dies(PAPER_BIQUAD, 2, sigma_f0=0.03,
                                     seed=3), repeats=3, band=None)
    assert max(longest) > signature_batch._PAIRWISE_BLOCK


# ----------------------------------------------------------------------
# Batched asynchronous capture
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [
    CaptureConfig(clock_hz=10e6, counter_bits=16),
    CaptureConfig(clock_hz=2e6, counter_bits=6),      # saturating
    CaptureConfig(clock_hz=2e6, counter_bits=6, wrap=True),
])
def test_quantize_batch_bit_identical_to_scalar(population_codes,
                                                config):
    times, codes, period, golden = population_codes
    capture = AsyncCapture(table1_encoder(), config)
    batch = SignatureBatch.from_code_stack(times, codes, period)
    quantized = capture.quantize_batch(batch)
    assert len(quantized) == len(batch)
    scalars = [capture.quantize(batch.row(i))
               for i in range(len(batch))]
    for i, scalar in enumerate(scalars):
        row = quantized.row(i)
        assert row.codes() == scalar.codes()
        assert np.array_equal(row.durations(), scalar.durations())
        assert quantized.periods[i] == scalar.period
    # The packed quantized batch must also score bit-identically to
    # the scalar quantize -> ndf path.
    reference = np.asarray([ndf(s, golden) for s in scalars])
    assert np.array_equal(quantized.ndf_to(golden), reference)


def test_quantize_batch_empty():
    capture = AsyncCapture(table1_encoder())
    empty = SignatureBatch.from_signatures([])
    assert len(capture.quantize_batch(empty)) == 0


def test_quantize_batch_rejects_subtick_period():
    capture = AsyncCapture(table1_encoder(),
                           CaptureConfig(clock_hz=1.0))
    batch = SignatureBatch.from_signatures(
        [Signature.from_pairs([(1, 0.25)], 0.25)])
    with pytest.raises(ValueError):
        capture.quantize_batch(batch)


# ----------------------------------------------------------------------
# Row selection / concatenation (the diagnosis carve-out)
# ----------------------------------------------------------------------
def test_select_preserves_rows(population_codes):
    times, codes, period, golden = population_codes
    batch = SignatureBatch.from_code_stack(times, codes, period)
    picked = batch.select([3, 0, 3])
    assert len(picked) == 3
    for out_row, src_row in zip(range(3), (3, 0, 3)):
        a, b = picked.row(out_row), batch.row(src_row)
        assert a.codes() == b.codes()
        assert np.array_equal(a.durations(), b.durations())
    # Scoring the selection equals gathering the full-batch scores.
    assert np.array_equal(picked.ndf_to(golden),
                          batch.ndf_to(golden)[[3, 0, 3]])


def test_select_empty_and_validation(population_codes):
    times, codes, period, __ = population_codes
    batch = SignatureBatch.from_code_stack(times, codes, period)
    empty = batch.select([])
    assert len(empty) == 0
    assert empty.codes.size == 0
    with pytest.raises(ValueError):
        batch.select([[0, 1]])


def test_concatenate_round_trips_select(population_codes):
    times, codes, period, golden = population_codes
    batch = SignatureBatch.from_code_stack(times, codes, period)
    n = len(batch)
    front = batch.select(np.arange(n // 2))
    back = batch.select(np.arange(n // 2, n))
    merged = SignatureBatch.concatenate([front, back])
    assert np.array_equal(merged.codes, batch.codes)
    assert np.array_equal(merged.durations, batch.durations)
    assert np.array_equal(merged.row_offsets, batch.row_offsets)
    assert np.array_equal(merged.periods, batch.periods)
    assert np.array_equal(merged.ndf_to(golden), batch.ndf_to(golden))


def test_concatenate_skips_empty_batches(population_codes):
    times, codes, period, __ = population_codes
    batch = SignatureBatch.from_code_stack(times, codes, period)
    merged = SignatureBatch.concatenate(
        [SignatureBatch.empty(), batch, SignatureBatch.empty()])
    assert len(merged) == len(batch)
    assert len(SignatureBatch.concatenate([])) == 0
