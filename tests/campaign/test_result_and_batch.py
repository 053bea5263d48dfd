"""CampaignResult statistics and the vectorized batch kernels."""

import numpy as np
import pytest

from repro.campaign import (
    CampaignResult,
    batch_codes,
    batch_multitone_eval,
    batch_signatures,
    sample_times,
)
from repro.core.signature import Signature, run_length_starts
from repro.monitor.configurations import table1_encoder
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.filters.biquad import BiquadFilter

pytestmark = pytest.mark.campaign


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------
def test_run_length_starts():
    starts = run_length_starts(np.asarray([4, 4, 7, 7, 7, 4]))
    assert np.array_equal(starts, [0, 2, 5])
    assert np.array_equal(run_length_starts(np.asarray([1])), [0])
    with pytest.raises(ValueError):
        run_length_starts(np.asarray([]))


def test_sample_times_matches_waveform_grid():
    period = PAPER_STIMULUS.period()
    times = sample_times(period, 256)
    wave = PAPER_STIMULUS.sample(256)
    assert np.array_equal(times, wave.times)
    with pytest.raises(ValueError):
        sample_times(period, 1)


def test_batch_multitone_eval_matches_scalar_eval():
    times = sample_times(PAPER_STIMULUS.period(), 128)
    response = BiquadFilter(PAPER_BIQUAD).response(PAPER_STIMULUS)
    stack = batch_multitone_eval([PAPER_STIMULUS, response], times)
    assert stack.shape == (2, 128)
    assert np.array_equal(stack[0], PAPER_STIMULUS(times))
    assert np.array_equal(stack[1], response(times))


def test_batch_multitone_eval_empty():
    times = sample_times(PAPER_STIMULUS.period(), 64)
    assert batch_multitone_eval([], times).shape == (0, 64)


def test_batch_multitone_eval_rejects_mixed_frequencies():
    from repro.signals.multitone import Multitone, Tone

    times = sample_times(1.0, 32)
    with pytest.raises(ValueError):
        batch_multitone_eval(
            [Multitone([Tone(1.0, 1.0)]), Multitone([Tone(2.0, 1.0)])],
            times)


def test_batch_codes_broadcasts_shared_x():
    encoder = table1_encoder()
    times = sample_times(PAPER_STIMULUS.period(), 128)
    x = np.asarray(PAPER_STIMULUS(times))
    y = batch_multitone_eval(
        [BiquadFilter(PAPER_BIQUAD).response(PAPER_STIMULUS)], times)
    codes = batch_codes(encoder, x, y)
    assert codes.shape == (1, 128)
    assert np.array_equal(codes[0], encoder.code(x, y[0]))


def test_shared_branch_codes_bit_identical_on_varied_bank():
    """The memoized EKV fast path must not mix up varied model cards."""
    from repro.devices.process import MonteCarloSampler
    from repro.monitor.configurations import table1_bank
    from repro.monitor.montecarlo import bank_samples
    from repro.core.zones import ZoneEncoder

    sampler = MonteCarloSampler(rng=5)
    varied = bank_samples(table1_bank(), sampler, 2)
    times = sample_times(PAPER_STIMULUS.period(), 128)
    x = np.asarray(PAPER_STIMULUS(times))
    y = batch_multitone_eval(
        [BiquadFilter(PAPER_BIQUAD).response(PAPER_STIMULUS),
         BiquadFilter(
             PAPER_BIQUAD.with_f0_deviation(0.1)).response(
                 PAPER_STIMULUS)], times)
    for bank in varied:
        encoder = ZoneEncoder(bank)
        fast = batch_codes(encoder, x, y)
        reference = encoder.code(np.broadcast_to(x, y.shape), y)
        assert np.array_equal(fast, reference)


def test_batch_codes_generic_fallback_for_linear_banks():
    """Non-monitor boundaries take the generic broadcast path."""
    from repro.baselines.straight_zoning import grid_line_encoder

    encoder = grid_line_encoder(2, 2)
    times = sample_times(PAPER_STIMULUS.period(), 64)
    x = np.asarray(PAPER_STIMULUS(times))
    y = batch_multitone_eval(
        [BiquadFilter(PAPER_BIQUAD).response(PAPER_STIMULUS)], times)
    codes = batch_codes(encoder, x, y)
    assert np.array_equal(codes[0], encoder.code(x, y[0]))


def test_batch_signatures_shares_from_samples_semantics():
    period = 1.0
    times = sample_times(period, 8)
    codes = np.asarray([[0, 0, 1, 1, 3, 3, 1, 1],
                        [2, 2, 2, 2, 2, 2, 2, 2]])
    signatures = batch_signatures(times, codes, period)
    assert signatures[0] == Signature.from_samples(times, codes[0],
                                                   period)
    assert signatures[1].codes() == [2]


# ----------------------------------------------------------------------
# CampaignResult statistics
# ----------------------------------------------------------------------
def _result():
    return CampaignResult(
        ndfs=np.asarray([0.0, 0.02, 0.08, 0.03]),
        threshold=0.05,
        verdicts=np.asarray([True, True, False, True]),
        f0_deviations=np.asarray([0.0, 0.02, 0.09, 0.06]),
        q_deviations=np.zeros(4),
        labels=["a", "b", "c", "d"],
        tolerance=0.05,
        timing={"total": 0.5},
    )


def test_result_counts_and_rates():
    result = _result()
    assert result.num_dies == 4
    assert result.pass_count == 3
    assert result.fail_count == 1
    assert result.dies_per_second() == pytest.approx(8.0)


def test_result_yield_report():
    report = _result().yield_report()
    # die d: |dev| 0.06 > tol but NDF 0.03 <= 0.05 -> escape
    assert report.escapes == 1
    assert report.true_fail == 1
    assert report.true_pass == 2
    assert report.yield_loss == 0
    assert _result().escape_rate() == 0.5
    assert _result().yield_loss_rate() == 0.0


def test_result_matches_list_based_analysis():
    from repro.analysis import yield_escape_analysis

    result = _result()
    legacy = yield_escape_analysis(result.to_units(), 0.05, 0.05)
    batch = result.yield_report()
    assert (legacy.true_pass, legacy.true_fail, legacy.yield_loss,
            legacy.escapes) == (batch.true_pass, batch.true_fail,
                                batch.yield_loss, batch.escapes)


def test_result_requires_ground_truth_for_yield():
    result = CampaignResult(ndfs=np.asarray([0.1]), threshold=0.05,
                            verdicts=np.asarray([False]))
    with pytest.raises(ValueError):
        result.yield_report(0.05, 0.05)
    with pytest.raises(ValueError):
        result.to_units()


def test_result_verdict_shape_checked():
    with pytest.raises(ValueError):
        CampaignResult(ndfs=np.asarray([0.1, 0.2]),
                       verdicts=np.asarray([True]))


def test_summary_renders():
    text = _result().summary()
    assert "3 PASS / 1 FAIL" in text
    assert "escapes" in text
