"""Multi-channel signatures (the multi-variable generalization)."""

import pytest

from repro.core import (
    BiquadTwoTapCut,
    ChannelSpec,
    MultiChannelTester,
)
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS


@pytest.fixture(scope="module")
def two_tap_tester(encoder):
    channels = [ChannelSpec("lp", encoder), ChannelSpec("bp", encoder)]
    return MultiChannelTester(channels, PAPER_STIMULUS,
                              BiquadTwoTapCut(PAPER_BIQUAD),
                              samples_per_period=2048)


def test_channel_validation(encoder):
    with pytest.raises(ValueError, match="at least one"):
        MultiChannelTester([], PAPER_STIMULUS,
                           BiquadTwoTapCut(PAPER_BIQUAD))
    dup = [ChannelSpec("lp", encoder), ChannelSpec("lp", encoder)]
    with pytest.raises(ValueError, match="unique"):
        MultiChannelTester(dup, PAPER_STIMULUS,
                           BiquadTwoTapCut(PAPER_BIQUAD))


def test_unknown_channel_rejected():
    cut = BiquadTwoTapCut(PAPER_BIQUAD)
    with pytest.raises(ValueError, match="unknown channel"):
        cut.lissajous_of("hp", PAPER_STIMULUS, 256)


def test_golden_signatures_per_channel(two_tap_tester):
    golden = two_tap_tester.golden_signature()
    assert set(golden.channels) == {"lp", "bp"}
    assert golden["lp"].period == pytest.approx(200e-6)
    assert golden["bp"].period == pytest.approx(200e-6)


def test_lp_channel_matches_single_channel_flow(two_tap_tester, setup):
    """Channel 'lp' is exactly the paper's instrument."""
    golden_multi = two_tap_tester.golden_signature()["lp"]
    # Resample the bench golden at the same rate for a fair comparison.
    from repro.core import SignatureTester, ndf
    from repro.filters.biquad import BiquadFilter
    single = SignatureTester(setup.encoder, PAPER_STIMULUS,
                             BiquadFilter(PAPER_BIQUAD),
                             samples_per_period=2048)
    assert ndf(golden_multi, single.golden_signature()) \
        == pytest.approx(0.0, abs=1e-6)


def test_both_channels_see_q_deviations(two_tap_tester):
    q_shifted = BiquadTwoTapCut(PAPER_BIQUAD.with_q_deviation(0.20))
    values = two_tap_tester.channel_ndfs(q_shifted)
    assert values["lp"] > 0.02
    assert values["bp"] > 0.02


def test_f0_deviations_seen_by_both(two_tap_tester):
    f0_shifted = BiquadTwoTapCut(PAPER_BIQUAD.with_f0_deviation(0.10))
    values = two_tap_tester.channel_ndfs(f0_shifted)
    assert values["lp"] > 0.05
    assert values["bp"] > 0.05


def test_channel_ratio_separates_fault_classes(two_tap_tester):
    """Diagnosis: the (lp, bp) NDF pair points at the drifted parameter.

    An f0 fault loads both taps nearly equally (ratio ~1.15); a Q fault
    loads the LP tap roughly twice as hard as the BP tap -- so the
    ratio classifies the fault where the scalar NDF cannot.
    """
    def ratio(cut):
        values = two_tap_tester.channel_ndfs(cut)
        return values["lp"] / values["bp"]

    r_f0 = ratio(BiquadTwoTapCut(PAPER_BIQUAD.with_f0_deviation(0.10)))
    r_q = ratio(BiquadTwoTapCut(PAPER_BIQUAD.with_q_deviation(0.20)))
    assert r_q > 1.4 * r_f0


def test_bp_trace_rebias_keeps_window(two_tap_tester):
    cut = BiquadTwoTapCut(PAPER_BIQUAD)
    trace = cut.lissajous_of("bp", PAPER_STIMULUS, 1024)
    xmin, xmax, ymin, ymax = trace.bounding_box()
    assert 0.0 <= ymin <= ymax <= 1.0
