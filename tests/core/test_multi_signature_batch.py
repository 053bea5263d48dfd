"""MultiSignatureBatch: per-channel parity with independent batches.

The multi-channel batch is a thin stack of single-channel CSR batches;
every operation (extraction, NDF, select, concatenate) must be
bit-identical to running K independent :class:`SignatureBatch`
pipelines -- nothing may be shared or re-derived across channels.
"""

import numpy as np
import pytest

from repro.core.multi_signature_batch import MultiSignatureBatch
from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch

pytestmark = pytest.mark.campaign


def _code_stacks(n=7, t=40, k=3, seed=5):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 0.9, t - 1))
    times = np.concatenate([[0.0], times])
    return times, [rng.integers(0, 8, size=(n, t))
                   for __ in range(k)], 1.0


def _multi(times, stacks, period):
    """One channel per code stack, each its own independent batch."""
    return MultiSignatureBatch([
        SignatureBatch.from_code_stack(times, stack, period)
        for stack in stacks])


def _goldens(k=3, seed=9):
    rng = np.random.default_rng(seed)
    goldens = []
    for __ in range(k):
        runs = rng.integers(2, 6)
        codes = rng.integers(0, 8, runs)
        durations = rng.uniform(0.05, 0.4, runs)
        durations *= 1.0 / durations.sum()
        goldens.append(Signature.from_pairs(
            zip(codes.tolist(), durations.tolist()), 1.0))
    return goldens


def test_ndf_to_bit_identical_to_independent_runs():
    times, stacks, period = _code_stacks()
    multi = _multi(times, stacks, period)
    goldens = _goldens()
    matrix = multi.ndf_to(goldens)
    assert matrix.shape == (7, 3)
    for k, stack in enumerate(stacks):
        single = SignatureBatch.from_code_stack(times, stack, period)
        assert np.array_equal(matrix[:, k], single.ndf_to(goldens[k]))


def test_select_parity_and_alignment():
    times, stacks, period = _code_stacks()
    multi = _multi(times, stacks, period)
    picks = np.asarray([5, 0, 3])
    sub = multi.select(picks)
    assert len(sub) == 3 and sub.num_channels == 3
    for k, stack in enumerate(stacks):
        single = SignatureBatch.from_code_stack(times, stack,
                                                period).select(picks)
        assert np.array_equal(sub.channel(k).codes, single.codes)
        assert np.array_equal(sub.channel(k).durations,
                              single.durations)


def test_concatenate_parity():
    times, stacks, period = _code_stacks()
    first = _multi(
        times, [s[:3] for s in stacks], period)
    second = _multi(
        times, [s[3:] for s in stacks], period)
    merged = MultiSignatureBatch.concatenate([first, second])
    whole = _multi(times, stacks, period)
    assert len(merged) == len(whole)
    for k in range(3):
        assert np.array_equal(merged.channel(k).codes,
                              whole.channel(k).codes)
        assert np.array_equal(merged.channel(k).durations,
                              whole.channel(k).durations)
        assert np.array_equal(merged.channel(k).row_offsets,
                              whole.channel(k).row_offsets)


def test_empty_and_concatenate_with_empty():
    empty = MultiSignatureBatch.empty(2)
    assert len(empty) == 0 and empty.num_channels == 2
    times, stacks, period = _code_stacks(k=2)
    multi = _multi(times, stacks, period)
    merged = MultiSignatureBatch.concatenate([empty, multi])
    assert len(merged) == len(multi)
    for k in range(2):
        assert np.array_equal(merged.channel(k).codes,
                              multi.channel(k).codes)


def test_row_unpacks_per_channel_signatures():
    times, stacks, period = _code_stacks()
    multi = _multi(times, stacks, period)
    signatures = multi.row(2)
    assert len(signatures) == 3
    for k, signature in enumerate(signatures):
        expected = Signature.from_samples(times, stacks[k][2], period)
        assert signature == expected


def test_validation_errors():
    times, stacks, period = _code_stacks()
    with pytest.raises(ValueError):
        MultiSignatureBatch([])
    with pytest.raises(ValueError):
        MultiSignatureBatch.empty(0)
    short = SignatureBatch.from_code_stack(times, stacks[0][:3], period)
    full = SignatureBatch.from_code_stack(times, stacks[1], period)
    with pytest.raises(ValueError):
        MultiSignatureBatch([short, full])
    multi = _multi(times, stacks, period)
    with pytest.raises(ValueError):
        multi.ndf_to(_goldens(k=2))
    with pytest.raises(ValueError):
        MultiSignatureBatch.concatenate([])
    with pytest.raises(ValueError):
        MultiSignatureBatch.concatenate(
            [multi, MultiSignatureBatch.empty(2)])
