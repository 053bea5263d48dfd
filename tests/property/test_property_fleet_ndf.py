"""Property tests for the packed fleet-NDF kernel.

The batched kernel must inherit every invariant of the scalar
:func:`repro.core.ndf.ndf` because it *is* the same metric, computed
over padded rows: on random populations it must match the per-die loop
exactly, stay symmetric, vanish only on identical code functions, and
be invariant under joint rotation.  Its per-row sums must equal
``np.sum`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ndf import ndf
from repro.core.signature import Signature
from repro.core.signature_batch import (
    SignatureBatch,
    _lane_model_agrees,
    _pairwise_row_sums,
    fleet_ndf,
)

PERIOD = 1.0


@st.composite
def signatures(draw, max_entries=8, max_code=63):
    """Random run-length signatures with exact total duration."""
    n = draw(st.integers(min_value=1, max_value=max_entries))
    weights = [draw(st.floats(min_value=0.05, max_value=1.0))
               for _ in range(n)]
    total = sum(weights)
    codes = [draw(st.integers(min_value=0, max_value=max_code))
             for _ in range(n)]
    pairs = [(c, w / total * PERIOD) for c, w in zip(codes, weights)]
    return Signature.from_pairs(pairs, PERIOD)


@st.composite
def populations(draw, max_rows=6):
    """A golden signature plus a small random population."""
    golden = draw(signatures())
    rows = draw(st.lists(signatures(), min_size=1, max_size=max_rows))
    return golden, rows


@st.composite
def code_stacks(draw, max_rows=5, max_samples=64, max_code=7):
    """Random sampled code stacks on a shared uniform grid.

    The sample count (one sample up) and the code dtype (the certified
    encoder's ``uint8`` planes, the exact kernel's ``int64``) vary too.
    """
    n = draw(st.integers(min_value=1, max_value=max_rows))
    samples = draw(st.integers(min_value=1, max_value=max_samples))
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    stack = np.asarray(
        [[draw(st.integers(min_value=0, max_value=max_code))
          for _ in range(samples)] for _ in range(n)], dtype=dtype)
    times = PERIOD * np.arange(samples) / samples
    return times, stack


@given(populations())
@settings(max_examples=50, deadline=None)
def test_fleet_matches_per_die_exactly(population):
    golden, rows = population
    packed = SignatureBatch.from_signatures(rows)
    expected = np.asarray([ndf(row, golden) for row in rows])
    assert np.array_equal(packed.ndf_to(golden), expected)


@given(code_stacks())
@settings(max_examples=50, deadline=None)
def test_sampled_stack_matches_per_die_exactly(stack_case):
    times, stack = stack_case
    golden = Signature.from_samples(times, stack[0], PERIOD)
    packed = SignatureBatch.from_code_stack(times, stack, PERIOD)
    expected = np.asarray(
        [ndf(Signature.from_samples(times, row, PERIOD), golden)
         for row in stack])
    values = packed.ndf_to(golden)
    assert np.array_equal(values, expected)
    # Row 0 is the golden itself: exact zero, no float residue.
    assert values[0] == 0.0


@given(signatures(), signatures())
@settings(max_examples=50, deadline=None)
def test_fleet_is_symmetric(a, b):
    ab = fleet_ndf(SignatureBatch.from_signatures([a]), b)[0]
    ba = fleet_ndf(SignatureBatch.from_signatures([b]), a)[0]
    assert ab == pytest.approx(ba, abs=1e-12)


@given(populations())
@settings(max_examples=50, deadline=None)
def test_zero_iff_equal_code_function(population):
    golden, rows = population
    values = SignatureBatch.from_signatures(rows).ndf_to(golden)
    for value, row in zip(values, rows):
        if value == 0.0:
            # Equal almost everywhere -> equal codes on a dense grid.
            probes = PERIOD * (np.arange(200) + 0.5) / 200
            assert np.array_equal(row.code_at(probes),
                                  golden.code_at(probes))
        else:
            assert ndf(row, golden) > 0.0
    # And every row against itself is exactly zero.
    self_packed = SignatureBatch.from_signatures(rows)
    for i, row in enumerate(rows):
        assert self_packed.ndf_to(row)[i] == 0.0


@given(populations(), st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_joint_rotation_invariance(population, dt):
    golden, rows = population
    baseline = SignatureBatch.from_signatures(rows).ndf_to(golden)
    rotated = SignatureBatch.from_signatures(
        [row.rotated(dt) for row in rows]).ndf_to(golden.rotated(dt))
    assert np.allclose(baseline, rotated, atol=1e-9)


@given(populations())
@settings(max_examples=40, deadline=None)
def test_bounded_by_code_width(population):
    golden, rows = population
    values = SignatureBatch.from_signatures(rows).ndf_to(golden)
    assert np.all(values >= 0.0)
    assert np.all(values <= 6.0)  # 6-bit codes: dH <= 6


@st.composite
def term_rows(draw, max_rows=6, max_length=300):
    """Rows of non-negative terms, as the kernel sums them: lengths on
    both sides of the 8-entry lanes and the 128-entry block, zeros
    mixed in."""
    term = st.one_of(st.just(0.0),
                     st.floats(min_value=1e-12, max_value=1e3))
    return [draw(st.lists(term, min_size=1, max_size=max_length))
            for _ in range(draw(st.integers(1, max_rows)))]


@given(term_rows())
@settings(max_examples=60, deadline=None)
def test_row_sums_match_numpy_sum(rows):
    if not _lane_model_agrees():
        pytest.skip("this numpy sums in another order; the kernel sums "
                    "row by row with np.sum")
    lengths = np.asarray([len(row) for row in rows])
    padded = np.zeros((len(rows), 8 * (lengths.max() // 8 + 1)))
    for i, row in enumerate(rows):
        padded[i, :len(row)] = row
    expected = np.asarray([np.sum(row) for row in rows])
    assert _pairwise_row_sums(padded, lengths).tobytes() \
        == expected.tobytes()
