"""Adaptive second signature: splitting PR 3's ambiguity groups.

The acceptance criteria of the multi-signature PR, asserted end to
end on the paper bench:

* the search demonstrably splits ``{r1-open, r5-short}`` while
  correctly reporting ``{r4-open, r4-short}`` (identical responses)
  as invisible by construction;
* the K-channel dictionary's channel 0 is bit-identical to the plain
  dictionary, and the multi matcher with K = 1 degenerates to the
  single matcher exactly;
* the multi-channel confusion study's group-aware accuracy does not
  regress, and per-fault accuracy improves on the split group
  members.
"""

import numpy as np
import pytest

from repro.campaign import CampaignEngine, GoldenCache
from repro.core.multi_signature_batch import MultiSignatureBatch
from repro.diagnosis import (
    DictionaryMatcher,
    MultiDictionaryMatcher,
    MultiFaultDictionary,
    ambiguity_groups,
    compile_fault_dictionary,
    compile_multi_fault_dictionary,
    confusion_study,
    fault_distance_matrix,
    search_second_signature,
)
from repro.monitor.configurations import table1_encoder
from repro.monitor.second_signature import (
    candidate_by_name,
    default_candidates,
    second_signature_bank,
)
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def engine():
    return CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES,
                                     cache=GoldenCache())


@pytest.fixture(scope="module")
def dictionary(engine):
    return compile_fault_dictionary(engine)


@pytest.fixture(scope="module")
def search(engine, dictionary):
    return search_second_signature(engine, dictionary)


@pytest.fixture(scope="module")
def multi_dictionary(engine, search):
    return compile_multi_fault_dictionary(engine, search.encoders)


# ----------------------------------------------------------------------
# The search itself
# ----------------------------------------------------------------------
def test_search_splits_r1_open_r5_short(search):
    """The headline split: the dead-gain-path pair resolves."""
    assert search.best is not None
    assert ["r1-open", "r5-short"] in search.resolved_groups
    # In the combined space the two faults no longer share a group.
    after_members = {i for group in search.groups_after for i in group}
    a = search.labels.index("r1-open")
    b = search.labels.index("r5-short")
    assert not any(a in group and b in group
                   for group in search.groups_after)
    assert a not in after_members or b not in after_members \
        or all(not (a in g and b in g) for g in search.groups_after)


def test_search_reports_matched_inverter_pair_invisible(search):
    """r4-open/r4-short share one response: unresolvable by design."""
    assert ["r4-open", "r4-short"] in search.invisible_groups
    assert ["r4-open", "r4-short"] not in search.resolved_groups


def test_search_reports_out_of_window_pair_unresolved(search):
    """r1-short/r5-open differ in trace but saturate outside the
    window -- every in-window boundary sees them identically."""
    assert ["r1-short", "r5-open"] in search.unresolved_groups


def test_search_objective_prefers_splitting_candidates(search):
    """The winner's worst-case separation beats non-splitting banks."""
    best_score = search.scores[search.best.name]
    assert best_score > 0.0
    # A pure small bias shift cannot split the dead-output pair, so
    # its worst-case over the resolvable pairs must be zero.
    assert search.scores["bias-0.05"] == 0.0
    # The level detector is necessary for the headline pair: every
    # candidate without one scores zero on it.
    a = search.labels.index("r1-open")
    b = search.labels.index("r5-short")
    pair = (a, b) if a < b else (b, a)
    for name, separations in search.pair_separations.items():
        if "level" not in name:
            assert separations[pair] == 0.0
        assert separations[pair] >= 0.0


def test_search_second_channel_separates_in_dictionary_space(
        search, multi_dictionary):
    """The compiled channel-1 rows realize the promised separation."""
    a = search.labels.index("r1-open")
    b = search.labels.index("r5-short")
    channel1 = multi_dictionary.channel(1)
    matrix1 = fault_distance_matrix(channel1)
    assert matrix1[a, b] > 1e-3
    # ... while channel 0 still cannot tell them apart.
    matrix0 = fault_distance_matrix(multi_dictionary.channel(0))
    assert matrix0[a, b] <= 1e-9


def test_pinned_candidate_search(engine, dictionary):
    """A single named candidate can be pinned instead of the family."""
    candidate = candidate_by_name("bias-0.10_level1e-05")
    search = search_second_signature(engine, dictionary, [candidate])
    assert search.best is not None
    assert search.best.name == "bias-0.10_level1e-05"
    assert ["r1-open", "r5-short"] in search.resolved_groups


def test_candidate_names_round_trip():
    for candidate in default_candidates():
        rebuilt = candidate_by_name(candidate.name)
        assert rebuilt.name == candidate.name
        assert rebuilt.encoder.fingerprint() \
            == candidate.encoder.fingerprint()
    with pytest.raises(ValueError):
        candidate_by_name("nonsense")


# ----------------------------------------------------------------------
# Multi dictionary + matcher
# ----------------------------------------------------------------------
def test_multi_dictionary_channel0_bit_identical(dictionary,
                                                 multi_dictionary):
    channel0 = multi_dictionary.channel(0)
    assert np.array_equal(channel0.ndfs, dictionary.ndfs)
    assert np.array_equal(channel0.features, dictionary.features)
    assert np.array_equal(channel0.batch.codes, dictionary.batch.codes)
    assert np.array_equal(channel0.batch.durations,
                          dictionary.batch.durations)
    assert channel0.threshold == dictionary.threshold
    assert channel0.golden_signature == dictionary.golden_signature
    assert multi_dictionary.labels == dictionary.labels


def test_compile_multi_k1_degenerates(engine, dictionary):
    """An encoder list of one -- the search's outcome when nothing is
    resolvable -- compiles and diagnoses like the plain dictionary."""
    from repro.campaign import fault_dictionary
    from repro.filters.towthomas import TowThomasValues

    multi = compile_multi_fault_dictionary(
        engine, [engine.config.encoder])
    assert multi.num_channels == 1
    channel0 = multi.channel(0)
    assert np.array_equal(channel0.ndfs, dictionary.ndfs)
    assert np.array_equal(channel0.batch.codes, dictionary.batch.codes)
    assert channel0.threshold == dictionary.threshold
    # A plain (single-channel) campaign result diagnoses through it.
    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    result = engine.run(population, band=float(multi.threshold),
                        keep_signatures=True)
    via_multi = result.diagnose(multi, top_k=3)
    via_single = result.diagnose(dictionary, top_k=3)
    assert np.array_equal(via_multi.distances, via_single.distances)
    assert np.array_equal(via_multi.top_indices,
                          via_single.top_indices)
    # confusion_study accepts the degenerate dictionary too.
    study = confusion_study(engine, multi, per_fault=2, sigma=0.02,
                            seed=5)
    reference = confusion_study(engine, dictionary, per_fault=2,
                                sigma=0.02, seed=5)
    assert np.array_equal(study.matrix, reference.matrix)


def test_multi_matcher_k1_degenerates_to_single(engine, dictionary):
    """With one channel the combined matcher is the plain matcher."""
    single = DictionaryMatcher(dictionary)
    multi = MultiDictionaryMatcher(MultiFaultDictionary(
        [dictionary], [engine.config.encoder]))
    batch = MultiSignatureBatch([dictionary.batch])
    a = single.match(dictionary.batch, top_k=3)
    b = multi.match(batch, top_k=3)
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.top_indices, b.top_indices)
    assert np.array_equal(a.top_distances, b.top_distances)


def test_multi_matcher_stacked_and_combined(multi_dictionary):
    matcher = MultiDictionaryMatcher(multi_dictionary)
    batch = MultiSignatureBatch(
        [channel.batch for channel in multi_dictionary.channels])
    first, second = matcher.channel_distances(batch)
    f = len(multi_dictionary)
    assert first.shape == second.shape == (f, f)
    combined = matcher.distance_matrix(batch)
    expected = first + matcher.tie_break * second
    assert np.array_equal(combined, expected)
    # Self-distance stays exactly zero through the combination.
    assert np.all(np.diag(combined) == 0.0)


def test_multi_matchers_unpack_each_channel_once(multi_dictionary,
                                                monkeypatch):
    """Matchers built per diagnosis share their channels' unpacked
    fault rows: each channel dictionary is unpacked once."""
    from dataclasses import replace

    from repro.core.signature_batch import SignatureBatch

    fresh = MultiFaultDictionary(
        [replace(channel) for channel in multi_dictionary.channels],
        multi_dictionary.encoders)
    batches = [channel.batch for channel in fresh.channels]
    unpacked = [0] * len(batches)
    unpack = SignatureBatch.to_signatures

    def counted(batch):
        for i, candidate in enumerate(batches):
            unpacked[i] += batch is candidate
        return unpack(batch)

    monkeypatch.setattr(SignatureBatch, "to_signatures", counted)
    observed = MultiSignatureBatch(batches)
    first = MultiDictionaryMatcher(fresh).match(observed, top_k=3)
    second = MultiDictionaryMatcher(fresh).match(observed, top_k=3)
    assert unpacked == [1] * len(batches)
    expected = MultiDictionaryMatcher(multi_dictionary).match(observed,
                                                              top_k=3)
    for result in (first, second):
        assert result.distances.tobytes() == expected.distances.tobytes()
        assert np.array_equal(result.top_indices, expected.top_indices)


def test_multi_matcher_checks_channel_count(multi_dictionary,
                                            dictionary):
    matcher = MultiDictionaryMatcher(multi_dictionary)
    with pytest.raises(ValueError, match="channels"):
        matcher.match(MultiSignatureBatch([dictionary.batch]))
    with pytest.raises(TypeError):
        matcher.match(dictionary.batch)
    with pytest.raises(ValueError):
        MultiDictionaryMatcher(multi_dictionary, tie_break=0.0)


# ----------------------------------------------------------------------
# End-to-end: confusion study with the second signature
# ----------------------------------------------------------------------
def test_confusion_study_improves_on_split_group(engine, dictionary,
                                                 multi_dictionary):
    """Group-aware accuracy keeps up; split members improve."""
    single = confusion_study(engine, dictionary, per_fault=4,
                             sigma=0.02, seed=42)
    multi = confusion_study(engine, multi_dictionary, per_fault=4,
                            sigma=0.02, seed=42)
    # The FAIL gate stays channel 0, so both studies diagnose the
    # same dies and deltas isolate the second signature.
    assert np.array_equal(single.detected, multi.detected)
    assert np.array_equal(single.true_indices, multi.true_indices)
    groups = ambiguity_groups(dictionary,
                              matrix=fault_distance_matrix(dictionary))
    assert multi.group_accuracy(groups) \
        >= single.group_accuracy(groups)
    # Only group-aware accuracy is provably no-regress; give plain
    # top-1 one die of slack against platform-dependent near-ties.
    assert multi.accuracy \
        >= single.accuracy - 1.0 / max(1, int(single.detected.sum()))
    labels = dictionary.labels
    improved = 0
    for label in ("r1-open", "r5-short"):
        i = labels.index(label)
        if not single.detected[i]:
            continue
        before = single.matrix[i, i] / single.detected[i]
        after = multi.matrix[i, i] / multi.detected[i]
        assert after >= before
        improved += int(after > before)
    # The pair used to collapse onto one member: at least one side
    # must strictly improve.
    assert improved >= 1


def test_campaign_diagnose_dispatches_multi(engine, multi_dictionary):
    """CampaignResult.diagnose picks the multi matcher for a
    MultiFaultDictionary and reproduces the direct matcher output."""
    from repro.campaign import fault_dictionary
    from repro.filters.towthomas import TowThomasValues

    population, __ = fault_dictionary(
        TowThomasValues.from_spec(PAPER_BIQUAD))
    result = engine.run(population,
                        band=float(multi_dictionary.threshold),
                        keep_signatures=True,
                        encoders=multi_dictionary.encoders)
    diagnosis = result.diagnose(multi_dictionary, top_k=2)
    failing = result.failing_indices()
    matcher = MultiDictionaryMatcher(multi_dictionary)
    direct = matcher.match(
        result.multi_signature_batch.select(failing), top_k=2)
    assert np.array_equal(diagnosis.distances, direct.distances)
    assert np.array_equal(diagnosis.top_indices, direct.top_indices)


def test_second_bank_is_a_sane_encoder():
    """The winning family member still encodes the golden sanely."""
    encoder = second_signature_bank(-0.10, 1e-5)
    assert encoder.num_bits == 6
    assert encoder.origin_zone() == 0
