"""Batched matcher: top-1 identification, reference parity, scaling."""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import CampaignEngine, GoldenCache
from repro.core.signature_batch import SignatureBatch
from repro.diagnosis import (
    DictionaryMatcher,
    ambiguity_groups,
    compile_fault_dictionary,
    fault_distance_matrix,
    perturbed_fault_fleet,
)
from repro.filters.towthomas import TowThomasValues
from repro.monitor.configurations import table1_encoder
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
def matcher(dictionary):
    return DictionaryMatcher(dictionary)


def test_every_detectable_fault_identified_top1(dictionary, matcher):
    """The acceptance criterion on the clean fault universe.

    Diagnosing the dictionary's own signatures must return the
    injected fault as top-1 for every detectable fault -- or a fault
    at *exactly* the same distance, in which case the two must share
    an ambiguity group (indistinguishable by construction).
    """
    result = matcher.match(dictionary.batch, top_k=3)
    matrix = fault_distance_matrix(dictionary)
    groups = ambiguity_groups(dictionary, matrix=matrix)
    member = {i: set(g) for g in groups for i in g}
    for i in np.flatnonzero(dictionary.detectable()):
        top = int(result.best_indices[i])
        # Self-distance is exactly zero under the NDF metric.
        assert result.distances[i, i] == 0.0
        assert result.top_distances[i, 0] == 0.0
        if top != i:
            assert top in member[i], (
                f"{dictionary.labels[i]} misdiagnosed as "
                f"{dictionary.labels[top]} outside its ambiguity group")
            assert result.margins()[i] == 0.0  # reported as ambiguous


def test_batched_matches_per_die_reference(engine, dictionary, matcher):
    """Fleet matcher vs the per-die loop: identical, die by die."""
    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    population, __ = perturbed_fault_fleet(
        values, dictionary.faults, per_fault=2, sigma=0.03, seed=3)
    screened = engine.run(population, band=None, keep_signatures=True)
    batch = screened.signature_batch
    for metric in ("ndf", "dwell"):
        batched = matcher.match(batch, top_k=4, metric=metric)
        reference = matcher.match_reference(batch, top_k=4,
                                            metric=metric)
        assert np.array_equal(batched.distances, reference.distances)
        assert np.array_equal(batched.top_indices,
                              reference.top_indices)
        assert np.array_equal(batched.top_distances,
                              reference.top_distances)
        assert batched.matches() == reference.matches()
        assert np.array_equal(batched.margins(), reference.margins())


def test_topk_clamped_to_dictionary(dictionary, matcher):
    result = matcher.match(dictionary.batch, top_k=999)
    assert result.top_k == len(dictionary)


def test_empty_batch(dictionary, matcher):
    result = matcher.match(SignatureBatch.empty(), top_k=3)
    assert result.num_dies == 0
    assert result.matches() == []
    assert result.distances.shape == (0, len(dictionary))


def test_unknown_metric_rejected(dictionary, matcher):
    with pytest.raises(ValueError, match="metric"):
        matcher.match(dictionary.batch, metric="cosine")
    with pytest.raises(ValueError, match="metric"):
        matcher.match_reference(dictionary.batch, metric="cosine")


def test_result_accuracy_and_payload(dictionary, matcher):
    result = matcher.match(dictionary.batch, top_k=2)
    truth = np.arange(len(dictionary))
    accuracy = result.accuracy(truth)
    assert 0.0 <= accuracy <= 1.0
    payload = result.to_payload()
    assert payload["dies"] == len(dictionary)
    assert len(payload["matches"]) == len(dictionary)
    assert "summary" not in payload  # machine payload stays flat
    text = result.summary(max_rows=3)
    assert "diagnosed:" in text and "matches:" in text


@pytest.mark.slow
def test_fleet_of_1000_failing_dies_one_pass(engine, dictionary,
                                             matcher):
    """Acceptance scale: >= 1000 failing dies in a single match call,
    identical to the per-die reference on a subsample."""
    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    detectable = int(np.count_nonzero(dictionary.detectable()))
    per_fault = -(-1000 // detectable)
    population, truth = perturbed_fault_fleet(
        values, dictionary.faults, per_fault=per_fault, sigma=0.02,
        seed=17)
    result = engine.run(population,
                        band=float(dictionary.threshold),
                        keep_signatures=True)
    failing = result.failing_indices()
    assert failing.size >= 1000
    diagnosis = result.diagnose(dictionary, top_k=3)
    assert diagnosis.num_dies == failing.size
    sub = np.arange(50)
    reference = matcher.match_reference(
        result.signature_batch.select(failing).select(sub), top_k=3)
    assert np.array_equal(diagnosis.distances[:50],
                          reference.distances)
    assert np.array_equal(diagnosis.top_indices[:50],
                          reference.top_indices)
    # Group-aware accuracy over the whole fleet stays high.
    groups = ambiguity_groups(
        dictionary, matrix=fault_distance_matrix(dictionary))
    assert diagnosis.group_accuracy(truth[failing], groups) >= 0.8


def test_diagnoses_unpack_the_dictionary_once(engine, dictionary,
                                              matcher, monkeypatch):
    """Every ``CampaignResult.diagnose`` builds a new matcher; the
    dictionary's fault rows are unpacked once for all of them."""
    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    population, __ = perturbed_fault_fleet(
        values, dictionary.faults, per_fault=1, sigma=0.02, seed=29)
    result = engine.run(population, band=float(dictionary.threshold),
                        keep_signatures=True)
    fresh = replace(dictionary)          # nothing unpacked yet
    unpacked = []
    unpack = SignatureBatch.to_signatures

    def counted(batch):
        if batch is fresh.batch:
            unpacked.append(batch)
        return unpack(batch)

    monkeypatch.setattr(SignatureBatch, "to_signatures", counted)
    first = result.diagnose(fresh, top_k=3)
    second = result.diagnose(fresh, top_k=3)
    assert len(unpacked) == 1
    expected = matcher.match(
        result.signature_batch.select(result.failing_indices()), top_k=3)
    for diagnosis in (first, second):
        assert diagnosis.distances.tobytes() \
            == expected.distances.tobytes()
        assert np.array_equal(diagnosis.top_indices,
                              expected.top_indices)
