"""Fault dictionary: compilation, caching, features, serialization."""

import numpy as np
import pytest

from repro.campaign import (
    CampaignEngine,
    CutListPopulation,
    GoldenCache,
)
from repro.core.ndf import ndf
from repro.diagnosis import (
    FaultDictionary,
    compile_fault_dictionary,
    default_fault_universe,
    dwell_features,
)
from repro.filters.faults import FaultKind, catastrophic_fault_universe
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


def test_default_universe_composition():
    universe = default_fault_universe()
    catastrophic = [f for f in universe
                    if f.kind is not FaultKind.PARAMETRIC]
    parametric = [f for f in universe
                  if f.kind is FaultKind.PARAMETRIC]
    assert len(catastrophic) == 14  # 7 components x {open, short}
    assert len(parametric) == 6    # two signed classes per parameter
    assert len(default_fault_universe(parametric=False)) == 14
    assert len({f.label for f in universe}) == len(universe)


def test_dictionary_aligns_with_universe(dictionary):
    assert len(dictionary) == len(default_fault_universe())
    assert len(dictionary.batch) == len(dictionary)
    assert dictionary.ndfs.shape == (len(dictionary),)
    assert dictionary.features.shape == (len(dictionary), 64)
    assert dictionary.labels[0] == "r1-open"


def test_rows_match_per_die_tester(engine, dictionary):
    """Dictionary NDFs must equal scoring each faulted CUT alone."""
    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    golden = engine.golden().signature
    for i in (0, 5, len(dictionary) - 1):
        fault = dictionary.faults[i]
        single = engine.run(
            CutListPopulation([fault.apply_to_biquad(values)],
                              [fault.label]),
            band=None, keep_signatures=True)
        assert single.ndfs[0] == dictionary.ndfs[i]
        assert ndf(single.signature_batch.row(0), golden) \
            == dictionary.ndfs[i]


def test_features_are_dwell_fractions(dictionary):
    """Each feature row sums to 1 (the whole period is accounted)."""
    sums = dictionary.features.sum(axis=1)
    assert np.allclose(sums, 1.0)
    # Row i's nonzero codes are exactly the signature's distinct codes.
    sig = dictionary.signature(3)
    nonzero = set(np.flatnonzero(dictionary.features[3]).tolist())
    assert nonzero == sig.distinct_codes()


def test_dwell_features_rejects_wide_codes(dictionary):
    with pytest.raises(ValueError, match="wider"):
        dwell_features(dictionary.batch, num_bits=2)


def test_compilation_is_cached(engine):
    before = engine.cache.info
    first = compile_fault_dictionary(engine)
    second = compile_fault_dictionary(engine)
    after = engine.cache.info
    assert second.batch is first.batch  # same cached rows
    assert after.hits > before.hits


def test_threshold_attaches_without_recompiling(engine):
    base = compile_fault_dictionary(engine)
    loose = compile_fault_dictionary(engine, band=10.0)
    assert loose.threshold == 10.0
    assert loose.batch is base.batch
    assert not np.any(loose.detectable())


def test_detectable_requires_threshold(engine):
    dictionary = compile_fault_dictionary(engine, band=None)
    with pytest.raises(ValueError, match="threshold"):
        dictionary.detectable()
    assert np.any(dictionary.detectable(0.05))


def test_save_load_round_trip(dictionary, tmp_path):
    path = tmp_path / "dictionary.npz"
    dictionary.save(path)
    loaded = FaultDictionary.load(path)
    assert loaded.faults == dictionary.faults
    assert np.array_equal(loaded.ndfs, dictionary.ndfs)
    assert np.array_equal(loaded.features, dictionary.features)
    assert np.array_equal(loaded.batch.codes, dictionary.batch.codes)
    assert np.array_equal(loaded.batch.durations,
                          dictionary.batch.durations)
    assert np.array_equal(loaded.batch.row_offsets,
                          dictionary.batch.row_offsets)
    assert loaded.num_bits == dictionary.num_bits
    assert loaded.threshold == dictionary.threshold
    assert loaded.golden_signature == dictionary.golden_signature


def test_custom_universe(engine):
    universe = catastrophic_fault_universe()[:4]
    dictionary = compile_fault_dictionary(engine, faults=universe)
    assert len(dictionary) == 4
    assert dictionary.labels == [f.label for f in universe]


def test_save_returns_normalized_path(dictionary, tmp_path):
    bare = tmp_path / "bare_name"
    written = dictionary.save(bare)
    assert written == str(bare) + ".npz"
    loaded = FaultDictionary.load(bare)  # suffix-less load works
    assert loaded.faults == dictionary.faults


def test_compile_matches_sequential_per_cut_reference(engine, dictionary):
    """Batched-MNA compilation == the sequential per-cut front half.

    The compile path now synthesizes every fault's trace through
    ``ac_analysis_batch`` / ``dc_solve_batch``; the retained per-cut
    ``response()`` loop must produce bit-identical signature rows and
    NDFs.
    """
    from repro.campaign.batch import (
        batch_codes,
        batch_extract,
        batch_multitone_eval,
    )

    values = TowThomasValues.from_spec(PAPER_BIQUAD)
    golden = engine.golden()
    cuts = [fault.apply_to_biquad(values) for fault in dictionary.faults]
    responses = [cut.response(PAPER_STIMULUS) for cut in cuts]
    y = batch_multitone_eval(responses, golden.times)
    codes = batch_codes(engine.config.encoder, golden.x, y)
    reference = batch_extract(golden.times, codes, golden.period)
    assert np.array_equal(reference.ndf_to(golden.signature),
                          dictionary.ndfs)
    assert np.array_equal(reference.codes, dictionary.batch.codes)
    assert np.array_equal(reference.durations,
                          dictionary.batch.durations)
    assert np.array_equal(reference.row_offsets,
                          dictionary.batch.row_offsets)


# ----------------------------------------------------------------------
# Multi-channel serialization
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def multi_dictionary(engine):
    from repro.diagnosis import (
        compile_multi_fault_dictionary,
        search_second_signature,
    )

    single = compile_fault_dictionary(engine)
    search = search_second_signature(engine, single)
    assert search.best is not None  # the paper bench always splits
    return compile_multi_fault_dictionary(
        engine, [engine.config.encoder, search.best.encoder])


def test_multi_save_load_round_trip(multi_dictionary, tmp_path):
    from repro.diagnosis import MultiFaultDictionary

    path = multi_dictionary.save(tmp_path / "multi.npz")
    loaded = MultiFaultDictionary.load(
        path, encoders=multi_dictionary.encoders)
    assert loaded.num_channels == multi_dictionary.num_channels
    assert loaded.faults == multi_dictionary.faults
    assert loaded.encoders == multi_dictionary.encoders
    for k in range(multi_dictionary.num_channels):
        original = multi_dictionary.channel(k)
        restored = loaded.channel(k)
        assert np.array_equal(restored.batch.codes,
                              original.batch.codes)
        assert np.array_equal(restored.batch.durations,
                              original.batch.durations)
        assert np.array_equal(restored.batch.row_offsets,
                              original.batch.row_offsets)
        assert np.array_equal(restored.ndfs, original.ndfs)
        assert np.array_equal(restored.features, original.features)
        assert restored.num_bits == original.num_bits
        assert restored.threshold == original.threshold
        assert restored.golden_signature == original.golden_signature


def test_multi_load_without_encoders_uses_placeholders(
        multi_dictionary, tmp_path):
    from repro.diagnosis import MultiFaultDictionary

    path = multi_dictionary.save(tmp_path / "bare")
    assert path.endswith(".npz")
    loaded = MultiFaultDictionary.load(tmp_path / "bare")
    assert loaded.encoders \
        == [None] * multi_dictionary.num_channels
    # Matching only reads signature rows, so a bare load still
    # supports distance math.
    from repro.diagnosis import fault_distance_matrix

    matrix = fault_distance_matrix(loaded.channel(0), "ndf")
    assert matrix.shape == (len(loaded), len(loaded))


def test_multi_load_rejects_wrong_encoders(multi_dictionary,
                                           tmp_path):
    from repro.diagnosis import MultiFaultDictionary

    path = multi_dictionary.save(tmp_path / "multi.npz")
    with pytest.raises(ValueError, match="channels"):
        MultiFaultDictionary.load(
            path, encoders=list(multi_dictionary.encoders) * 2)
    with pytest.raises(ValueError, match="fingerprint"):
        MultiFaultDictionary.load(
            path,
            encoders=list(reversed(multi_dictionary.encoders)))


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_save_is_atomic(kind, dictionary, multi_dictionary, tmp_path,
                        monkeypatch):
    """A save that dies before its rename leaves the earlier file

    loadable and no temp file behind."""
    import os

    from repro.diagnosis import MultiFaultDictionary

    saved = dictionary if kind == "single" else multi_dictionary
    cls = FaultDictionary if kind == "single" else MultiFaultDictionary
    path = saved.save(tmp_path / "dictionary.npz")
    with open(path, "rb") as handle:
        before = handle.read()

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated"):
            saved.save(path)
    with open(path, "rb") as handle:
        assert handle.read() == before
    assert cls.load(path).labels == saved.labels
    assert sorted(os.listdir(tmp_path)) == ["dictionary.npz"]


def test_multi_load_strips_exact_channel_prefix(dictionary, tmp_path):
    """With eleven channels, ``ch1_`` must not pick up ``ch10_``."""
    from dataclasses import replace

    from repro.diagnosis import MultiFaultDictionary

    channels = [replace(dictionary, ndfs=dictionary.ndfs + k)
                for k in range(11)]
    multi = MultiFaultDictionary(channels, [None] * 11)
    loaded = MultiFaultDictionary.load(multi.save(tmp_path / "wide"))
    assert loaded.num_channels == 11
    for k in range(11):
        assert np.array_equal(loaded.channel(k).ndfs, channels[k].ndfs)
        assert np.array_equal(loaded.channel(k).batch.codes,
                              dictionary.batch.codes)
