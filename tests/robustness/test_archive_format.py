"""The on-disk layout of every persisted archive, pinned.

Checkpoints, dictionary files and store payloads are each one ``.npz``
with a JSON meta member.  Files users have saved must keep loading, so
these tests read each kind back with plain ``np.load`` and assert the
member names and meta keys, independent of the package's own readers.
Every member is stored, not deflated; version-1 checkpoints, written
deflated with their labels in the meta, still load and resume.
"""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.campaign import CampaignEngine, GoldenCache, StreamCheckpoint
from repro.diagnosis import (
    compile_fault_dictionary,
    compile_multi_fault_dictionary,
)
from repro.filters.faults import catastrophic_fault_universe
from repro.monitor.configurations import table1_encoder
from repro.monitor.second_signature import candidate_by_name
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.shard import MonteCarloFleet
from repro.store import ArtifactStore
from repro.testing.faultinject import FaultInjected, inject

pytestmark = pytest.mark.campaign

DICTIONARY_ARRAYS = {"codes", "durations", "row_offsets", "periods",
                     "ndfs", "features", "golden_codes",
                     "golden_durations"}
DICTIONARY_META = {"num_bits", "period", "threshold", "faults"}
FAULT_ENTRY = {"kind", "target", "deviation"}


def _read(path, meta_name):
    with np.load(path, allow_pickle=False) as archive:
        members = set(archive.files)
        meta = json.loads(str(archive[meta_name]))
    return members, meta


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """A store-backed 256-sample engine plus one- and two-channel
    dictionaries over three faults."""
    store = ArtifactStore(str(tmp_path_factory.mktemp("store")))
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=256, cache=GoldenCache(store=store))
    faults = catastrophic_fault_universe()[:3]
    single = compile_fault_dictionary(engine, faults=faults)
    multi = compile_multi_fault_dictionary(
        engine, [table1_encoder(), candidate_by_name("bias-0.10").encoder],
        faults=faults)
    return store, single, multi


def test_checkpoint_layout(tmp_path):
    state = StreamCheckpoint("config-key", 0.25, start_index=4)
    state.extend(np.array([0.1, 0.2]), np.array([0.01, -0.02]),
                 np.array([0.0, 0.0]), ["die4", "die5"], {"ndf": 0.5})
    path = str(tmp_path / "campaign.npz")
    state.save(path)
    members, meta = _read(path, "meta")
    assert members == {"meta", "ndfs", "f0", "q", "labels"}
    assert set(meta) == {"version", "config_key", "threshold",
                         "start_index", "next_index", "timing",
                         "fallback_dies", "chunks_done", "complete"}
    assert meta["version"] == 2


def test_dictionary_file_layout(bench, tmp_path):
    __, single, __ = bench
    members, meta = _read(single.save(tmp_path / "dictionary"), "meta")
    assert members == {"meta"} | DICTIONARY_ARRAYS
    assert set(meta) == DICTIONARY_META
    assert all(set(entry) == FAULT_ENTRY for entry in meta["faults"])


def test_two_channel_dictionary_file_layout(bench, tmp_path):
    __, __, multi = bench
    members, meta = _read(multi.save(tmp_path / "multi"), "meta")
    assert members == {"meta"} | {f"ch{k}_{name}" for k in (0, 1)
                                  for name in DICTIONARY_ARRAYS}
    assert set(meta) == {"num_channels", "channels", "faults"}
    assert meta["num_channels"] == 2
    assert all(set(entry) == {"num_bits", "period", "threshold",
                              "encoder_fingerprint"}
               for entry in meta["channels"])
    assert all(set(entry) == FAULT_ENTRY for entry in meta["faults"])


def test_store_payload_layouts(bench):
    store, __, __ = bench
    with open(store.index_path, encoding="utf-8") as handle:
        index = json.load(handle)
    assert index["version"] == 1
    expected = {
        "golden": ({"times", "x", "y", "codes", "sig_codes",
                    "sig_durations"}, {"period"}),
        "calibration": ({"deviations", "ndfs"}, set()),
        "fault_dictionary": (DICTIONARY_ARRAYS, DICTIONARY_META),
    }
    kinds = set()
    for entry in index["entries"].values():
        arrays, meta_keys = expected[entry["kind"]]
        members, meta = _read(os.path.join(store.root, entry["file"]),
                              "__meta__")
        assert members == {"__meta__"} | arrays
        assert set(meta) == meta_keys
        kinds.add(entry["kind"])
    assert kinds == set(expected)


def test_every_archive_member_is_stored(bench, tmp_path):
    """Members are stored, not deflated, in every kind of archive."""
    store, single, multi = bench
    state = StreamCheckpoint("config-key", 0.25)
    state.extend(np.array([0.1]), np.array([0.01]), np.array([0.0]),
                 ["die0"], {})
    checkpoint = str(tmp_path / "campaign.npz")
    state.save(checkpoint)
    with open(store.index_path, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"].values()
    assert {entry["kind"] for entry in entries} == {
        "golden", "calibration", "fault_dictionary"}
    paths = [checkpoint, single.save(tmp_path / "dictionary"),
             multi.save(tmp_path / "multi")]
    paths += [os.path.join(store.root, entry["file"])
              for entry in entries]
    for path in paths:
        with zipfile.ZipFile(path) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_STORED}, path


#: Labels a JSON or fixed-width string codec could mangle.
ODD_LABELS = ["line\nbreak", "trailing nul\x00", "",
              "ünïcødé — ✓ \U0001f600", 'quote " back\\slash \'',
              "lone \ud800 surrogate"]


def _labelled(start, labels):
    state = StreamCheckpoint("config-key", 0.25, start_index=start)
    n = len(labels)
    state.extend(np.arange(n) / 10.0, np.zeros(n), np.zeros(n),
                 list(labels), {})
    return state


def test_labels_round_trip_exactly(tmp_path):
    whole = _labelled(0, ODD_LABELS)
    path = str(tmp_path / "labels.npz")
    whole.save(path)
    assert StreamCheckpoint.load(path).labels == ODD_LABELS
    assert StreamCheckpoint.from_bytes(whole.to_bytes()).labels \
        == ODD_LABELS
    parts = [StreamCheckpoint.from_bytes(part.to_bytes()) for part in
             (_labelled(3, ODD_LABELS[3:]), _labelled(0, ODD_LABELS[:3]))]
    merged = StreamCheckpoint.merge(parts)
    assert merged.labels == ODD_LABELS
    assert StreamCheckpoint.from_bytes(merged.to_bytes()).labels \
        == ODD_LABELS


def _save_version1(path, state):
    """Write ``state`` as a version-1 checkpoint: labels inside the
    JSON meta, members deflated by plain ``np.savez_compressed``."""
    meta = {"version": 1, "config_key": state.config_key,
            "threshold": state.threshold,
            "start_index": state.start_index,
            "next_index": state.next_index, "labels": state.labels,
            "timing": state.timing, "fallback_dies": state.fallback_dies,
            "chunks_done": state.chunks_done,
            "complete": state.complete}
    np.savez_compressed(path, meta=np.asarray(json.dumps(meta)),
                        ndfs=state.values(np.empty(0)),
                        f0=state.f0_deviations(), q=state.q_deviations())


def test_version1_checkpoint_resumes_and_merges(small_engine, tmp_path):
    """A version-1 checkpoint loads, resumes its stream and merges
    with a version-2 part, bit-identical to an uninterrupted run."""
    dies, chunk = 64, 16
    fleet = MonteCarloFleet(PAPER_BIQUAD, dies, sigma_f0=0.05, seed=9,
                            chunk_size=chunk)
    reference = small_engine.run_stream(fleet.chunks(0, dies),
                                        band="auto")
    band, half = reference.threshold, dies // 2
    old = str(tmp_path / "v1.npz")
    with inject("stream.chunk.crash", times=1):
        with pytest.raises(FaultInjected):
            small_engine.run_stream(fleet.chunks(0, half), band=band,
                                    checkpoint=old)
    partial = StreamCheckpoint.load(old)
    _save_version1(old, partial)
    members, meta = _read(old, "meta")
    assert members == {"meta", "ndfs", "f0", "q"}
    assert meta["version"] == 1 and meta["labels"] == partial.labels
    loaded = StreamCheckpoint.load(old)
    assert loaded.labels == partial.labels
    assert loaded.next_index == chunk
    small_engine.resume(old, fleet.chunks(chunk, half), band=band,
                        stream_offset=chunk)
    new = str(tmp_path / "v2.npz")
    small_engine.run_stream(fleet.chunks(half, dies), band=band,
                            checkpoint=new, stream_offset=half)
    merged = StreamCheckpoint.merge([StreamCheckpoint.load(new),
                                     StreamCheckpoint.load(old)])
    assert merged.complete
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    np.testing.assert_array_equal(merged.f0_deviations(),
                                  reference.f0_deviations)
    np.testing.assert_array_equal(merged.q_deviations(),
                                  reference.q_deviations)
    assert merged.labels == list(reference.labels)
