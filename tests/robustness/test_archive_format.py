"""The on-disk layout of every persisted file, pinned.

Dictionary files and store payloads are each one ``.npz`` with a JSON
meta member; a checkpoint is a version-3 log of flat row records.
Files users have saved must keep loading, so these tests read each
kind back with plain ``np.load`` (or ``struct``, ``zlib`` and ``json``
for the log) and assert the member names and meta keys, independent
of the package's own readers.  Every archive member is stored, not
deflated; version-1 checkpoints, written deflated with their labels
in the meta, and version-2 ones still load and resume.
"""

import json
import os
import struct
import zipfile
import zlib

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
from repro.store import ArtifactStore, pack_archive
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


#: Version 3: the log's file header, then per record a fixed header
#: (magic, version, JSON header length, body length) and a CRC32 after
#: the body.
LOG_HEAD = struct.Struct("<8sI")
RECORD_HEAD = struct.Struct("<4sIIQ")
RECORD_META = {"config_key", "threshold", "start_index", "dies", "shape",
               "label_bytes", "timing", "fallback_dies", "chunks_done",
               "complete"}


def _read_log(path):
    """Every record of a version-3 log as ``(meta, ndfs, f0, q,
    labels)``, checking each CRC and each length."""
    with open(path, "rb") as handle:
        data = handle.read()
    magic, version = LOG_HEAD.unpack_from(data)
    assert (magic, version) == (b"RPROCKPT", 3)
    offset, records = LOG_HEAD.size, []
    while offset < len(data):
        magic, version, header_len, body_len = \
            RECORD_HEAD.unpack_from(data, offset)
        assert (magic, version) == (b"RREC", 3)
        body = offset + RECORD_HEAD.size + header_len
        end = body + body_len
        (crc,) = struct.unpack_from("<I", data, end)
        assert zlib.crc32(data[offset:end]) == crc
        meta = json.loads(data[body - header_len:body])
        n, cells = meta["dies"], int(np.prod(meta["shape"]))
        floats = np.frombuffer(data[body:body + 8 * (cells + 2 * n)],
                               dtype="<f8")
        labels = json.loads(data[body + 8 * (cells + 2 * n):end])
        records.append((meta, floats[:cells].reshape(meta["shape"]),
                        floats[cells:cells + n], floats[cells + n:],
                        labels))
        offset = end + 4
    return records


def test_checkpoint_layout(tmp_path):
    """A first save writes one record of the whole state; each later
    save appends one record of the rows folded since."""
    state = StreamCheckpoint("config-key", 0.25, start_index=4)
    state.extend(np.array([0.1, 0.2]), np.array([0.01, -0.02]),
                 np.array([0.0, 0.0]), ["die4", "die5"], {"ndf": 0.5})
    path = str(tmp_path / "campaign.npz")
    state.save(path)
    state.extend(np.array([0.3]), np.array([0.03]), np.array([0.1]),
                 ["die6"], {"ndf": 0.25}, fallback_dies=1)
    state.complete = True
    state.save(path)
    (first, ndfs, f0, q, labels), (second, *rows) = _read_log(path)
    assert set(first) == set(second) == RECORD_META
    assert (first["start_index"], first["dies"], first["shape"]) == \
        (4, 2, [2])
    assert (first["chunks_done"], first["complete"]) == (1, False)
    np.testing.assert_array_equal(ndfs, [0.1, 0.2])
    np.testing.assert_array_equal(f0, [0.01, -0.02])
    np.testing.assert_array_equal(q, [0.0, 0.0])
    assert labels == ["die4", "die5"]
    assert (second["start_index"], second["dies"], second["shape"]) == \
        (6, 1, [1])
    assert (second["timing"], second["fallback_dies"],
            second["chunks_done"], second["complete"]) == \
        ({"ndf": 0.25}, 1, 1, True)
    assert [row.tolist() for row in rows[:3]] == [[0.3], [0.03], [0.1]]
    assert rows[3] == ["die6"]


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
    """Members are stored, not deflated, in every kind of archive
    (checkpoints are logs, not archives, since version 3)."""
    store, single, multi = bench
    with open(store.index_path, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"].values()
    assert {entry["kind"] for entry in entries} == {
        "golden", "calibration", "fault_dictionary"}
    paths = [single.save(tmp_path / "dictionary"),
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


def _archive_meta(state, version):
    return {"version": version, "config_key": state.config_key,
            "threshold": state.threshold,
            "start_index": state.start_index,
            "next_index": state.next_index, "timing": state.timing,
            "fallback_dies": state.fallback_dies,
            "chunks_done": state.chunks_done,
            "complete": state.complete}


def _save_version1(path, state):
    """Write ``state`` as a version-1 checkpoint: labels inside the
    JSON meta, members deflated by plain ``np.savez_compressed``."""
    meta = dict(_archive_meta(state, 1), labels=state.labels)
    np.savez_compressed(path, meta=np.asarray(json.dumps(meta)),
                        ndfs=state.values(np.empty(0)),
                        f0=state.f0_deviations(), q=state.q_deviations())


def _save_version2(path, state):
    """Write ``state`` as a version-2 checkpoint: a stored archive
    whose ``labels`` member holds the UTF-8 bytes of a JSON list."""
    labels = np.frombuffer(json.dumps(state.labels).encode("utf-8"),
                           dtype=np.uint8)
    with open(path, "wb") as handle:
        handle.write(pack_archive(
            {"ndfs": state.values(np.empty(0)),
             "f0": state.f0_deviations(), "q": state.q_deviations(),
             "labels": labels}, _archive_meta(state, 2), "meta"))


def _old_checkpoint_resumes_and_merges(engine, tmp_path, version):
    """A checkpoint of an older ``version`` loads, resumes its stream
    (the first save rewrites it as a log) and merges with a log part,
    bit-identical to an uninterrupted run."""
    dies, chunk = 64, 16
    fleet = MonteCarloFleet(PAPER_BIQUAD, dies, sigma_f0=0.05, seed=9,
                            chunk_size=chunk)
    reference = engine.run_stream(fleet.chunks(0, dies), band="auto")
    band, half = reference.threshold, dies // 2
    old = str(tmp_path / f"v{version}.npz")
    with inject("stream.chunk.crash", times=1):
        with pytest.raises(FaultInjected):
            engine.run_stream(fleet.chunks(0, half), band=band,
                              checkpoint=old)
    partial = StreamCheckpoint.load(old)
    {1: _save_version1, 2: _save_version2}[version](old, partial)
    members, meta = _read(old, "meta")
    assert meta["version"] == version
    loaded = StreamCheckpoint.load(old)
    assert loaded.labels == partial.labels
    assert loaded.next_index == chunk
    engine.resume(old, fleet.chunks(0, half), band=band)
    tail = engine.run_stream(fleet.chunks(half, dies), band=band)
    part = StreamCheckpoint(engine.config.checkpoint_key(), band,
                            start_index=half)
    part.extend(tail.ndfs, tail.f0_deviations, tail.q_deviations,
                tail.labels, {})
    part.complete = True
    new = str(tmp_path / "v3.npz")
    part.save(new)
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
    return members, meta, partial


def test_version1_checkpoint_resumes_and_merges(small_engine, tmp_path):
    members, meta, partial = _old_checkpoint_resumes_and_merges(
        small_engine, tmp_path, 1)
    assert members == {"meta", "ndfs", "f0", "q"}
    assert meta["labels"] == partial.labels


def test_version2_checkpoint_resumes_and_merges(small_engine, tmp_path):
    members, meta, __ = _old_checkpoint_resumes_and_merges(
        small_engine, tmp_path, 2)
    assert members == {"meta", "ndfs", "f0", "q", "labels"}
    assert "labels" not in meta
