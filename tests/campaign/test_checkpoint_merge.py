"""StreamCheckpoint.merge edge cases and checkpoint diagnostics.

The merge is pure array bookkeeping, so these tests build synthetic
parts directly; end-to-end bit-identity of merged *campaign results*
(real engine, subprocess workers) is proven by ``tests/shard/``.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest

from repro.campaign.checkpoint import (
    CheckpointMismatch,
    StreamCheckpoint,
)
from repro.obs.logs import set_log_sink
from repro.obs.metrics import default_registry
from repro.store import pack_archive

pytestmark = pytest.mark.campaign

KEY = "golden-key"
THRESHOLD = 0.25


def _part(lo, values, complete=True, key=KEY, threshold=THRESHOLD):
    """A checkpoint covering dies [lo, lo + len(values))."""
    part = StreamCheckpoint(key, threshold, start_index=lo)
    if values:
        data = np.asarray(values, dtype=float)
        part.extend(data, data * 0.1, data * 0.0,
                    [f"die{lo + i:05d}" for i in range(len(values))],
                    {"ndf": 0.001 * len(values)})
    part.complete = complete
    return part


def _monolithic(values):
    return _part(0, values)


def test_merge_is_bit_identical_to_monolithic():
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    merged = StreamCheckpoint.merge([
        _part(0, values[:3]), _part(3, values[3:5]),
        _part(5, values[5:])])
    reference = _monolithic(values)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.values(np.empty(0)))
    np.testing.assert_array_equal(merged.f0_deviations(),
                                  reference.f0_deviations())
    assert merged.labels == reference.labels
    assert merged.start_index == 0
    assert merged.next_index == 7
    assert merged.complete


def test_merge_out_of_order_arrival():
    parts = [_part(5, [0.6, 0.7]), _part(0, [0.1, 0.2, 0.3]),
             _part(3, [0.4, 0.5])]
    merged = StreamCheckpoint.merge(parts)
    assert merged.labels == [f"die{i:05d}" for i in range(7)]
    np.testing.assert_array_equal(
        merged.values(np.empty(0)),
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])


def test_merge_single_die_and_empty_shards():
    merged = StreamCheckpoint.merge([
        _part(0, [0.1]),          # single-die shard
        _part(1, []),             # empty shard at an interior edge
        _part(1, [0.2, 0.3])])
    assert merged.num_dies == 3
    assert merged.next_index == 3
    assert merged.chunks_done == 2  # empty part contributed none


def test_merge_single_part_is_identity():
    part = _part(4, [0.9, 0.8])
    merged = StreamCheckpoint.merge([part])
    assert merged.start_index == 4
    assert merged.labels == part.labels
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  part.values(np.empty(0)))


def test_merge_of_merges_is_associative():
    values = list(np.linspace(0.0, 1.0, 10))
    quarters = [_part(0, values[:2]), _part(2, values[2:5]),
                _part(5, values[5:6]), _part(6, values[6:])]
    left = StreamCheckpoint.merge([
        StreamCheckpoint.merge(quarters[:2]),
        StreamCheckpoint.merge(quarters[2:])])
    right = StreamCheckpoint.merge([
        quarters[0], StreamCheckpoint.merge(quarters[1:])])
    flat = StreamCheckpoint.merge(quarters)
    for merged in (left, right):
        np.testing.assert_array_equal(merged.values(np.empty(0)),
                                      flat.values(np.empty(0)))
        assert merged.labels == flat.labels
        assert merged.timing == flat.timing
        assert merged.chunks_done == flat.chunks_done


def test_merge_rejects_overlap_and_gap():
    with pytest.raises(ValueError, match="overlap"):
        StreamCheckpoint.merge([_part(0, [0.1, 0.2]),
                                _part(1, [0.3])])
    with pytest.raises(ValueError, match="gap"):
        StreamCheckpoint.merge([_part(0, [0.1]), _part(3, [0.4])])
    with pytest.raises(ValueError, match="nothing to merge"):
        StreamCheckpoint.merge([])


def test_merge_rejects_mismatched_parts():
    with pytest.raises(CheckpointMismatch):
        StreamCheckpoint.merge([_part(0, [0.1]),
                                _part(1, [0.2], key="other-key")])
    with pytest.raises(CheckpointMismatch):
        StreamCheckpoint.merge([_part(0, [0.1]),
                                _part(1, [0.2], threshold=0.9)])


def test_merge_incomplete_part_marks_merge_incomplete():
    merged = StreamCheckpoint.merge([
        _part(0, [0.1]), _part(1, [0.2], complete=False)])
    assert not merged.complete


def test_merge_roundtrips_through_save_load(tmp_path):
    parts = [_part(0, [0.1, 0.2]), _part(2, [0.3])]
    paths = []
    for i, part in enumerate(parts):
        path = str(tmp_path / f"part{i}.npz")
        part.save(path)
        paths.append(path)
    merged = StreamCheckpoint.merge(
        [StreamCheckpoint.load(p) for p in paths])
    reference = StreamCheckpoint.merge(parts)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.values(np.empty(0)))
    assert merged.labels == reference.labels
    assert merged.start_index == 0


def test_start_index_persists_and_validates(tmp_path):
    part = _part(7, [0.5, 0.6])
    path = str(tmp_path / "shard.npz")
    part.save(path)
    loaded = StreamCheckpoint.load(path)
    assert loaded.start_index == 7
    assert loaded.next_index == 9
    with pytest.raises(ValueError):
        StreamCheckpoint(KEY, THRESHOLD, start_index=-1)


def test_mismatch_messages_name_both_sides():
    part = _part(0, [0.1])
    with pytest.raises(CheckpointMismatch) as config_error:
        part.validate("other-key", THRESHOLD)
    assert "other-key" in str(config_error.value)
    assert KEY in str(config_error.value)
    with pytest.raises(CheckpointMismatch) as band_error:
        part.validate(KEY, 0.75)
    assert "0.75" in str(band_error.value)
    assert str(THRESHOLD) in str(band_error.value)


def test_load_if_valid_logs_structured_degrade(tmp_path):
    path = tmp_path / "torn.npz"
    path.write_bytes(b"this is not an npz archive")
    sink = io.StringIO()
    before = default_registry().counter(
        "checkpoint_invalid_total").value
    previous = set_log_sink(sink)
    try:
        assert StreamCheckpoint.load_if_valid(str(path)) is None
    finally:
        set_log_sink(previous)
    logged = sink.getvalue()
    assert "checkpoint.invalid" in logged
    assert "restart-from-zero" in logged
    assert default_registry().counter(
        "checkpoint_invalid_total").value == before + 1
    # A missing checkpoint is the normal first run: silent.
    sink2 = io.StringIO()
    previous = set_log_sink(sink2)
    try:
        assert StreamCheckpoint.load_if_valid(
            str(tmp_path / "absent.npz")) is None
    finally:
        set_log_sink(previous)
    assert sink2.getvalue() == ""


def test_to_bytes_from_bytes_round_trips_without_a_filesystem():
    """Shard workers send their rows home as inline bytes: the bytes
    round-trip must preserve every field save()/load() does."""
    part = _part(5, [0.1, 0.2, 0.3], complete=False)
    clone = StreamCheckpoint.from_bytes(part.to_bytes())
    np.testing.assert_array_equal(clone.values(np.empty(0)),
                                  part.values(np.empty(0)))
    np.testing.assert_array_equal(clone.f0_deviations(),
                                  part.f0_deviations())
    assert clone.labels == part.labels
    assert clone.start_index == 5
    assert clone.next_index == 8
    assert clone.complete is False
    assert clone.config_key == part.config_key
    assert clone.threshold == part.threshold
    assert clone.timing == part.timing


def test_to_bytes_equals_saved_file_bytes(tmp_path):
    """save() is exactly to_bytes() behind an atomic write: what a
    shard worker sends home inline is byte-for-byte what a save
    leaves on disk."""
    part = _part(0, [0.4, 0.5])
    path = str(tmp_path / "ck.npz")
    part.save(path)
    with open(path, "rb") as fh:
        on_disk = fh.read()
    assert part.to_bytes() == on_disk


def test_from_bytes_rejects_version_mismatch(tmp_path):
    # A checkpoint from "the future" must refuse to load, whether it
    # came from disk or over the wire, as an archive or as a log.
    part = _part(0, [0.1])
    meta = {"version": 999, "config_key": KEY, "threshold": THRESHOLD,
            "start_index": 0, "next_index": 1, "timing": {},
            "fallback_dies": 0, "chunks_done": 1, "complete": True}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, meta=np.asarray(json.dumps(meta)),
                        ndfs=np.array([0.1]), f0=np.array([0.01]),
                        q=np.array([0.0]),
                        labels=np.frombuffer(b'["die00000"]',
                                             dtype=np.uint8))
    future_log = bytearray(part.to_bytes())
    struct.pack_into("<I", future_log, 8, 999)
    path = str(tmp_path / "future.npz")
    for data in (buffer.getvalue(), bytes(future_log)):
        with pytest.raises(CheckpointMismatch, match="version"):
            StreamCheckpoint.from_bytes(data)
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(CheckpointMismatch, match="version"):
            StreamCheckpoint.load(path)


def _misaligned_archive():
    """A version-2 record with 3 NDF rows, 2 f0, 1 q and 2 labels."""
    meta = {"version": 2, "config_key": KEY, "threshold": THRESHOLD,
            "start_index": 0, "next_index": 2, "timing": {},
            "fallback_dies": 0, "chunks_done": 1, "complete": False}
    labels = np.frombuffer(json.dumps(["die0", "die1"]).encode("utf-8"),
                           dtype=np.uint8)
    return pack_archive({"ndfs": np.array([0.1, 0.2, 0.3]),
                         "f0": np.array([0.01, 0.02]),
                         "q": np.array([0.0]), "labels": labels},
                        meta, "meta")


def _misaligned_log():
    """The same rows as a version-3 record."""
    record = StreamCheckpoint(KEY, THRESHOLD)
    record.value_parts = [np.array([0.1, 0.2, 0.3])]
    record.f0_parts = [np.array([0.01, 0.02])]
    record.q_parts = [np.array([0.0])]
    record.labels = ["die0", "die1"]
    return record.to_bytes()


@pytest.mark.parametrize("data", [_misaligned_archive(), _misaligned_log()],
                         ids=["v2", "v3"])
def test_from_bytes_refuses_rows_that_disagree_in_length(data):
    """A record whose NDF rows, deviations and labels disagree would
    misalign a merge: refused, never appended."""
    with pytest.raises(ValueError, match="disagree"):
        StreamCheckpoint.from_bytes(data)
