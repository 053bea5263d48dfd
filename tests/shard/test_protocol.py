"""The coordinator <-> worker wire: framing and payload round-trips."""

from __future__ import annotations

import json

import pytest

from repro.campaign.checkpoint import StreamCheckpoint
from repro.shard.protocol import (
    assign_message,
    decode_message,
    encode_message,
    init_message,
    pack_payload,
    progress_message,
    shutdown_message,
    unpack_payload,
    unpack_rows,
)


def test_encode_decode_roundtrip():
    message = {"type": "progress", "shard": 3, "campaign": "c1"}
    line = encode_message(message)
    assert "\n" not in line
    assert decode_message(line) == message


def test_decode_rejects_junk():
    with pytest.raises(ValueError):
        decode_message("not json at all {")
    with pytest.raises(ValueError):
        decode_message(json.dumps(["a", "list"]))
    with pytest.raises(ValueError):
        decode_message(json.dumps({"no": "type"}))


def test_payload_roundtrip():
    payload = {"nested": [1, 2, 3], "text": "x" * 100}
    packed = pack_payload(payload)
    assert packed.isascii()
    assert unpack_payload(packed) == payload


def test_init_message_shape():
    message = init_message({"cfg": True}, 0.05, ("fleet",), 7.5,
                           {"trace_id": "t", "parent_span_id": 9}, "c1")
    line = encode_message(message)  # must be JSON-serializable
    decoded = decode_message(line)
    assert set(decoded) == {"type", "config_b64", "threshold",
                            "fleet_b64", "heartbeat", "trace",
                            "campaign"}
    assert decoded["type"] == "init"
    assert decoded["campaign"] == "c1"
    assert decoded["threshold"] == 0.05
    assert decoded["heartbeat"] == 7.5
    assert decoded["trace"]["parent_span_id"] == 9
    assert unpack_payload(decoded["config_b64"]) == {"cfg": True}
    assert unpack_payload(decoded["fleet_b64"]) == ("fleet",)


def test_init_message_without_trace():
    message = init_message({}, None, None, 5.0, None, "c1")
    decoded = decode_message(encode_message(message))
    assert decoded["trace"] is None
    assert decoded["threshold"] is None


def test_assign_and_shutdown_shapes():
    assign = decode_message(encode_message(
        assign_message(2, 100, 250, 164)))
    assert assign == {"type": "assign", "shard": 2, "lo": 100,
                      "hi": 250, "resume_at": 164}
    assert decode_message(encode_message(shutdown_message())) == \
        {"type": "shutdown"}


def test_progress_carries_a_one_chunk_archive():
    """A ``progress`` line's rows decode to the record that was sent,
    byte for byte."""
    record = StreamCheckpoint("key", 0.05, start_index=256)
    record.extend([0.1, 0.2, 0.3], [0.01, 0.02, 0.03], [0.0] * 3,
                  ["die256", "die257", "die258"], {"ndf": 0.5},
                  fallback_dies=1)
    decoded = decode_message(encode_message(
        progress_message(7, "c1", record.to_bytes())))
    assert set(decoded) == {"type", "shard", "campaign", "rows_b64"}
    assert decoded["shard"] == 7 and decoded["campaign"] == "c1"
    rows = unpack_rows(decoded)
    assert rows == record.to_bytes()
    clone = StreamCheckpoint.from_bytes(rows)
    assert (clone.start_index, clone.next_index) == (256, 259)
    assert clone.labels == record.labels
    assert clone.fallback_dies == 1


def test_unpack_rows_rejects_junk():
    with pytest.raises(ValueError):
        unpack_rows({"type": "progress", "rows_b64": "not base64 !"})
    with pytest.raises(KeyError):
        unpack_rows({"type": "progress"})


def test_a_shards_last_record_carries_the_spans():
    decoded = decode_message(encode_message(
        progress_message(3, "c1", b"rows",
                         [{"name": "shard.worker.run"}])))
    assert set(decoded) == {"type", "shard", "campaign", "rows_b64",
                            "spans"}
    assert decoded["spans"] == [{"name": "shard.worker.run"}]
    assert unpack_rows(decoded) == b"rows"
