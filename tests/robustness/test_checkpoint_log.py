"""Version-3 checkpoint logs: torn tails, flipped bytes, versions.

A checkpointed stream writes its log whole once and then appends one
CRC-checked record per save.  A crash can cut the log at any byte, and
a disk can flip one; neither may ever merge a wrong row.  A load keeps
the whole records in front of the damage, and resuming behind them is
bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import CheckpointMismatch, StreamCheckpoint
from repro.obs.logs import set_log_sink
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet

pytestmark = pytest.mark.campaign

KEY = "golden-key"
THRESHOLD = 0.25
#: The log's file header and a record's fixed header.
LOG_HEAD = struct.Struct("<8sI")
RECORD_HEAD = struct.Struct("<4sIIQ")


def _chunk(lo, n, channels):
    """A one-chunk record of dies ``[lo, lo + n)``."""
    record = StreamCheckpoint(KEY, THRESHOLD, start_index=lo)
    rows = np.arange(lo, lo + n) / 7.0
    values = rows if channels == 1 else \
        np.stack([rows * (k + 1) for k in range(channels)], axis=1)
    record.extend(values, rows * 0.1, -rows, [f"dé{i}" for i in
                                             range(lo, lo + n)],
                  {"ndf": 0.001 * n}, fallback_dies=n % 2)
    return record


def _chunks(sizes, channels=1):
    chunks, lo = [], 0
    for n in sizes:
        chunks.append(_chunk(lo, n, channels))
        lo += n
    return chunks


def _write_log(path, chunks, complete=True):
    """Save after every chunk (the first save writes, the rest append)
    and return the file size after each save."""
    state = StreamCheckpoint(KEY, THRESHOLD)
    ends = []
    for chunk in chunks:
        state.append(chunk)
        state.save(path)
        ends.append(os.path.getsize(path))
    if complete:
        state.complete = True
        state.save(path)
        ends.append(os.path.getsize(path))
    return ends


def _assert_same_rows(state, reference):
    empty = np.empty(0)
    for got, expected in ((state.values(empty), reference.values(empty)),
                          (state.f0_deviations(),
                           reference.f0_deviations()),
                          (state.q_deviations(), reference.q_deviations())):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    assert state.labels == reference.labels
    assert state.fallback_dies == reference.fallback_dies
    assert state.chunks_done == reference.chunks_done


@settings(max_examples=6, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=3, max_size=5),
       channels=st.sampled_from([1, 2]))
def test_truncated_log_resumes_bit_identical_at_every_offset(sizes,
                                                             channels):
    """Cut a 3-5-record log at every byte: a load keeps exactly the
    whole records in front of the cut (or refuses when none is whole),
    and folding the missing chunks behind it reproduces the
    uninterrupted state."""
    chunks = _chunks(sizes, channels)
    reference = StreamCheckpoint.merge(chunks)
    previous = set_log_sink(io.StringIO())
    try:
        with tempfile.TemporaryDirectory() as work:
            whole = os.path.join(work, "whole.npz")
            ends = _write_log(whole, chunks, complete=False)
            with open(whole, "rb") as handle:
                data = handle.read()
            cut_path = os.path.join(work, "cut.npz")
            for cut in range(len(data) + 1):
                with open(cut_path, "wb") as handle:
                    handle.write(data[:cut])
                whole_records = sum(1 for end in ends if end <= cut)
                if whole_records == 0:
                    with pytest.raises(ValueError):
                        StreamCheckpoint.load(cut_path)
                    resumed = StreamCheckpoint(KEY, THRESHOLD)
                else:
                    resumed = StreamCheckpoint.load(cut_path)
                    assert resumed.next_index == sum(
                        sizes[:whole_records])
                for chunk in chunks[whole_records:]:
                    resumed.append(chunk)
                _assert_same_rows(resumed, reference)
    finally:
        set_log_sink(previous)


@pytest.fixture(scope="module")
def engine():
    from repro.campaign import CampaignEngine
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_STIMULUS

    return CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=512)


#: Four chunks: a checkpointed stream over it writes five records.
FLEET = MonteCarloFleet(PAPER_BIQUAD, 14, sigma_f0=0.05, seed=11,
                        chunk_size=4)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fraction=st.floats(0.0, 1.0))
def test_engine_resume_behind_a_cut_log_is_bit_identical(engine,
                                                         fraction):
    """A checkpointed stream's log cut anywhere: rerunning the stream
    on it resumes behind the whole records (or restarts when none is
    whole) and returns the uninterrupted result."""
    reference = engine.run_stream(FLEET.chunks(0, len(FLEET)),
                                  band="auto")
    previous = set_log_sink(io.StringIO())
    try:
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "ck.npz")
            engine.run_stream(FLEET.chunks(0, len(FLEET)), band="auto",
                              checkpoint=path)
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(data[:int(fraction * len(data))])
            rerun = engine.run_stream(FLEET.chunks(0, len(FLEET)),
                                      band="auto", checkpoint=path)
            final = StreamCheckpoint.load(path)
    finally:
        set_log_sink(previous)
    np.testing.assert_array_equal(rerun.ndfs, reference.ndfs)
    np.testing.assert_array_equal(rerun.verdicts, reference.verdicts)
    np.testing.assert_array_equal(rerun.f0_deviations,
                                  reference.f0_deviations)
    np.testing.assert_array_equal(rerun.q_deviations,
                                  reference.q_deviations)
    assert rerun.labels == reference.labels
    assert final.complete and final.next_index == len(FLEET)


def test_every_flipped_byte_fails_its_records_crc():
    """Flip any bit, or a whole byte, of a record: the wire decoder
    refuses it; past the fixed header the CRC is what catches it."""
    data = _chunk(3, 4, 2).to_bytes()
    first = LOG_HEAD.size + RECORD_HEAD.size
    for offset in range(LOG_HEAD.size, len(data)):
        for mask in (0xFF, 1, 2, 4, 8, 16, 32, 64, 128):
            flipped = bytearray(data)
            flipped[offset] ^= mask
            with pytest.raises(ValueError) as refused:
                StreamCheckpoint.from_bytes(bytes(flipped))
            if offset >= first:
                assert "CRC" in str(refused.value)


def test_flipped_byte_mid_log_drops_from_its_record_on(tmp_path):
    """A load keeps the records before a damaged one and names the
    dies of the first record it drops."""
    chunks = _chunks([3, 2, 4, 1])
    path = str(tmp_path / "ck.npz")
    ends = _write_log(path, chunks)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[ends[2] - 5] ^= 0x01  # the third record's last label byte
    with open(path, "wb") as handle:
        handle.write(data)
    sink = io.StringIO()
    previous = set_log_sink(sink)
    try:
        loaded = StreamCheckpoint.load(path)
    finally:
        set_log_sink(previous)
    _assert_same_rows(loaded, StreamCheckpoint.merge(chunks[:2]))
    assert not loaded.complete
    event = json.loads(sink.getvalue())
    assert event["event"] == "checkpoint.tail_dropped"
    assert (event["kept_dies"], event["dropped_dies"],
            event["dropped_bytes"]) == (5, 4, len(data) - ends[1])
    with pytest.raises(ValueError, match="CRC"):
        StreamCheckpoint.from_bytes(bytes(data))


def _with_record_version(data, offset, version):
    """``data`` with the record at ``offset`` restamped as
    ``version``, its CRC recomputed."""
    data = bytearray(data)
    magic, __, header_len, body_len = RECORD_HEAD.unpack_from(data,
                                                              offset)
    RECORD_HEAD.pack_into(data, offset, magic, version, header_len,
                          body_len)
    crc_at = offset + RECORD_HEAD.size + header_len + body_len
    struct.pack_into("<I", data, crc_at, zlib.crc32(data[offset:crc_at]))
    return bytes(data)


def test_future_record_version_is_a_mismatch(tmp_path):
    """A whole record of another version is refused, on the wire and
    anywhere in a log, rather than read as damage or as version 3."""
    chunks = _chunks([2, 3])
    path = str(tmp_path / "ck.npz")
    ends = _write_log(path, chunks, complete=False)
    with open(path, "rb") as handle:
        data = handle.read()
    for offset in (LOG_HEAD.size, ends[0]):
        future = _with_record_version(data, offset, 4)
        with pytest.raises(CheckpointMismatch, match="version 4"):
            StreamCheckpoint.from_bytes(future)
        with open(path, "wb") as handle:
            handle.write(future)
        with pytest.raises(CheckpointMismatch, match="version 4"):
            StreamCheckpoint.load(path)


def test_first_save_after_a_resume_rewrites_the_log(tmp_path):
    """A loaded state's first save compacts the log into one record
    (dropping any torn tail); later saves append."""
    chunks = _chunks([2, 3, 1])
    path = str(tmp_path / "ck.npz")
    _write_log(path, chunks[:2], complete=False)
    with open(path, "ab") as handle:
        handle.write(b"RREC torn")
    previous = set_log_sink(io.StringIO())
    try:
        state = StreamCheckpoint.load(path)
    finally:
        set_log_sink(previous)
    state.save(path)
    with open(path, "rb") as handle:
        compacted = handle.read()
    assert compacted == state.to_bytes()
    state.append(chunks[2])
    state.save(path)
    with open(path, "rb") as handle:
        assert handle.read().startswith(compacted)
    _assert_same_rows(StreamCheckpoint.load(path),
                      StreamCheckpoint.merge(chunks))
