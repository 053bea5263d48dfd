"""Checkpointed streamed campaigns: kill anywhere, resume bit-identical."""

import io
import json
import os

import numpy as np
import pytest

from repro.campaign import (
    CheckpointMismatch,
    StreamCheckpoint,
    seed_children,
    montecarlo_dies,
    stream_montecarlo_dies,
)
from repro.obs.logs import set_log_sink
from repro.obs.trace import tracing
from repro.testing.faultinject import FaultInjected, inject

pytestmark = pytest.mark.campaign

DIES = 60
CHUNK = 16  # -> chunks of 16/16/16/12


def _chunks(start=0, chunk=CHUNK):
    from repro.paper import PAPER_BIQUAD

    return stream_montecarlo_dies(PAPER_BIQUAD, DIES, chunk_size=chunk,
                                  sigma_f0=0.05, seed=9, start=start)


def _assert_identical(result, reference):
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    np.testing.assert_array_equal(result.verdicts, reference.verdicts)
    np.testing.assert_array_equal(result.f0_deviations,
                                  reference.f0_deviations)
    np.testing.assert_array_equal(result.q_deviations,
                                  reference.q_deviations)
    assert result.labels == reference.labels
    assert result.threshold == reference.threshold


# ----------------------------------------------------------------------
# The seeding property the whole scheme rests on
# ----------------------------------------------------------------------
def test_seed_children_match_spawn_numbering():
    root = np.random.SeedSequence(123)
    spawned = root.spawn(7)
    rebuilt = seed_children(123, 3, 7)
    for child, expected in zip(rebuilt, spawned[3:]):
        assert np.random.default_rng(child).random() == \
            np.random.default_rng(expected).random()


def test_stream_start_matches_monolithic_tail():
    from repro.paper import PAPER_BIQUAD

    whole = montecarlo_dies(PAPER_BIQUAD, DIES, sigma_f0=0.05, seed=9)
    tail_chunks = list(_chunks(start=17))
    tail_f0 = np.concatenate([c.f0_deviations for c in tail_chunks])
    tail_labels = [label for c in tail_chunks for label in c.labels]
    np.testing.assert_array_equal(tail_f0, whole.f0_deviations[17:])
    assert tail_labels == whole.labels[17:]


# ----------------------------------------------------------------------
# Kill + resume at every interesting point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("crash_after_chunks", [1, 2, 3])
def test_resume_is_bit_identical(small_engine, tmp_path,
                                 crash_after_chunks):
    ck = str(tmp_path / "campaign.npz")
    reference = small_engine.run_stream(_chunks(), band="auto")

    with inject("stream.chunk.crash", times=1,
                after=crash_after_chunks - 1):
        with pytest.raises(FaultInjected):
            small_engine.run_stream(_chunks(), band="auto",
                                    checkpoint=ck)
    partial = StreamCheckpoint.load(ck)
    assert partial.next_index == crash_after_chunks * CHUNK
    assert not partial.complete

    resumed = small_engine.resume(ck, _chunks())
    _assert_identical(resumed, reference)
    final = StreamCheckpoint.load(ck)
    assert final.complete
    assert final.next_index == DIES


def test_resume_with_mid_fleet_stream(small_engine, tmp_path):
    """A crashed stream's checkpoint, continued with the rows of a
    stream rebuilt from its next index (instead of replayed from die
    0) as one record, holds the uninterrupted run's rows too."""
    ck = str(tmp_path / "campaign.npz")
    reference = small_engine.run_stream(_chunks(), band="auto")
    with inject("stream.chunk.crash", times=1, after=1):
        with pytest.raises(FaultInjected):
            small_engine.run_stream(_chunks(), band="auto",
                                    checkpoint=ck)
    state = StreamCheckpoint.load(ck)
    tail = small_engine.run_stream(_chunks(start=state.next_index),
                                   band="auto")
    rest = StreamCheckpoint(small_engine.config.checkpoint_key(),
                            tail.threshold, start_index=state.next_index)
    rest.extend(tail.ndfs, tail.f0_deviations, tail.q_deviations,
                tail.labels, {})
    state.append(rest)
    np.testing.assert_array_equal(state.values(np.empty(0)),
                                  reference.ndfs)
    np.testing.assert_array_equal(state.f0_deviations(),
                                  reference.f0_deviations)
    np.testing.assert_array_equal(state.q_deviations(),
                                  reference.q_deviations)
    assert state.labels == reference.labels


def test_resume_across_different_chunk_size(small_engine, tmp_path):
    """Chunk boundaries are not part of the checkpoint contract: the

    resumed stream may re-chunk the remaining dies differently."""
    ck = str(tmp_path / "campaign.npz")
    reference = small_engine.run_stream(_chunks(), band="auto")
    with inject("stream.chunk.crash", times=1, after=1):
        with pytest.raises(FaultInjected):
            small_engine.run_stream(_chunks(), band="auto",
                                    checkpoint=ck)
    resumed = small_engine.resume(ck, _chunks(chunk=7))
    _assert_identical(resumed, reference)


def test_crash_mid_checkpoint_write_restarts_cleanly(small_engine,
                                                     tmp_path):
    """A torn append drops only the torn record: the next run resumes

    behind the whole records, rewrites the log, and still matches."""
    ck = str(tmp_path / "campaign.npz")
    reference = small_engine.run_stream(_chunks(), band="auto")
    # The first save writes the log whole; the second, the first
    # append, tears, and the stream dies right after it.
    with inject("checkpoint.write.tear", times=1):
        with inject("stream.chunk.crash", times=1, after=1):
            with pytest.raises(FaultInjected):
                small_engine.run_stream(_chunks(), band="auto",
                                        checkpoint=ck)
    sink = io.StringIO()
    previous = set_log_sink(sink)
    try:
        partial = StreamCheckpoint.load_if_valid(ck)
    finally:
        set_log_sink(previous)
    assert partial.next_index == CHUNK and not partial.complete
    event = json.loads(sink.getvalue())
    assert event["event"] == "checkpoint.tail_dropped"
    assert (event["kept_dies"], event["dropped_dies"]) == (CHUNK, CHUNK)
    with tracing() as tracer:
        rerun = small_engine.run_stream(_chunks(), band="auto",
                                        checkpoint=ck)
    _assert_identical(rerun, reference)
    screened = sum(record.attributes["dies"] for record in tracer.records()
                   if record.name == "stage.ndf")
    assert screened == DIES - CHUNK
    final = StreamCheckpoint.load(ck)
    assert final.complete and final.next_index == DIES


def test_completed_checkpoint_short_circuits(small_engine, tmp_path):
    ck = str(tmp_path / "campaign.npz")
    reference = small_engine.run_stream(_chunks(), band="auto",
                                        checkpoint=ck)
    assert StreamCheckpoint.load(ck).complete
    # Submitting again replays the persisted stats without screening.
    before = small_engine.cache.info.requests
    again = small_engine.run_stream(iter(()), band="auto",
                                    checkpoint=ck)
    _assert_identical(again, reference)
    assert small_engine.cache.info.requests >= before


def test_resume_requires_existing_checkpoint(small_engine, tmp_path):
    with pytest.raises(FileNotFoundError):
        small_engine.resume(str(tmp_path / "missing.npz"), _chunks())


def test_resume_refuses_an_unparseable_checkpoint(small_engine, tmp_path):
    ck = tmp_path / "campaign.npz"
    ck.write_bytes(b"RPROCKPT")  # a log torn inside its file header
    with pytest.raises(ValueError):
        small_engine.resume(str(ck), _chunks())


def test_resume_decodes_a_torn_log_once(small_engine, tmp_path):
    """``resume`` loads its checkpoint once: a torn tail is reported
    once, and the resumed run is still bit-identical."""
    from repro.paper import PAPER_BIQUAD

    def chunks():
        return stream_montecarlo_dies(PAPER_BIQUAD, 48, chunk_size=12,
                                      sigma_f0=0.05, seed=9)

    ck = str(tmp_path / "campaign.npz")
    reference = small_engine.run_stream(chunks(), band="auto")
    with inject("stream.chunk.crash", times=1, after=2):
        with pytest.raises(FaultInjected):
            small_engine.run_stream(chunks(), band="auto", checkpoint=ck)
    with open(ck, "r+b") as handle:
        handle.truncate(os.path.getsize(ck) - 200)
    sink = io.StringIO()
    previous = set_log_sink(sink)
    try:
        resumed = small_engine.resume(ck, chunks())
    finally:
        set_log_sink(previous)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    dropped = [e for e in events
               if e["event"] == "checkpoint.tail_dropped"]
    assert len(dropped) == 1
    assert (dropped[0]["kept_dies"], dropped[0]["dropped_dies"]) \
        == (24, 12)
    _assert_identical(resumed, reference)


def test_checkpoint_rejects_other_configuration(small_engine, tmp_path):
    ck = str(tmp_path / "campaign.npz")
    state = StreamCheckpoint("other-config-key", threshold=0.25)
    state.save(ck)
    with pytest.raises(CheckpointMismatch):
        small_engine.resume(ck, _chunks())


def test_checkpoint_rejects_other_threshold(small_engine, tmp_path):
    ck = str(tmp_path / "campaign.npz")
    with inject("stream.chunk.crash", times=1):
        with pytest.raises(FaultInjected):
            small_engine.run_stream(_chunks(), band="auto",
                                    checkpoint=ck)
    with pytest.raises(CheckpointMismatch):
        small_engine.resume(ck, _chunks(), band=0.9)


def test_checkpointed_stream_rejects_keep_signatures(small_engine,
                                                     tmp_path):
    with pytest.raises(ValueError, match="keep"):
        small_engine.run_stream(_chunks(), band="auto",
                                keep_signatures=True,
                                checkpoint=str(tmp_path / "ck.npz"))


# ----------------------------------------------------------------------
# Multi-channel checkpoints name every channel's bank
# ----------------------------------------------------------------------
def _banks(second):
    from repro.monitor.configurations import table1_encoder
    from repro.monitor.second_signature import candidate_by_name

    return [table1_encoder(), candidate_by_name(second).encoder]


def _crash_two_channel(engine, ck, second):
    with inject("stream.chunk.crash", times=1, after=1):
        with pytest.raises(FaultInjected):
            engine.run_stream(_chunks(), band="auto",
                              encoders=_banks(second), checkpoint=ck)


def test_multi_channel_resume_rejects_another_second_bank(small_engine,
                                                          tmp_path):
    """The checkpoint key covers the extra channels too: resuming

    under a different second bank would splice two banks' NDFs."""
    ck = str(tmp_path / "campaign.npz")
    _crash_two_channel(small_engine, ck, "bias-0.10")
    with pytest.raises(CheckpointMismatch):
        small_engine.run_stream(_chunks(), band="auto",
                                encoders=_banks("bias+0.10"),
                                checkpoint=ck)


def test_multi_channel_checkpoint_rejects_single_channel_resume(
        small_engine, tmp_path):
    ck = str(tmp_path / "campaign.npz")
    _crash_two_channel(small_engine, ck, "bias-0.10")
    with pytest.raises(CheckpointMismatch):
        small_engine.resume(ck, _chunks())


def test_multi_channel_resume_under_same_banks_is_bit_identical(
        small_engine, tmp_path):
    ck = str(tmp_path / "campaign.npz")
    reference = small_engine.run_stream(_chunks(), band="auto",
                                        encoders=_banks("bias-0.10"))
    _crash_two_channel(small_engine, ck, "bias-0.10")
    assert StreamCheckpoint.load(ck).next_index == 2 * CHUNK
    resumed = small_engine.run_stream(_chunks(), band="auto",
                                      encoders=_banks("bias-0.10"),
                                      checkpoint=ck)
    _assert_identical(resumed, reference)
    assert resumed.num_channels == 2
    np.testing.assert_array_equal(resumed.channel_ndfs,
                                  reference.channel_ndfs)
    np.testing.assert_array_equal(resumed.channel_verdicts,
                                  reference.channel_verdicts)
