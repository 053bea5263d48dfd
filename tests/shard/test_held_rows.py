"""The coordinator holds every shard's rows; workers write no files.

Workers send each chunk's rows home in ``progress`` lines, so neither
carrier leaves a checkpoint file anywhere: campaigns run under a fresh
``TMPDIR`` leave no ``.npz`` in it, and a failed campaign leaves no
scratch directory.  A ``workdir`` only receives each shard's merged
archive after a clean campaign.  Two-channel campaigns merge
bit-identical to ``run_stream`` over both carriers, through a
reassignment too.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.checkpoint import StreamCheckpoint
from repro.monitor.second_signature import second_signature_bank
from repro.paper import PAPER_BIQUAD
from repro.shard import MonteCarloFleet, ShardCoordinator, ShardWorkerError
from repro.shard.coordinator import _Worker
from repro.shard.protocol import (
    decode_message,
    encode_message,
    progress_message,
)
from repro.shard.worker import connect_main
from repro.store import pack_archive

pytestmark = pytest.mark.campaign

SIGMA = 0.05
HEARTBEAT = 15.0
SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def _fleet(count=12, chunk=2):
    return MonteCarloFleet(PAPER_BIQUAD, count, sigma_f0=SIGMA, seed=3,
                           chunk_size=chunk)


def _tcp_campaign(engine, fleet, workers=1, doomed=False, **kwargs):
    """A listening coordinator plus ``workers`` dialled-in worker
    processes (the first SIGKILLs itself after its second record when
    ``doomed``); returns ``(merged, stats)``."""
    coordinator = ShardCoordinator(
        engine.config, engine.band().threshold, fleet,
        heartbeat=HEARTBEAT, listen=("127.0.0.1", 0), workers=workers,
        **kwargs)
    host, port = coordinator.address
    outcome = {}

    def run():
        try:
            outcome["result"] = coordinator.run()
        except BaseException as error:  # surfaced below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    procs = []
    for k in range(workers):
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_SHARD_WORKER_FAULTS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_ROOT, env.get("PYTHONPATH")]))
        if doomed and k == 0:
            env["REPRO_FAULTS"] = "shard.worker.kill:1:1"
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-worker", "--connect",
             f"{host}:{port}"], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL))
    thread.join(timeout=180.0)
    for proc in procs:
        proc.wait(timeout=30)
    assert not thread.is_alive(), "campaign did not finish"
    assert "error" not in outcome, outcome.get("error")
    return outcome["result"]


class _Carrier:
    kind = "pipe"


def test_held_rows_take_only_the_record_that_follows(small_engine):
    """The in-order rule on its own: every line that does not follow
    shard 0's held rows is a desync (a reason string), a refused
    record changes nothing, and the record that reaches the shard's
    ``hi`` completes it."""
    key = small_engine.config.checkpoint_key()
    coordinator = ShardCoordinator(small_engine.config, 0.05, _fleet(),
                                   shards=2)
    coordinator._campaign = "c1"
    shard = coordinator.plan[0]
    assert (shard.lo, shard.hi) == (0, 6)
    worker = _Worker(0, _Carrier())
    worker.shard = shard
    coordinator._held[0] = StreamCheckpoint(key, 0.05, start_index=0)

    def rows(lo, hi, config_key=key, campaign="c1"):
        record = StreamCheckpoint(config_key, 0.05, start_index=lo)
        n = hi - lo
        record.extend(np.full(n, 0.01), np.zeros(n), np.zeros(n),
                      [f"die{i}" for i in range(lo, hi)], {})
        return progress_message(0, campaign, record.to_bytes())

    take = coordinator._take
    assert take(worker, rows(2, 4)) is not None  # gap
    assert take(worker, rows(0, 2)) is None
    for line in (rows(0, 2),  # overlap
                 rows(2, 8),  # runs past the shard
                 rows(2, 4, config_key="other"),
                 rows(2, 4, campaign="c0"),  # another campaign's rows
                 {**rows(2, 4), "shard": 1},  # a shard not assigned
                 {"type": "progress", "shard": 0, "campaign": "c1",
                  "rows_b64": "junk!"}):
        assert take(worker, line) is not None, line
    assert coordinator._held[0].next_index == 2
    assert take(worker, rows(2, 4)) is None
    assert worker.shard is shard and not coordinator._held[0].complete
    assert take(worker, rows(4, 6)) is None  # the last row
    assert worker.shard is None and coordinator._held[0].complete
    assert coordinator.stats["completed"] == 1.0
    assert take(worker, rows(4, 6)) is not None  # after completion


def _misaligned_rows(shard, lo, key, threshold, campaign):
    """A ``progress`` line whose version-2 record for dies
    ``[lo, lo + 2)`` holds 3 NDF rows, 2 f0, 1 q and 2 labels."""
    meta = {"version": 2, "config_key": key, "threshold": threshold,
            "start_index": lo, "next_index": lo + 2, "timing": {},
            "fallback_dies": 0, "chunks_done": 1, "complete": False}
    labels = json.dumps([f"die{lo}", f"die{lo + 1}"]).encode("utf-8")
    record = pack_archive(
        {"ndfs": np.array([0.1, 0.2, 0.3]), "f0": np.array([0.0, 0.0]),
         "q": np.array([0.0]),
         "labels": np.frombuffer(labels, dtype=np.uint8)}, meta, "meta")
    return progress_message(shard, campaign, record)


def test_record_with_misaligned_rows_loses_the_worker(small_engine):
    """A TCP worker (outside input) whose row record's arrays disagree
    in length is a desync: it is lost, its shard resumes at the first
    row the coordinator holds, and the merge stays bit-identical."""
    fleet = _fleet()
    reference = small_engine.run_stream(fleet.chunks(0, len(fleet)),
                                        band="auto")
    coordinator = ShardCoordinator(
        small_engine.config, reference.threshold, fleet, shards=2,
        heartbeat=HEARTBEAT, listen=("127.0.0.1", 0))
    host, port = coordinator.address
    outcome = {}
    campaign = threading.Thread(
        target=lambda: outcome.update(result=coordinator.run()),
        daemon=True)
    campaign.start()
    with socket.create_connection((host, port), timeout=10.0) as fake:
        lines = fake.makefile("r", encoding="utf-8", newline="\n")
        init = decode_message(lines.readline())
        assert init["type"] == "init"
        assign = decode_message(lines.readline())
        assert assign["type"] == "assign"
        line = encode_message(_misaligned_rows(
            assign["shard"], assign["lo"],
            small_engine.config.checkpoint_key(), reference.threshold,
            init["campaign"]))
        fake.sendall((line + "\n").encode("utf-8"))
        assert lines.readline() == ""  # the coordinator hung up
    worker = threading.Thread(target=connect_main, args=(host, port),
                              daemon=True)
    worker.start()
    campaign.join(timeout=180.0)
    worker.join(timeout=30.0)
    assert not campaign.is_alive(), "campaign did not finish"
    merged, stats = outcome["result"]
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    np.testing.assert_array_equal(merged.f0_deviations(),
                                  reference.f0_deviations)
    assert merged.labels == list(reference.labels)
    assert (stats["reassigned"], stats["completed"]) == (1.0, 2.0)


@pytest.fixture()
def fresh_tmpdir(tmp_path, monkeypatch):
    """A private TMPDIR for this process and every worker it starts."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return tmp


def test_campaigns_without_workdir_write_no_shard_files(
        small_engine, fresh_tmpdir, monkeypatch):
    fleet = _fleet()
    reference = small_engine.run_stream(fleet.chunks(0, len(fleet)),
                                        band="auto")
    piped = small_engine.run_sharded(fleet, shards=2, band="auto",
                                     heartbeat=HEARTBEAT)
    np.testing.assert_array_equal(piped.ndfs, reference.ndfs)
    merged, stats = _tcp_campaign(small_engine, fleet, shards=2)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert stats["completed"] == 2.0
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS", "shard.worker.error")
    with pytest.raises(ShardWorkerError):
        small_engine.run_sharded(fleet, shards=2, band="auto",
                                 heartbeat=HEARTBEAT)
    # Only the worker set's stderr logs live there.
    assert not list(fresh_tmpdir.rglob("*.npz"))
    assert not list(fresh_tmpdir.glob("repro-shards-*"))
    assert not list(fresh_tmpdir.glob("repro-shard-worker-*"))


def test_workdir_receives_each_shards_merged_archive(small_engine,
                                                     tmp_path):
    fleet = _fleet()
    reference = small_engine.run_stream(fleet.chunks(0, len(fleet)),
                                        band="auto")
    workdir = tmp_path / "shards"
    result = small_engine.run_sharded(fleet, shards=3, band="auto",
                                      heartbeat=HEARTBEAT,
                                      workdir=str(workdir))
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    paths = sorted(workdir.iterdir())
    assert [p.name for p in paths] == [
        "shard_0000.npz", "shard_0001.npz", "shard_0002.npz"]
    parts = [StreamCheckpoint.load(str(p)) for p in paths]
    assert [(p.start_index, p.next_index) for p in parts] == \
        [(0, 4), (4, 8), (8, 12)]
    assert all(p.complete and p.chunks_done == 2 for p in parts)
    merged = StreamCheckpoint.merge(parts)
    np.testing.assert_array_equal(merged.values(np.empty(0)),
                                  reference.ndfs)
    assert merged.labels == list(reference.labels)


def test_two_channel_campaigns_merge_bit_identical_through_a_loss(
        small_engine, monkeypatch):
    """A second channel, over pipe and over TCP, with a worker killed
    after its second record: the shard resumes from the held rows
    and both merges equal the two-channel stream."""
    multi = small_engine.with_encoders(
        [small_engine.config.encoder, second_signature_bank(-0.10, 1e-5)])
    fleet = _fleet()
    reference = multi.run_stream(fleet.chunks(0, len(fleet)),
                                 band=multi.band().threshold)
    assert reference.channel_ndfs.shape == (12, 2)
    merged, stats = _tcp_campaign(multi, fleet, workers=2, doomed=True,
                                  shards=2)
    np.testing.assert_array_equal(merged.values(np.empty((0, 2))),
                                  reference.channel_ndfs)
    assert merged.labels == list(reference.labels)
    assert merged.complete
    assert (stats["reassigned"], stats["dispatched"]) == (1.0, 3.0)
    monkeypatch.setenv("REPRO_SHARD_WORKER_FAULTS",
                       "shard.worker.kill:1:1")
    piped = multi.run_sharded(fleet, shards=2, band=multi.band().threshold,
                              heartbeat=HEARTBEAT)
    np.testing.assert_array_equal(piped.channel_ndfs,
                                  reference.channel_ndfs)
    assert (piped.shard_stats["reassigned"],
            piped.shard_stats["dispatched"]) == (1.0, 3.0)
