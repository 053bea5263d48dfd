"""Sharded campaign coordinator: scaling, overhead, bit-identity.

Proofs for the shard layer (PR 9):

* **bit-identity at every width** -- ``run_sharded`` over shards in
  {1, 2, 4} returns NDF/verdict/deviation/label vectors byte-for-byte
  equal to the monolithic streamed campaign over the same fleet;
* **1-shard overhead gate** -- a single-shard campaign is the
  streamed campaign plus one worker process; its wall-clock must stay
  within a generous factor of the streamed reference plus a fixed
  worker-startup allowance (interpreter boot + imports dominate small
  fleets);
* **scaling** -- per-shard worker timings, merge-stage timing and
  end-to-end wall-clock per shard count land in the machine-readable
  ``BENCH_9.json`` artifact.  The >= 2x speedup assertion at 4 shards
  only arms on full-sized fleets with >= 4 physical cores
  (``os.cpu_count()`` is recorded in the artifact): on a core-limited
  box the artifact *documents the measured ceiling* instead --
  sharding cannot beat the monolithic run without cores to run the
  workers on, and the committed baseline says exactly what was
  measured where.

PR 10 adds the transport comparison:

* **socket-vs-pipe overhead gate** -- the same fleet run through
  pipe-carried workers (coordinator-spawned, stdio) and through
  TCP-carried workers (``repro shard-worker --connect`` over
  loopback) must merge bit-identical to the monolithic run on both
  carriers, and the TCP wall-clock must stay within a factor of the
  pipe wall-clock plus a dial-in allowance;
* **homeward bytes gate** -- workers send each chunk's rows home
  once, so the TCP campaign's received ``shard_bytes_total`` must stay
  within twice the merged archive's ``to_bytes()`` size plus
  ``HOMEWARD_CHUNK_ALLOWANCE`` per row record.  Shipping a growing
  archive per chunk instead grows quadratically and fails it (20,000
  dies in 512-die chunks: 11.44 MB received for a 0.73 MB archive).
  The per-direction ``shard_bytes_total`` deltas and the archive size
  land in ``BENCH_10.json`` so protocol-volume regressions show up in
  the committed baseline.

The checkpoint codec gates:

* **checkpoint bytes cost** -- ``test_checkpoint_bytes_cost`` rebuilds
  the 40 states a 10,000-die stream in 256-die chunks reaches at its
  saves and sums ``StreamCheckpoint.to_bytes`` (the whole state as one
  record) over them.  The sum must stay within
  ``CHECKPOINT_COST_SHARE`` of the same stream's wall time without a
  checkpoint.  fsync is left out; it depends on the disk, not the
  codec.
* **each row written once** --
  ``test_checkpointed_stream_writes_each_row_once`` traces the same
  stream checkpointed (one save per chunk): its
  ``checkpoint.save`` spans' ``bytes`` may sum to at most
  ``CHECKPOINT_WRITE_FACTOR`` times the final file.  The first save
  writes the log whole and every later one appends only the rows
  folded since; rewriting the whole checkpoint at every save sums to
  about 20 times the file.  The gate counts bytes, so a slow disk
  cannot fail it.

Both use fixed sizes (they ignore ``SHARD_BENCH_N``): the cost of
rewriting grows with the dies saved, so a reduced fleet would show
nothing.

Sizes honour ``SHARD_BENCH_N`` (fleet, default 20000),
``SHARD_BENCH_CHUNK`` (worker chunk, default 512),
``SHARD_BENCH_SHARDS`` (comma list, default ``1,2,4``),
``SHARD_BENCH_SAMPLES`` (default 512), ``SHARD_BENCH_TOLERANCE``
(1-shard overhead factor, default 1.5) and ``SHARD_BENCH_STARTUP_S``
(startup allowance seconds, default 10) so the CI smoke job can run a
reduced fleet.  The transport gate additionally honours
``SHARD_BENCH_TCP_TOLERANCE`` (socket-vs-pipe factor, default 1.5).
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.campaign import (
    CampaignEngine,
    StreamCheckpoint,
    stream_montecarlo_dies,
)
from repro.monitor.configurations import table1_encoder
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.obs.metrics import default_registry
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
from repro.shard import MonteCarloFleet

REPORT_DIR = pathlib.Path(__file__).parent / "reports"

SHARD_N = int(os.environ.get("SHARD_BENCH_N", "20000"))
SHARD_CHUNK = int(os.environ.get("SHARD_BENCH_CHUNK", "512"))
SHARD_COUNTS = [int(s) for s in os.environ.get(
    "SHARD_BENCH_SHARDS", "1,2,4").split(",")]
SAMPLES = int(os.environ.get("SHARD_BENCH_SAMPLES", "512"))
TOLERANCE = float(os.environ.get("SHARD_BENCH_TOLERANCE", "1.5"))
STARTUP_S = float(os.environ.get("SHARD_BENCH_STARTUP_S", "10"))
TCP_TOLERANCE = float(os.environ.get("SHARD_BENCH_TCP_TOLERANCE",
                                     "1.5"))
SIGMA = 0.03
SEED = 0

#: The speedup assertion needs real parallel hardware and a fleet
#: large enough that compute dwarfs worker startup.
SPEEDUP_MIN_DIES = 5000
SPEEDUP_FACTOR = 2.0

#: The checkpoint cost gate's fixed shard: dies, chunk, samples.
CHECKPOINT_DIES = 10000
CHECKPOINT_CHUNK = 256
CHECKPOINT_SAMPLES = 512
#: Encoding every per-chunk checkpoint may cost at most this share of
#: the shard's screening wall time.
CHECKPOINT_COST_SHARE = 0.25
#: A checkpointed stream's saves may write at most this multiple of
#: its final file: each row once, plus headers.
CHECKPOINT_WRITE_FACTOR = 1.05

#: Homeward bytes allowed per row record on top of twice the merged
#: log: a one-chunk record's fixed part (file and record headers, the
#: JSON header with its configuration key, the CRC) is well under
#: 1 kB, plus base64's third and the line's framing.  The bound was
#: sized for ``.npz`` records, whose zip and npy headers took 3.1 kB.
HOMEWARD_CHUNK_ALLOWANCE = 6144


def _assert_bit_identical(result, reference) -> None:
    np.testing.assert_array_equal(result.ndfs, reference.ndfs)
    np.testing.assert_array_equal(result.verdicts, reference.verdicts)
    np.testing.assert_array_equal(result.f0_deviations,
                                  reference.f0_deviations)
    np.testing.assert_array_equal(result.q_deviations,
                                  reference.q_deviations)
    assert list(result.labels) == list(reference.labels)
    assert result.threshold == reference.threshold


def test_sharded_campaign_scaling():
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=SAMPLES)
    engine.golden()
    engine.band()  # calibrate outside every timed window

    start = time.perf_counter()
    reference = engine.run_stream(
        stream_montecarlo_dies(PAPER_BIQUAD, SHARD_N,
                               chunk_size=SHARD_CHUNK,
                               sigma_f0=SIGMA, seed=SEED),
        band="auto")
    stream_s = time.perf_counter() - start

    fleet = MonteCarloFleet(PAPER_BIQUAD, SHARD_N, sigma_f0=SIGMA,
                            seed=SEED, chunk_size=SHARD_CHUNK)
    runs = {}
    for shards in SHARD_COUNTS:
        tracer = Tracer()
        install_tracer(tracer)
        start = time.perf_counter()
        try:
            result = engine.run_sharded(fleet, shards=shards,
                                        band="auto", heartbeat=30.0)
        finally:
            uninstall_tracer()
        wall = time.perf_counter() - start
        _assert_bit_identical(result, reference)
        per_shard = {
            int(record.attributes["shard"]): record.duration
            for record in tracer.records()
            if record.name == "shard.worker.run"}
        assert len(per_shard) == result.shard_stats["planned"]
        runs[shards] = {
            "wall_s": wall,
            "per_shard_s": {str(k): per_shard[k]
                            for k in sorted(per_shard)},
            "merge_s": result.shard_stats["merge_seconds"],
            "dispatched": result.shard_stats["dispatched"],
            "reassigned": result.shard_stats["reassigned"],
        }

    cpu_count = os.cpu_count() or 1
    one_shard = runs[min(SHARD_COUNTS)]["wall_s"]
    widest = max(SHARD_COUNTS)
    speedup = one_shard / runs[widest]["wall_s"]
    core_limited = cpu_count < widest or SHARD_N < SPEEDUP_MIN_DIES
    payload = {
        "pr": 9,
        "dies": SHARD_N,
        "chunk": SHARD_CHUNK,
        "samples_per_period": SAMPLES,
        "cpu_count": cpu_count,
        "bit_identical": True,
        "stream_reference_s": stream_s,
        "shards": {str(k): v for k, v in sorted(runs.items())},
        "speedup_widest_vs_1": speedup,
        "core_limited": core_limited,
        "notes": (
            f"measured ceiling on a {cpu_count}-core box: "
            f"{widest}-shard speedup {speedup:.2f}x vs 1 shard; "
            "subprocess workers time-slice one core, so wall-clock "
            "cannot improve until cores >= shards (the >= "
            f"{SPEEDUP_FACTOR:g}x gate arms at cpu_count >= "
            f"{widest} and N >= {SPEEDUP_MIN_DIES})."
            if core_limited else
            f"{widest}-shard speedup {speedup:.2f}x vs 1 shard on "
            f"{cpu_count} cores."),
    }
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / "BENCH_9.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n")

    lines = [f"sharded campaign: {SHARD_N} MC dies, chunk "
             f"{SHARD_CHUNK}, {SAMPLES} samples, "
             f"{cpu_count} core(s)",
             f"  streamed reference: {stream_s:8.3f} s"]
    for shards, row in sorted(runs.items()):
        lines.append(
            f"  shards={shards}: {row['wall_s']:8.3f} s wall, merge "
            f"{row['merge_s'] * 1e3:7.2f} ms, per-shard "
            + "/".join(f"{s:.2f}" for s in
                       row["per_shard_s"].values()) + " s")
    lines.append(f"  {payload['notes']}")
    print("\n" + "\n".join(lines) + f"\n[report saved to {path}]")

    # Gate 1: a single shard is the streamed campaign plus one
    # subprocess -- overhead must stay bounded.
    assert one_shard <= stream_s * TOLERANCE + STARTUP_S, (
        f"1-shard campaign took {one_shard:.2f}s vs streamed "
        f"{stream_s:.2f}s (allowed factor {TOLERANCE} + "
        f"{STARTUP_S}s startup)")
    # Gate 2: real speedup where the hardware can express it;
    # documented ceiling otherwise (the artifact carries both).
    if not core_limited:
        assert speedup >= SPEEDUP_FACTOR, (
            f"{widest} shards on {cpu_count} cores gave only "
            f"{speedup:.2f}x over 1 shard")


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _bytes_metric(direction: str) -> float:
    return default_registry().counter(
        "shard_bytes_total", direction=direction,
        transport="socket").value


def test_socket_vs_pipe_transport_overhead():
    """TCP-carried workers vs pipe-carried workers, same fleet.

    The socket carrier pays for framing and loopback round trips; the
    gate bounds that cost against the pipe run.  Rows travel home once
    on either carrier, so the bytes received stay linear in the dies
    screened; the artifact records exactly how many protocol bytes
    travelled each way and the merged archive's size.
    """
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=SAMPLES)
    engine.golden()
    engine.band()

    reference = engine.run_stream(
        stream_montecarlo_dies(PAPER_BIQUAD, SHARD_N,
                               chunk_size=SHARD_CHUNK,
                               sigma_f0=SIGMA, seed=SEED),
        band="auto")
    fleet = MonteCarloFleet(PAPER_BIQUAD, SHARD_N, sigma_f0=SIGMA,
                            seed=SEED, chunk_size=SHARD_CHUNK)

    start = time.perf_counter()
    pipe_result = engine.run_sharded(fleet, shards=2, band="auto",
                                     heartbeat=30.0)
    pipe_s = time.perf_counter() - start
    _assert_bit_identical(pipe_result, reference)

    # TCP run: pick a port, start the workers dialling it (they retry
    # until the coordinator's listener is up), then run the campaign.
    port = _free_port()
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SHARD_WORKER_FAULTS", None)
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else "")
    sent_before = _bytes_metric("sent")
    received_before = _bytes_metric("received")
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-worker",
             "--connect", f"127.0.0.1:{port}",
             "--retries", "120", "--retry-delay", "0.25"],
            env=env)
        for _ in range(2)]
    try:
        with tempfile.TemporaryDirectory() as workdir:
            start = time.perf_counter()
            socket_result = engine.run_sharded(
                fleet, shards=2, band="auto", heartbeat=30.0,
                listen=f"127.0.0.1:{port}", workdir=workdir)
            socket_s = time.perf_counter() - start
            merged = StreamCheckpoint.merge(
                StreamCheckpoint.load(str(path)) for path in
                sorted(pathlib.Path(workdir).glob("shard_*.npz")))
    finally:
        for worker in workers:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
    _assert_bit_identical(socket_result, reference)
    assert socket_result.executor == "sharded-tcp[2]"
    sent = _bytes_metric("sent") - sent_before
    received = _bytes_metric("received") - received_before
    assert sent > 0 and received > 0
    archive = len(merged.to_bytes())
    records = merged.chunks_done
    homeward_bound = 2 * archive + HOMEWARD_CHUNK_ALLOWANCE * records

    payload = {
        "pr": 10,
        "dies": SHARD_N,
        "chunk": SHARD_CHUNK,
        "samples_per_period": SAMPLES,
        "cpu_count": os.cpu_count() or 1,
        "workers": 2,
        "shards": 2,
        "bit_identical": True,
        "pipe_wall_s": pipe_s,
        "socket_wall_s": socket_s,
        "socket_vs_pipe": socket_s / pipe_s,
        "socket_bytes_sent": sent,
        "socket_bytes_received": received,
        "merged_archive_bytes": archive,
        "row_records": records,
        "homeward_chunk_allowance": HOMEWARD_CHUNK_ALLOWANCE,
        "homeward_bound_bytes": homeward_bound,
        "tolerance_factor": TCP_TOLERANCE,
        "startup_allowance_s": STARTUP_S,
        "notes": (
            f"loopback TCP carried {sent / 1e3:.1f} kB out / "
            f"{received / 1e3:.1f} kB back ({records} row records, "
            f"base64) for a {archive / 1e3:.1f} kB merged log "
            f"at {socket_s / pipe_s:.2f}x the pipe wall-clock; both "
            "carriers merged bit-identical to the monolithic run."),
    }
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / "BENCH_10.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n")
    print(f"\nsocket vs pipe: {SHARD_N} MC dies, 2 shards, 2 workers"
          f"\n  pipe:   {pipe_s:8.3f} s wall"
          f"\n  socket: {socket_s:8.3f} s wall "
          f"({socket_s / pipe_s:.2f}x, {sent} B out, "
          f"{received} B back; merged archive {archive} B, "
          f"{records} row records)"
          f"\n[report saved to {path}]")

    # Gate: the socket carrier may pay framing + dial-in, never a
    # different complexity class.
    assert socket_s <= pipe_s * TCP_TOLERANCE + STARTUP_S, (
        f"TCP campaign took {socket_s:.2f}s vs pipe {pipe_s:.2f}s "
        f"(allowed factor {TCP_TOLERANCE} + {STARTUP_S}s dial-in)")
    # Gate: each row travels home once -- bytes grow linearly.
    assert received <= homeward_bound, (
        f"TCP workers sent {received} B home for a {archive} B merged "
        f"archive in {records} row records (allowed {homeward_bound} B:"
        f" 2x the archive + {HOMEWARD_CHUNK_ALLOWANCE} B per record)")


def test_checkpoint_bytes_cost():
    """Encoding a checkpointed stream's per-chunk checkpoints stays a
    small share of screening it.

    A checkpointed stream saves after every chunk, each time the whole
    state so far.  The gate rebuilds those states from one
    uncheckpointed stream and times ``to_bytes`` over all of them.
    """
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=CHECKPOINT_SAMPLES)
    engine.golden()
    threshold = engine.band().threshold
    fleet = MonteCarloFleet(PAPER_BIQUAD, CHECKPOINT_DIES,
                            sigma_f0=SIGMA, seed=SEED,
                            chunk_size=CHECKPOINT_CHUNK)
    # Warm the per-process front-half tables outside the timed run.
    engine.run_stream(fleet.chunks(0, CHECKPOINT_CHUNK), band=threshold)

    start = time.perf_counter()
    result = engine.run_stream(fleet.chunks(0, CHECKPOINT_DIES),
                               band=threshold)
    stream_s = time.perf_counter() - start

    state = StreamCheckpoint(repr(engine.config.golden_key()),
                             result.threshold)
    timing = {key: 0.0 for key in result.timing}
    encode_s = 0.0
    saves = 0
    size = 0
    for lo in range(0, CHECKPOINT_DIES, CHECKPOINT_CHUNK):
        hi = min(lo + CHECKPOINT_CHUNK, CHECKPOINT_DIES)
        state.extend(result.ndfs[lo:hi], result.f0_deviations[lo:hi],
                     result.q_deviations[lo:hi],
                     list(result.labels[lo:hi]), timing)
        start = time.perf_counter()
        size = len(state.to_bytes())
        encode_s += time.perf_counter() - start
        saves += 1
    assert saves == 40
    assert StreamCheckpoint.from_bytes(state.to_bytes()).labels \
        == list(result.labels)

    share = encode_s / stream_s
    payload = {
        "dies": CHECKPOINT_DIES,
        "chunk": CHECKPOINT_CHUNK,
        "samples_per_period": CHECKPOINT_SAMPLES,
        "saves": saves,
        "stream_s": stream_s,
        "encode_s": encode_s,
        "share": share,
        "gate_share": CHECKPOINT_COST_SHARE,
        "last_checkpoint_bytes": size,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / "checkpoint_cost.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n")
    print(f"\ncheckpoint cost: {saves} saves of a {CHECKPOINT_DIES}-die "
          f"stream encode in {encode_s * 1e3:.1f} ms vs "
          f"{stream_s * 1e3:.1f} ms screening ({share:.3f}x, last "
          f"checkpoint {size} B)\n[report saved to {path}]")
    assert share <= CHECKPOINT_COST_SHARE, (
        f"encoding {saves} per-chunk checkpoints took "
        f"{encode_s:.3f}s, {share:.2f}x the {stream_s:.3f}s stream "
        f"(allowed {CHECKPOINT_COST_SHARE}x)")


def test_checkpointed_stream_writes_each_row_once():
    """A checkpointed stream writes each row to disk once.

    The stream saves after every chunk; summed over its traced
    ``checkpoint.save`` spans, the bytes written stay within
    ``CHECKPOINT_WRITE_FACTOR`` of the final log's size.
    """
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=CHECKPOINT_SAMPLES)
    threshold = engine.band().threshold
    fleet = MonteCarloFleet(PAPER_BIQUAD, CHECKPOINT_DIES,
                            sigma_f0=SIGMA, seed=SEED,
                            chunk_size=CHECKPOINT_CHUNK)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "campaign.npz")
        tracer = Tracer()
        install_tracer(tracer)
        start = time.perf_counter()
        try:
            result = engine.run_stream(
                fleet.chunks(0, CHECKPOINT_DIES), band=threshold,
                checkpoint=path)
        finally:
            wall_s = time.perf_counter() - start
            uninstall_tracer()
        size = os.path.getsize(path)
        final = StreamCheckpoint.load(path)
    saves = [record for record in tracer.records()
             if record.name == "checkpoint.save"]
    written = sum(record.attributes["bytes"] for record in saves)
    save_s = sum(record.duration for record in saves)
    chunks = -(-CHECKPOINT_DIES // CHECKPOINT_CHUNK)
    assert len(saves) == chunks + 1  # one per chunk, then the last
    assert final.complete
    np.testing.assert_array_equal(final.values(np.empty(0)), result.ndfs)
    assert final.labels == list(result.labels)

    payload = {
        "dies": CHECKPOINT_DIES,
        "chunk": CHECKPOINT_CHUNK,
        "samples_per_period": CHECKPOINT_SAMPLES,
        "saves": len(saves),
        "bytes_written": written,
        "file_bytes": size,
        "write_factor": written / size,
        "gate_factor": CHECKPOINT_WRITE_FACTOR,
        "save_s": save_s,
        "wall_s": wall_s,
    }
    REPORT_DIR.mkdir(exist_ok=True)
    report = REPORT_DIR / "checkpoint_writes.json"
    report.write_text(json.dumps(payload, indent=2, sort_keys=True)
                      + "\n")
    print(f"\ncheckpoint writes: {len(saves)} saves of a "
          f"{CHECKPOINT_DIES}-die stream wrote {written} B for a "
          f"{size} B log ({written / size:.3f}x); saves took "
          f"{save_s * 1e3:.1f} ms of {wall_s * 1e3:.1f} ms\n"
          f"[report saved to {report}]")
    assert written <= CHECKPOINT_WRITE_FACTOR * size, (
        f"{len(saves)} checkpoint saves wrote {written} B for a "
        f"{size} B file (allowed {CHECKPOINT_WRITE_FACTOR}x): a save "
        "rewrote rows an earlier save had written")
