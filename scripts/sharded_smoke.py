"""Sharded-campaign smoke: kill a worker mid-shard, merge bit-identical.

What the CI ``sharded-campaign-smoke`` job runs:

**Phase A -- worker-loss drill (library).**  Run a sharded campaign
with ``shard.worker.kill`` armed in the first worker's environment
(through ``REPRO_SHARD_WORKER_FAULTS``): the worker SIGKILLs itself
right after a progress report.  The coordinator must notice, respawn
the slot, reassign the shard *resuming from the rows it holds*, and the
merged result must still be **bit-identical** to the monolithic
in-process run.  The whole drill is traced; the exported Chrome trace
must show the re-dispatch (a ``shard.dispatch`` span with
``attempt > 1``) and the worker-side spans on their own pid tracks.
The ``shard_reassigned_total`` metric must tick.

**Phase B -- CLI equivalence.**  ``repro campaign --shards N --json``
and ``--shards 1 --json`` must answer identically (everything except
wall-clock timings and the shard stats themselves), and so must
``--shards N --second-signature bias-0.10_level1e-05 --json`` and the
unsharded ``--second-signature`` run: a second channel shards too.

**Phase C -- loopback-TCP partition drill.**  The coordinator listens
on ``127.0.0.1`` and two ``repro shard-worker --connect`` processes
dial in; one is partitioned mid-shard (its connection severs abruptly
right after a progress report, its rows having travelled home in
its progress lines).  The survivor must take the shard over, resume
from the rows the coordinator holds, and the merged verdicts must be
**bit-identical** to the monolithic run.

**Phase D -- warm reuse.**  Two more campaigns on phase A's engine,
now without the drill variable.  The first replaces phase A's workers
(the environment changed); the second spawns none
(``shard_worker_startup_seconds`` does not grow), runs on the same
worker pids and merges **bit-identical** to the monolithic run.
``engine.close()`` must then leave none of those pids running.

Usage::

    python scripts/sharded_smoke.py --dies 24 --samples 512 --shards 3

Exits non-zero on the first violated assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

#: Pinned second monitor bank of the two-channel CLI comparison.
SECOND_BANK = "bias-0.10_level1e-05"


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dies", type=int, default=24)
    parser.add_argument("--samples", type=int, default=512)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--chunk", type=int, default=2,
                        help="worker chunk size (small: several "
                             "row records per shard)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--sigma", type=float, default=0.05)
    parser.add_argument("--trace-out", default="shard-trace.json")
    return parser.parse_args()


def phase_a_kill_drill(args):
    """Kill one worker mid-shard; assert reassignment + bit-identity.

    Returns the engine, fleet and monolithic result for phase D.
    """
    import numpy as np

    from repro.campaign import CampaignEngine, montecarlo_dies
    from repro.monitor.configurations import table1_encoder
    from repro.obs import Tracer, install_tracer, uninstall_tracer
    from repro.obs.metrics import default_registry
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
    from repro.shard import MonteCarloFleet

    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=args.samples)
    reference = engine.run(
        montecarlo_dies(PAPER_BIQUAD, args.dies, sigma_f0=args.sigma,
                        seed=args.seed), band="auto")
    fleet = MonteCarloFleet(PAPER_BIQUAD, args.dies,
                            sigma_f0=args.sigma, seed=args.seed,
                            chunk_size=args.chunk)
    # Arm the kill in the first worker: SIGKILL right after its
    # second progress report (so the coordinator holds mid-shard rows
    # and the resume is a true resume, not a restart).
    os.environ["REPRO_SHARD_WORKER_FAULTS"] = "shard.worker.kill:1:1"
    before = default_registry().counter("shard_reassigned_total").value
    tracer = Tracer()
    install_tracer(tracer)
    try:
        sharded = engine.run_sharded(fleet, shards=args.shards,
                                     band="auto", heartbeat=15.0)
    finally:
        uninstall_tracer()
        os.environ.pop("REPRO_SHARD_WORKER_FAULTS", None)

    assert np.array_equal(sharded.ndfs, reference.ndfs), \
        "merged NDFs differ from the monolithic run"
    assert np.array_equal(sharded.verdicts, reference.verdicts)
    assert np.array_equal(sharded.f0_deviations,
                          reference.f0_deviations)
    assert list(sharded.labels) == list(reference.labels)
    assert sharded.threshold == reference.threshold
    stats = sharded.shard_stats
    assert stats["reassigned"] >= 1, stats
    assert stats["completed"] == stats["planned"], stats
    after = default_registry().counter("shard_reassigned_total").value
    assert after > before, "shard_reassigned_total did not tick"

    path = tracer.write_chrome_trace(args.trace_out)
    events = json.load(open(path))["traceEvents"]
    dispatches = [e for e in events if e["name"] == "shard.dispatch"]
    redispatches = [e for e in dispatches
                    if e["args"].get("attempt", 1) > 1]
    assert redispatches, "no re-dispatch span in the trace"
    worker_pids = {e["pid"] for e in events
                   if e["name"] == "shard.worker.run"}
    assert worker_pids and os.getpid() not in worker_pids, \
        "worker spans must ride home on their own pid tracks"
    resumed = [e for e in events if e["name"] == "shard.worker.run"
               and e["args"]["resume_at"] > e["args"]["lo"]]
    assert resumed, \
        "reassigned shard restarted from zero instead of resuming"
    print(f"phase A ok: {int(stats['reassigned'])} reassignment(s), "
          f"bit-identical merge, {len(events)} spans -> {path} "
          f"(resumed at die {resumed[0]['args']['resume_at']} of "
          f"shard [{resumed[0]['args']['lo']}, "
          f"{resumed[0]['args']['hi']}))")
    return engine, fleet, reference


def _campaign_json(args, options) -> dict:
    """``repro campaign --json`` minus timings, executor and shard stats."""
    command = [sys.executable, "-m", "repro", "campaign",
               "--dies", str(args.dies), "--seed", str(args.seed),
               "--sigma", str(args.sigma),
               "--samples", str(args.samples), *options, "--json"]
    out = subprocess.run(command, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    payload.pop("timing")
    payload.pop("executor")
    if "--shards" in options:
        payload.pop("shards")
    return payload


def phase_b_cli_equivalence(args) -> None:
    """--shards N and --shards 1 answer identically over the CLI, and
    a sharded two-channel run answers like the unsharded one."""
    def run(shards: int, *options: str) -> dict:
        placement = ["--shards", str(shards)]
        if shards > 1:
            placement += ["--chunk", str(args.chunk)]
        return _campaign_json(args, [*placement, *options])

    many, one = run(args.shards), run(1)
    assert many == one, (many, one)
    print(f"phase B ok: --shards {args.shards} == --shards 1 "
          f"({args.dies} dies over the CLI)")
    second = ["--second-signature", SECOND_BANK]
    many, unsharded = run(args.shards, *second), \
        _campaign_json(args, second)
    assert len(many["channels"]) == 2, many
    assert many == unsharded, (many, unsharded)
    print(f"phase B ok: --shards {args.shards} --second-signature "
          f"{SECOND_BANK} == unsharded")


def phase_c_tcp_partition_drill(args) -> None:
    """Two TCP workers over loopback; one partitioned mid-shard."""
    import threading

    import numpy as np

    from repro.campaign import CampaignEngine, montecarlo_dies
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS
    from repro.shard import MonteCarloFleet, ShardCoordinator

    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=args.samples)
    reference = engine.run(
        montecarlo_dies(PAPER_BIQUAD, args.dies, sigma_f0=args.sigma,
                        seed=args.seed), band="auto")
    fleet = MonteCarloFleet(PAPER_BIQUAD, args.dies,
                            sigma_f0=args.sigma, seed=args.seed,
                            chunk_size=args.chunk)
    # workers=2 holds dispatch until both workers said hello, so the
    # survivor cannot screen every shard before the doomed worker
    # connects (which would leave nothing to reassign).
    coordinator = ShardCoordinator(
        engine.config, engine.band().threshold, fleet,
        shards=args.shards, heartbeat=15.0, workers=2,
        listen=("127.0.0.1", 0))
    host, port = coordinator.address
    outcome = {}

    def run() -> None:
        try:
            outcome["result"] = coordinator.run()
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def start_worker(faults=None):
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_SHARD_WORKER_FAULTS", None)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        if faults:
            env["REPRO_FAULTS"] = faults
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-worker",
             "--connect", f"{host}:{port}"], env=env)

    # The doomed worker's connection severs right after its second
    # progress report -- past two row records it sent home.
    doomed = start_worker(faults="shard.worker.kill:1:1")
    survivor = start_worker()
    thread.join(timeout=600)
    doomed.wait(timeout=30)
    survivor.wait(timeout=30)
    assert not thread.is_alive(), "TCP campaign did not finish"
    assert "error" not in outcome, outcome.get("error")
    merged, stats = outcome["result"]
    assert np.array_equal(merged.values(np.empty(0)),
                          reference.ndfs), \
        "TCP merge differs from the monolithic run"
    assert merged.complete
    assert stats["reassigned"] >= 1, stats
    assert stats["completed"] == stats["planned"], stats
    print(f"phase C ok: partition mid-shard over loopback TCP, "
          f"{int(stats['reassigned'])} reassignment(s), "
          f"bit-identical merge from the held rows "
          f"({int(stats['workers'])} workers on {host}:{port})")


def _running(pid: int) -> bool:
    """True while ``pid`` is a live shard worker."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"shard-worker" in fh.read()
    except OSError:
        return False


def phase_d_warm_reuse(args, engine, fleet, reference) -> None:
    """Two campaigns on phase A's engine; the second spawns nothing."""
    import numpy as np

    from repro.obs import Tracer, install_tracer, uninstall_tracer
    from repro.obs.metrics import default_registry

    startup = default_registry().histogram("shard_worker_startup_seconds")

    def campaign():
        tracer = Tracer()
        install_tracer(tracer)
        try:
            result = engine.run_sharded(fleet, shards=args.shards,
                                        band="auto", heartbeat=15.0)
        finally:
            uninstall_tracer()
        assert np.array_equal(result.ndfs, reference.ndfs), \
            "merged NDFs differ from the monolithic run"
        assert np.array_equal(result.verdicts, reference.verdicts)
        return {r.attributes["pid"] for r in tracer.records()
                if r.name == "shard.worker.init"}

    first = campaign()
    spawned = startup.count
    second = campaign()
    assert startup.count == spawned, "the warm campaign spawned a worker"
    assert second == first, (first, second)
    engine.close()
    survivors = [pid for pid in first if _running(pid)]
    assert not survivors, f"workers {survivors} outlived engine.close()"
    print(f"phase D ok: second campaign reused pids {sorted(second)}, "
          f"bit-identical merge; engine.close() stopped them all")


def main() -> int:
    args = _parse_args()
    engine, fleet, reference = phase_a_kill_drill(args)
    phase_b_cli_equivalence(args)
    phase_c_tcp_partition_drill(args)
    phase_d_warm_reuse(args, engine, fleet, reference)
    print("sharded smoke: all assertions held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
