"""Replay of one workload lot through each layer's public call.

Runs after the traced phases.  Every call is wrapped in a span (see
:mod:`spanlog`) and bracketed by host probes; a layer's number is the
corrected self time of the spans around its call, at the workload's own
sample count and lot size.
"""

from __future__ import annotations

import glob
import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import coldstart
from benchstats import median
from workloads import (FLEET_LOT, FLEET_SAMPLES, SERVICE_LOT,
                       SERVICE_SAMPLES, SHARDED_DIES, SHARDED_SAMPLES, SIGMA,
                       TOLERANCE, WIDE_SIGMA, seeds)

STAGES = ("traces", "encode", "signature", "ndf")


@dataclass(frozen=True)
class Plan:
    """Replay sizes per workload: capture density, the lot replayed
    through the front half and executors, and the sharded fleet."""

    samples: int
    lot: int
    fleet: int


#: Dies of a sharded campaign the front half and executors replay.
SHARDED_REPLAY_LOT = 4096

PLANS = {
    "fleet": Plan(samples=FLEET_SAMPLES, lot=FLEET_LOT, fleet=FLEET_LOT),
    "service": Plan(samples=SERVICE_SAMPLES, lot=SERVICE_LOT,
                    fleet=SERVICE_LOT),
    # The front half and executors replay the first dies of a
    # campaign-sized fleet; the shard layers replay a whole campaign.
    "sharded": Plan(samples=SHARDED_SAMPLES, lot=SHARDED_REPLAY_LOT,
                    fleet=SHARDED_DIES),
}

REPS = 3
SMALL_REPS = 15
BURST_REQUESTS = 20


class Replay:
    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.spans = ctx.spans

    def call(self, name: str, fn: Callable):
        """One public call, probed before and after, inside a span."""
        self.ctx.probe.measure()
        with self.spans.span(name, unit="replay"):
            out = fn()
        self.ctx.probe.measure()
        return out

    def corrected(self, name: str) -> List[float]:
        """Corrected self seconds of every replay span named ``name``."""
        self_times = self.spans.self_times()
        return [self_times[s.id] * self.ctx.probe.factor(s.start, s.end)
                for s in self.spans.named(name) if s.unit == "replay"]

    def median(self, name: str) -> float:
        return median(self.corrected(name))


def run(ctx, plan: Plan, requests_per_pass: Optional[float]
        ) -> Dict[str, float]:
    """Every per-layer metric except ``host.*``, ``raw.*`` and
    ``trace.*`` (those come from the workload phases)."""
    from repro.campaign import (CampaignEngine, GoldenCache,
                                ProcessPoolExecutor, ScreeningRequest,
                                SharedMemoryExecutor, StreamCheckpoint,
                                batch_biquad_traces, batch_codes,
                                montecarlo_dies, trace_population)
    from repro.core.signature_batch import SignatureBatch
    from repro.diagnosis import DictionaryMatcher, compile_fault_dictionary
    from repro.obs.metrics import MetricsRegistry
    from repro.paper import paper_setup
    from repro.service import (CoalescingBatcher, ScreeningSession,
                               ServiceClient, build_server)
    from repro.shard import MonteCarloFleet

    r = Replay(ctx)
    out: Dict[str, float] = {}
    rng = ctx.rng(9)

    setup = paper_setup(samples_per_period=plan.samples)
    engine = setup.campaign_engine(tolerance=TOLERANCE)
    config = engine.config
    golden = engine.golden()
    threshold = engine.band().threshold
    spec = setup.golden_spec
    fleet_r = MonteCarloFleet(spec, plan.fleet, sigma_f0=SIGMA,
                              seed=seeds(rng, 1)[0])
    lot = next(iter(MonteCarloFleet(
        spec, plan.lot, sigma_f0=SIGMA, seed=fleet_r.seed,
        chunk_size=plan.lot).chunks(0, plan.lot)))

    def submit(eng, population, **kwargs):
        return eng.submit(ScreeningRequest(population=population,
                                           band=threshold, **kwargs))

    # repro.campaign.cache: cold golden and band.
    for _ in range(REPS):
        cold = CampaignEngine(config, cache=GoldenCache())
        r.call("engine.golden", cold.golden)
        r.call("engine.band", cold.band)
    out["cache.golden_ms"] = r.median("engine.golden") * 1e3
    out["cache.band_ms"] = r.median("engine.band") * 1e3

    # Front half, stage by stage, on the replay lot.
    for _ in range(REPS):
        y = r.call("batch_biquad_traces", lambda: batch_biquad_traces(
            lot.specs, config.stimulus, golden.times))
        codes = r.call("batch_codes", lambda: batch_codes(
            config.encoder, golden.x, y))
        batch = r.call("SignatureBatch.from_code_stack",
                       lambda: SignatureBatch.from_code_stack(
                           golden.times, codes, golden.period))
        ndfs = r.call("SignatureBatch.ndf_to",
                      lambda: batch.ndf_to(golden.signature))
    reference = submit(engine, lot)
    ctx.tally.record(np.array_equal(ndfs, reference.ndfs),
                     "front-half replay differs from engine.submit")
    for metric, name in (("traces", "batch_biquad_traces"),
                         ("encode", "batch_codes"),
                         ("signature", "SignatureBatch.from_code_stack"),
                         ("ndf", "SignatureBatch.ndf_to")):
        out[f"{metric}.us_per_die"] = r.median(name) / len(lot) * 1e6

    # repro.campaign.engine: a serial 1-die submit minus its stages.
    lot1s = [montecarlo_dies(spec, 1, sigma_f0=SIGMA, seed=s)
             for s in seeds(rng, SMALL_REPS)]
    stage_sums = []
    for one in lot1s:
        result = r.call("engine.submit[lot1]", lambda: submit(engine, one))
        stage_sums.append(sum(result.timing.get(k, 0.0) for k in STAGES))
    self_times = r.spans.self_times()
    spans = [s for s in r.spans.named("engine.submit[lot1]")
             if s.unit == "replay"]
    out["engine.call_overhead_ms"] = median(
        [(self_times[s.id] - stages) * ctx.probe.factor(s.start, s.end)
         for s, stages in zip(spans, stage_sums)]) * 1e3

    # repro.campaign.executors: serial vs 2-process pools.  The shared-
    # memory executor differs from the plain pool only on trace stacks,
    # so both sides of its ratio screen the lot's traces.
    traces = trace_population(y)
    with ProcessPoolExecutor(2) as pool, SharedMemoryExecutor(2) as shm:
        pooled = CampaignEngine(config, cache=engine.cache, executor=pool)
        shared = CampaignEngine(config, cache=engine.cache, executor=shm)
        submit(pooled, lot)
        submit(shared, traces)
        for _ in range(REPS):
            r.call("engine.submit[serial]", lambda: submit(engine, lot))
            got = r.call("engine.submit[pool]", lambda: submit(pooled, lot))
            ctx.tally.record(np.array_equal(got.ndfs, reference.ndfs),
                             "pool executor differs from serial")
            r.call("engine.submit[serial-traces]",
                   lambda: submit(engine, traces))
            got = r.call("engine.submit[shm-traces]",
                         lambda: submit(shared, traces))
            ctx.tally.record(np.array_equal(got.ndfs, reference.ndfs),
                             "shared-memory executor differs from serial")
    out["executor.pool_speedup"] = (r.median("engine.submit[serial]")
                                    / r.median("engine.submit[pool]"))
    out["executor.shm_speedup"] = (
        r.median("engine.submit[serial-traces]")
        / r.median("engine.submit[shm-traces]"))

    # repro.diagnosis: cold compile, then matching of failing dies.
    for _ in range(REPS):
        cold = CampaignEngine(config, cache=GoldenCache())
        cold.golden()
        cold.band()
        dictionary = r.call("compile_fault_dictionary",
                            lambda: compile_fault_dictionary(cold))
    out["diagnosis.compile_ms"] = r.median("compile_fault_dictionary") * 1e3
    # Drawn as wide as the service's diagnose lots, so most dies fail.
    wide = submit(engine, montecarlo_dies(spec, 64, sigma_f0=WIDE_SIGMA,
                                          seed=seeds(rng, 1)[0]),
                  keep_signatures=True)
    failing = wide.signature_batch.select(wide.failing_indices())
    matcher = DictionaryMatcher(dictionary)
    matcher.match(failing)
    for _ in range(REPS):
        r.call("DictionaryMatcher.match", lambda: matcher.match(failing))
    out["diagnosis.match_us_per_die"] = \
        r.median("DictionaryMatcher.match") / len(failing) * 1e6

    # repro.service: session, batcher and HTTP, each on 1-die lots.
    session = ScreeningSession(engine)
    for one in lot1s:
        r.call("ScreeningSession.submit[lot1]", lambda: session.submit(
            ScreeningRequest(population=one, band="auto")))
    for s in seeds(rng, REPS):
        lot256 = montecarlo_dies(spec, SERVICE_LOT, sigma_f0=SIGMA, seed=s)
        r.call("ScreeningSession.submit[lot256]", lambda: session.submit(
            ScreeningRequest(population=lot256, band="auto")))
    out["session.lot1_ms"] = r.median("ScreeningSession.submit[lot1]") * 1e3
    out["session.lot256_ms"] = \
        r.median("ScreeningSession.submit[lot256]") * 1e3
    batcher = CoalescingBatcher(session)
    try:
        for one in lot1s:
            r.call("CoalescingBatcher.submit", lambda: batcher.submit(
                ScreeningRequest(population=one, band="auto")))
    finally:
        batcher.close()
    out["batcher.wait_ms"] = (r.median("CoalescingBatcher.submit")
                              - r.median("ScreeningSession.submit[lot1]")
                              ) * 1e3
    registry = MetricsRegistry()
    server = build_server(port=0, session=session, metrics=registry)
    server.start()
    try:
        client = ServiceClient(server.url)
        client.campaign(kind="mc", dies=1, seed=0)
        for s in seeds(rng, SMALL_REPS):
            r.call("ServiceClient.campaign", lambda: client.campaign(
                kind="mc", dies=1, sigma=SIGMA, seed=s))
        out["http.overhead_ms"] = (r.median("ServiceClient.campaign")
                                   - r.median("CoalescingBatcher.submit")
                                   ) * 1e3
        if requests_per_pass is not None:
            out["batcher.requests_per_pass"] = requests_per_pass
        else:
            out["batcher.requests_per_pass"] = _burst_per_pass(
                server.url, registry, seeds(rng, 2 * BURST_REQUESTS))
    finally:
        server.close()

    # repro.shard and repro.campaign.checkpoint: one 2-shard campaign
    # against the in-process stream over the same fleet.
    workdir = os.path.join(ctx.work, "replay-shards")
    os.makedirs(workdir, exist_ok=True)
    sharded = r.call("engine.run_sharded", lambda: engine.run_sharded(
        fleet_r, shards=2, band=threshold, workdir=workdir))
    streamed = r.call("engine.run_stream", lambda: engine.run_stream(
        fleet_r.chunks(0, len(fleet_r)), band=threshold))
    ctx.tally.record(np.array_equal(sharded.ndfs, streamed.ndfs),
                     "sharded replay differs from run_stream")
    out["shard.overhead_s"] = (r.median("engine.run_sharded")
                               - r.median("engine.run_stream"))
    parts = [StreamCheckpoint.load(path) for path in
             sorted(glob.glob(os.path.join(workdir, "shard_*.npz")))]
    sizes = [len(r.call("StreamCheckpoint.to_bytes", part.to_bytes))
             for part in parts]
    out["checkpoint.bytes_per_shard"] = float(np.mean(sizes))
    for _ in range(REPS):
        merged = r.call("StreamCheckpoint.merge",
                        lambda: StreamCheckpoint.merge(parts))
    ctx.tally.record(np.array_equal(merged.values(np.empty(0)),
                                    streamed.ndfs),
                     "checkpoint merge differs from run_stream")
    out["checkpoint.merge_ms"] = r.median("StreamCheckpoint.merge") * 1e3

    # Import: fresh interpreters, counted from outside.
    rows = coldstart.import_counts(2, ctx.probe)
    out["import.cli_s"] = median([row["import_s_corrected"] for row in rows])
    out["import.modules"] = float(rows[-1]["modules"])
    out["import.scipy_modules"] = float(rows[-1]["scipy_modules"])
    return out


def _burst_per_pass(url: str, registry, lot_seeds: List[int]) -> float:
    """Requests per engine pass under two concurrent 1-die clients."""
    from repro.service import ServiceClient

    window = registry.window("coalesced_requests")
    before = (window.count, window.total)
    half = len(lot_seeds) // 2

    def client(c: int) -> None:
        conn = ServiceClient(url, client_id=f"burst{c}")
        for s in lot_seeds[c * half:(c + 1) * half]:
            conn.campaign(kind="mc", dies=1, sigma=SIGMA, seed=s)

    threads = [threading.Thread(target=client, args=(c,)) for c in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return (window.total - before[1]) / (window.count - before[0])
