"""The three workloads: what one generator process drives, and how.

Each workload times fresh starts (``setup_s``), then drives its units
through ``repro``'s public API for the run's window, checking a sample
of every unit's dies against the per-die oracle.  Lots are drawn from
the benchmark's seed; the program only receives the generated lots.
"""

from __future__ import annotations

import os
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

import coldstart
from oracle import Oracle, Tally
from spanlog import NullSpanLog

#: Fresh starts per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Screening band tolerance and Monte-Carlo spread of every lot; the
#: diagnose lots are drawn wide enough that most of their dies fail.
TOLERANCE = 0.05
SIGMA = 0.03
WIDE_SIGMA = 0.15

FLEET_SAMPLES = 2048
FLEET_LOT = 2048
FLEET_LOTS = 6
FLEET_CHECKS = 2

SERVICE_SAMPLES = 512
#: The largest lot the service sees, and its gated unit.
SERVICE_LOT = 256
#: One block of requests per connection, shuffled: mostly 1-die lots,
#: a few 8-die and ``SERVICE_LOT``-die lots and 8-die diagnoses.  Fixed
#: counts per block keep the traffic mix identical from seed to seed.
SERVICE_BLOCK = (("lot1", 1, SIGMA),) * 15 + (("lot8", 8, SIGMA),) * 2 \
    + ((f"lot{SERVICE_LOT}", SERVICE_LOT, SIGMA),) \
    + (("diagnose8", 8, WIDE_SIGMA),) * 2
SERVICE_CONNECTIONS = 2
#: Seconds between host probes across both connections.
SERVICE_PROBE_EVERY = 0.1
SERVICE_CHECK_EVERY = 4

SHARDED_SAMPLES = 512
SHARDED_DIES = 20_000
SHARDED_FLEETS = 2
SHARDED_CHECKS = 2

_NULL = NullSpanLog()


@dataclass
class Unit:
    """One timed operation: a fleet pass, a request or a campaign."""

    kind: str
    start: float
    end: float
    dies: int
    traced: bool


@dataclass
class Measured:
    """What a workload hands back for reporting and the layer replay."""

    primary: str
    units: List[Unit]
    setups: List[Tuple[float, float]]
    #: ``(start, end)`` of the measured window.
    window: Tuple[float, float]
    #: Coalesced requests per engine pass on the workload's own server.
    requests_per_pass: Optional[float] = None
    #: ``dies_per_s`` counts every unit's dies over the whole window
    #: instead of taking the median over the gated units.
    rate_over_window: bool = False


@dataclass
class Context:
    work: str
    seed: int
    seconds: float
    trace: bool
    probe: object
    spans: object
    tally: Tally = field(default_factory=Tally)

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def window(self) -> Tuple[float, float]:
        """The measured window, starting now."""
        now = time.perf_counter()
        return now, now + self.seconds

    def traced(self, i: int) -> bool:
        """Traced runs trace every other unit, so drift in host speed
        falls on both sides of the tracing-overhead comparison alike."""
        return self.trace and i % 2 == 1


def seeds(rng: np.random.Generator, count: int) -> List[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _drive(ctx: Context, one: Callable[[int, object], Unit],
           warmup: int) -> Tuple[List[Unit], Tuple[float, float]]:
    """Run ``one`` back to back through the window (one connection)."""
    for i in range(warmup):
        one(-1 - i, _NULL)
    ctx.probe.measure()
    window = ctx.window()
    units = []
    while time.perf_counter() < window[1]:
        i = len(units)
        units.append(one(i, ctx.spans if ctx.traced(i) else _NULL))
    return units, window


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def fleet(ctx: Context) -> Measured:
    from repro.campaign import (ProcessPoolExecutor, ScreeningRequest,
                                montecarlo_dies)
    from repro.paper import paper_setup

    setups = coldstart.script_starts(
        coldstart.FLEET_START.format(samples=FLEET_SAMPLES,
                                     tolerance=TOLERANCE),
        SETUP_REPS, ctx.probe)
    setup = paper_setup(samples_per_period=FLEET_SAMPLES)
    oracle = Oracle(FLEET_SAMPLES)
    rng = ctx.rng(1)
    lots = [montecarlo_dies(setup.golden_spec, FLEET_LOT, sigma_f0=SIGMA,
                            seed=s) for s in seeds(rng, FLEET_LOTS)]
    pool = ProcessPoolExecutor(2)
    try:
        engine = setup.campaign_engine(tolerance=TOLERANCE, executor=pool)
        threshold = engine.band().threshold

        def one(i: int, spans) -> Unit:
            lot = lots[i % len(lots)]
            result, problem = None, ""
            t0 = time.perf_counter()
            with spans.span("engine.submit", unit=f"lot{i}"):
                try:
                    result = engine.submit(ScreeningRequest(
                        population=lot, band=threshold))
                except Exception as error:  # counted, run continues
                    problem = f"lot {i}: {error!r}"
            t1 = time.perf_counter()
            ctx.probe.measure()
            if result is not None:
                picks = rng.choice(len(lot), FLEET_CHECKS, replace=False)
                ok = oracle.dies_agree(lot.specs, result.ndfs,
                                       result.verdicts, threshold, picks)
                problem = f"lot {i}: oracle mismatch"
            else:
                ok = False
            ctx.tally.record(ok, problem)
            return Unit("lot", t0, t1, len(lot), spans.enabled)

        units, window = _drive(ctx, one, warmup=2)
    finally:
        pool.shutdown()
    return Measured("lot", units, setups, window)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def _coalesced_per_pass(metrics_text: str) -> float:
    values = {}
    for stat in ("sum", "count"):
        match = re.search(rf"^repro_coalesced_requests_{stat} (\S+)$",
                          metrics_text, re.MULTILINE)
        values[stat] = float(match.group(1)) if match else float("nan")
    return values["sum"] / values["count"]


def _check_reply(oracle: Oracle, golden_spec, reply, dies: int,
                 sigma: float, seed: int, die: int,
                 diagnose: bool) -> bool:
    """True when a reply has the shape asked for and its die ``die``
    matches the oracle."""
    from repro.campaign import stream_montecarlo_dies

    if not isinstance(reply, dict):
        return False
    ndfs, verdicts = reply.get("ndfs"), reply.get("verdicts")
    if not (isinstance(ndfs, list) and len(ndfs) == dies
            and isinstance(verdicts, list) and len(verdicts) == dies
            and isinstance(reply.get("threshold"), float)):
        return False
    if diagnose and "diagnosis" not in reply:
        return False
    spec = next(iter(stream_montecarlo_dies(
        golden_spec, die + 1, chunk_size=1, sigma_f0=sigma, seed=seed,
        start=die))).specs[0]
    return oracle.dies_agree({die: spec}, {die: ndfs[die]},
                             {die: verdicts[die]}, reply["threshold"], [die])


def _connection(ctx: Context, c: int, window: Tuple[float, float], client,
                check: Callable[..., bool], units: List[Unit]) -> None:
    """One closed-loop connection: requests back to back until the
    window ends, each one an operation in ``ctx.tally``.

    Anything a request raises -- the call, an error reply, or the
    oracle check on a malformed reply -- fails that request and the
    loop goes on, so no request goes uncounted.
    """
    rng = ctx.rng(2, c)
    order: List[Tuple[str, int, float]] = []
    i = 0
    probed = 0.0
    while time.perf_counter() < window[1]:
        what = f"conn {c} request {i}"
        try:
            # Each connection probes between its own requests, so the
            # two together probe about every SERVICE_PROBE_EVERY.
            if time.perf_counter() - probed >= \
                    SERVICE_PROBE_EVERY * SERVICE_CONNECTIONS:
                ctx.probe.measure()
                probed = time.perf_counter()
            if not order:
                order = [SERVICE_BLOCK[k] for k in
                         rng.permutation(len(SERVICE_BLOCK))]
            kind, dies, sigma = order.pop()
            what = f"{kind} {c}/{i}"
            seed = int(rng.integers(0, 2**31 - 1))
            diagnose = kind.startswith("diagnose")
            traced = ctx.traced(i)
            spans = ctx.spans if traced else _NULL
            call, name = ((client.diagnose, "ServiceClient.diagnose")
                          if diagnose else
                          (client.campaign, "ServiceClient.campaign"))
            t0 = time.perf_counter()
            with spans.span(name, unit=f"c{c}r{i}"):
                reply = call(kind="mc", dies=dies, sigma=sigma, seed=seed)
            units.append(Unit(kind, t0, time.perf_counter(), dies, traced))
            ok = isinstance(reply, dict)
            if ok and i % SERVICE_CHECK_EVERY == 0:
                ok = check(reply, dies, sigma, seed, int(rng.integers(dies)),
                           diagnose)
            problem = f"{what}: oracle mismatch"
        except Exception as error:  # counted, run continues
            ok, problem = False, f"{what}: {error!r}"
        ctx.tally.record(ok, problem)
        i += 1


def service(ctx: Context) -> Measured:
    from repro.paper import paper_setup
    from repro.service import ServiceClient

    log_path = os.path.join(ctx.work, "serve.log")
    server, url, setups = coldstart.serve_starts(
        coldstart.serve_args(SERVICE_SAMPLES, TOLERANCE), SETUP_REPS,
        ctx.probe, log_path)
    try:
        golden_spec = paper_setup(samples_per_period=SERVICE_SAMPLES) \
            .golden_spec
        oracle = Oracle(SERVICE_SAMPLES)
        oracle_lock = threading.Lock()

        def check(*args) -> bool:
            with oracle_lock:
                return _check_reply(oracle, golden_spec, *args)

        # Warm the connection path once per client before timing.
        clients = [ServiceClient(url, client_id=f"conn{c}", timeout=60)
                   for c in range(SERVICE_CONNECTIONS)]
        for c, client in enumerate(clients):
            client.campaign(kind="mc", dies=1, seed=c)
        per_connection: List[List[Unit]] = [[] for _ in clients]
        window = ctx.window()
        threads = [threading.Thread(target=_connection, args=(
            ctx, c, window, client, check, per_connection[c]))
            for c, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ctx.probe.measure()
        per_pass = _coalesced_per_pass(ServiceClient(url).metrics_text())
    finally:
        coldstart.stop(server, signal.SIGTERM)
    units = sorted((u for conn in per_connection for u in conn),
                   key=lambda u: u.start)
    # The largest lot is the gated unit: its latency is mostly compute,
    # which the host-speed correction handles.  A 1-die lot mostly
    # waits out the batcher's fixed linger, which a slow host does not
    # lengthen, so correcting it would shorten it wrongly.  Throughput
    # counts every request class, so per-request cost shows in it.
    return Measured(f"lot{SERVICE_LOT}", units, setups, window,
                    requests_per_pass=per_pass, rate_over_window=True)


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------
def sharded(ctx: Context) -> Measured:
    from repro.paper import paper_setup
    from repro.shard import MonteCarloFleet

    setups = coldstart.script_starts(
        coldstart.SHARDED_START.format(samples=SHARDED_SAMPLES,
                                       tolerance=TOLERANCE),
        SETUP_REPS, ctx.probe)
    setup = paper_setup(samples_per_period=SHARDED_SAMPLES)
    engine = setup.campaign_engine(tolerance=TOLERANCE)
    threshold = engine.band().threshold
    oracle = Oracle(SHARDED_SAMPLES)
    rng = ctx.rng(3)
    fleets = [MonteCarloFleet(setup.golden_spec, SHARDED_DIES,
                              sigma_f0=SIGMA, seed=s)
              for s in seeds(rng, SHARDED_FLEETS)]
    # The in-process stream over the same fleet is the merge oracle.
    references = [engine.run_stream(f.chunks(0, len(f)), band=threshold)
                  for f in fleets]

    def one(i: int, spans) -> Unit:
        k = i % len(fleets)
        fleet_, reference = fleets[k], references[k]
        result, problem = None, ""
        t0 = time.perf_counter()
        with spans.span("engine.run_sharded", unit=f"campaign{i}"):
            try:
                result = engine.run_sharded(fleet_, shards=2,
                                            band=threshold)
            except Exception as error:  # counted, run continues
                problem = f"campaign {i}: {error!r}"
        t1 = time.perf_counter()
        ctx.probe.measure(coldstart.PROBES_PER_SIDE)
        ok = result is not None
        if ok:
            ok = (np.array_equal(result.ndfs, reference.ndfs)
                  and np.array_equal(result.verdicts, reference.verdicts))
            for die in rng.choice(len(fleet_), SHARDED_CHECKS,
                                  replace=False).tolist():
                spec = next(iter(fleet_.chunks(die, die + 1))).specs[0]
                ok = ok and oracle.dies_agree(
                    {die: spec}, result.ndfs, result.verdicts, threshold,
                    [die])
            problem = f"campaign {i}: merge or oracle mismatch"
        ctx.tally.record(ok, problem)
        return Unit("campaign", t0, t1, len(fleet_), spans.enabled)

    units, window = _drive(ctx, one, warmup=0)
    return Measured("campaign", units, setups, window)


WORKLOADS = {"fleet": fleet, "service": service, "sharded": sharded}
