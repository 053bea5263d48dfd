"""What each metric means per workload, and what it should move.

``BENCHMARK.json`` holds every metric's name, unit and direction, and
``run.py`` reads them from there.  Its schema has no field for the
reasoning, so this module keeps it: for every per-layer metric, the
end-to-end metric and workload it should move and the workloads where
it should not (``LAYER_NOTES``).  A self-test checks that the two files
name the same per-layer metrics.

Every workload reports every listed metric, so the end-to-end names
are generic; per workload they mean (timings at reference host speed):

``setup_s``
    Fresh interpreter until ready to screen, median of 5 starts.
    fleet: import, engine on a 2-process pool, golden, band and a 2-die
    pass that starts the workers.  service: ``repro serve`` until it
    prints its URL (adds the fault-dictionary compile and the bind).
    sharded: the coordinator's import, engine, golden and band.
``dies_per_s``
    fleet and sharded: dies of one pass or one campaign over its time,
    median.  Every pass or campaign has the same size, so there this is
    that size over ``p50_ms`` and the two gates move together.
    service: dies screened over every request class (1-, 8- and 256-die
    lots and 8-die diagnoses, both connections) per second of the
    measured window, so per-request cost and diagnosis count in it.
``p50_ms``
    Median latency of the gated unit.  fleet: a 2048-die lot.
    service: a 256-die ``/campaign``, client side.  sharded: a
    campaign's wall time.
``peak_rss_mb``
    Peak RSS of the largest process the run started or ran in.  On
    fleet and sharded the engine runs in the generator process, so its
    peak also holds the oracle's per-die tester and, on sharded, the
    in-process ``run_stream`` references.

The service gates its 256-die lots because their latency is mostly
compute, which the host-speed correction handles.  A 1-die lot mostly
waits out the batcher's fixed 5 ms linger, which a slow host does not
lengthen: on a 2-vCPU VM, in a phase where the probe read 2x slower,
corrected 1-die latency fell 32% while 256-die latency moved 2%.  The
other classes (1- and 8-die lots, 8-die diagnoses) are printed with
their tails, not gated.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class Note(NamedTuple):
    #: The end-to-end metric(s) and workload(s) a change here moves.
    moves: str
    #: Where such a change should not show.
    steady: str


_FRONT_HALF = Note("dies_per_s on fleet; p50_ms and dies_per_s on service",
                   "1-die latency on service (printed)")
_IMPORT = Note("setup_s on all; dies_per_s on sharded",
               "dies_per_s on fleet and service")

LAYER_NOTES: Dict[str, Note] = {
    "traces.us_per_die": _FRONT_HALF,
    "encode.us_per_die": _FRONT_HALF,
    "signature.us_per_die": _FRONT_HALF,
    "ndf.us_per_die": _FRONT_HALF,
    "engine.call_overhead_ms": Note(
        "dies_per_s on service; its 1- and 8-die latency (printed)",
        "dies_per_s on fleet"),
    "executor.pool_speedup": Note("dies_per_s on fleet",
                                  "every service metric"),
    "executor.shm_speedup": Note(
        "nothing today (no workload screens trace stacks)",
        "every metric on every workload"),
    "cache.golden_ms": Note("setup_s on all",
                            "dies_per_s and p50_ms everywhere"),
    "cache.band_ms": Note("setup_s on all",
                          "dies_per_s and p50_ms everywhere"),
    "diagnosis.compile_ms": Note("setup_s on service", "fleet, sharded"),
    "diagnosis.match_us_per_die": Note(
        "dies_per_s on service; its 8-die diagnose latency (printed)",
        "fleet, sharded"),
    "session.lot1_ms": Note(
        "dies_per_s on service; its 1-die latency (printed)",
        "fleet, sharded"),
    "session.lot256_ms": Note("p50_ms and dies_per_s on service",
                              "fleet, sharded"),
    "batcher.wait_ms": Note(
        "dies_per_s on service and its 1-die latency (bounds what a "
        "linger change can save)", "fleet, sharded"),
    "http.overhead_ms": Note(
        "dies_per_s on service and its 1-die latency", "fleet, sharded"),
    "batcher.requests_per_pass": Note("p50_ms and dies_per_s on service",
                                      "fleet, sharded"),
    "checkpoint.bytes_per_shard": Note("dies_per_s on sharded",
                                       "fleet, service"),
    "checkpoint.merge_ms": Note("dies_per_s on sharded", "fleet, service"),
    "shard.overhead_s": Note("dies_per_s and p50_ms on sharded",
                             "fleet, service"),
    "import.cli_s": _IMPORT,
    "import.modules": _IMPORT,
    "import.scipy_modules": _IMPORT,
    "host.probe_ms": Note(
        "nothing: a change that moves it measured the probe, not itself",
        "-"),
    "raw.setup_s": Note("nothing (uncorrected setup_s)", "-"),
    "raw.dies_per_s": Note("nothing (uncorrected dies_per_s)", "-"),
    "raw.p50_ms": Note("nothing (uncorrected p50_ms)", "-"),
    "trace.overhead_pct": Note("nothing (benchmark's own span cost)", "-"),
}
