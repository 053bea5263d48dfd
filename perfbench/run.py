"""Benchmark entry point: one workload, one run, one JSON result line.

From the root of a checkout::

    python3 perfbench/run.py --workload fleet|service|sharded \\
        --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces
every other unit of the workload, then replays one lot
through every layer (see ``layers.py``) and reports the per-layer
metrics.  Every timing is scaled to reference host speed by the probe
in ``hostprobe.py``.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _metric_rows(measured, probe, traced: bool):
    """``name -> (corrected, raw, samples)`` for every end-to-end timing,
    over the traced or the untraced units."""
    from benchstats import median

    primary = [u for u in measured.units
               if u.traced == traced and u.kind == measured.primary]
    raw = [u.end - u.start for u in primary]
    corrected = [(u.end - u.start) * probe.factor(u.start, u.end)
                 for u in primary]
    rows = {"p50_ms": (median(corrected) * 1e3, median(raw) * 1e3,
                       len(primary))}
    if measured.rate_over_window:
        # Every unit, traced or not: the window holds them all.
        start, end = measured.window[0], max(u.end for u in measured.units)
        dies = sum(u.dies for u in measured.units)
        rows["dies_per_s"] = (dies / ((end - start)
                                      * probe.factor(start, end)),
                              dies / (end - start), len(measured.units))
    else:
        rows["dies_per_s"] = (
            median([u.dies / c for u, c in zip(primary, corrected)]),
            median([u.dies / r for u, r in zip(primary, raw)]),
            len(primary))
    rows["setup_s"] = (median([c for _, c in measured.setups]),
                       median([r for r, _ in measured.setups]),
                       len(measured.setups))
    return rows


def _catalog(section: str):
    """``(name, unit)`` of every metric in one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[section]]


def _class_lines(measured, probe):
    """Median and tail per request class, where a workload has several."""
    from benchstats import highest_tail, median

    kinds = sorted({u.kind for u in measured.units})
    if len(kinds) < 2:
        return []
    lines = []
    for kind in kinds:
        units = [u for u in measured.units if u.kind == kind and not u.traced]
        values = [(u.end - u.start) * probe.factor(u.start, u.end) * 1e3
                  for u in units]
        raw = median([(u.end - u.start) * 1e3 for u in units])
        tail = highest_tail(values)
        tail_text = (f"p{tail[0]:g} {tail[1]:.3f} ms" if tail
                     else "tail refused (<10 samples beyond p90)")
        lines.append(f"  {kind:<10} p50 {median(values):.3f} ms  "
                     f"{tail_text}  (n={len(values)}; raw p50 {raw:.3f} ms)")
    return lines


def _stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    Shared-memory executors start the tracker in this process; it
    would otherwise outlive the run by a moment after this process
    exits.  ``_stop`` is private, so it is used only where present.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet", "service", "sharded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + existing
                                      if existing else "")
    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = None

    import layers
    from benchstats import median
    from hostprobe import Probe
    from spanlog import NullSpanLog, SpanLog
    from workloads import WORKLOADS, Context

    spans = SpanLog() if args.trace else NullSpanLog()
    probe = Probe()
    try:
        ctx = Context(work, args.seed, args.seconds, bool(args.trace),
                      probe, spans)
        measured = WORKLOADS[args.workload](ctx)
        untraced = _metric_rows(measured, probe, traced=False)
        class_lines = _class_lines(measured, probe)
        if args.trace:
            values = layers.run(ctx, layers.PLANS[args.workload],
                                measured.requests_per_pass)
            traced = _metric_rows(measured, probe, traced=True)
            values["trace.overhead_pct"] = (
                traced["p50_ms"][0] / untraced["p50_ms"][0] - 1.0) * 100.0
            values["host.probe_ms"] = median(probe.timeline.values())
            for name, (_, raw, _) in untraced.items():
                values[f"raw.{name}"] = raw
            spans.write(os.path.join(
                out_dir, f"spans-{args.workload}-{args.seed}.json"))
    finally:
        probe.close()
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        catalog, counts = _catalog("per_layer"), {}
    else:
        catalog = _catalog("end_to_end")
        values = {name: value for name, (value, _, _) in untraced.items()}
        counts = {name: n for name, (_, _, n) in untraced.items()}
        # The largest process of the run: the generator itself or any
        # process it started and reaped (server, workers, fresh starts).
        own_mb, child_mb = (
            resource.getrusage(who).ru_maxrss / 1024.0
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        values["peak_rss_mb"] = max(own_mb, child_mb)
        counts["peak_rss_mb"] = 1

    tally = ctx.tally
    print(f"perfbench {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in catalog:
        n = counts.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:<28} {values[name]:>14.6g} {unit}{suffix}")
    if class_lines:
        print("  request classes (corrected, untraced):")
        for line in class_lines:
            print(line)
    if not args.trace:
        print(f"  peak rss: generator {own_mb:.1f} MiB, largest child "
              f"{child_mb:.1f} MiB")
    print(f"  operations attempted {tally.attempted}, failed {tally.failed}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalog},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
