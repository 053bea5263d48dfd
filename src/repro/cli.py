"""Command-line interface: regenerate the paper's artifacts from a shell.

::

    python -m repro info                    # bench summary
    python -m repro zonemap                 # Fig. 6 ASCII zone map
    python -m repro chronogram [--dev 0.1]  # Fig. 7 chronogram + NDF
    python -m repro sweep [--points 21]     # Fig. 8 NDF sweep
    python -m repro test --dev 0.08 [--tolerance 0.05]
                                            # one PASS/FAIL measurement
    python -m repro campaign --dies 500 [--executor pool] [--json]
                                            # batched fleet screening
    python -m repro campaign --dies 100000 --stream
                                            # bounded-memory streaming
    python -m repro campaign --dies 100000 --stream --checkpoint ck.npz
                                            # crash-safe streaming
                                            # (re-run resumes)
    python -m repro campaign --dies 20000 --shards 4
                                            # sharded subprocess
                                            # workers, merged
                                            # bit-identical
    python -m repro campaign --dies 200 --repeats 20
                                            # Section IV-C noise repeats
    python -m repro campaign --dies 500 --profile --trace-out t.json
                                            # per-stage profile +
                                            # Chrome/Perfetto trace
    python -m repro campaign --scenario faults --second-signature auto
                                            # two-channel screening
    python -m repro diagnose --per-fault 10 [--top-k 3] [--json]
                                            # fault-dictionary diagnosis
    python -m repro diagnose --second-signature auto
                                            # split ambiguity groups
    python -m repro diagnose --save dict.npz --per-fault 0
                                            # compile + persist only
    python -m repro serve --port 8765 [--rate 50]
                                            # screening-as-a-service
    python -m repro serve --store [--deadline 30 --max-queue 256]
                                            # crash-safe service (warm
                                            # artifacts persist)
    python -m repro client campaign --dies 50 --seed 7
                                            # talk to a running server

Every command runs on the calibrated bench of :mod:`repro.paper`; the
CLI is intentionally thin -- anything deeper should use the library
API.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Analog Circuit Test Based on a "
                    "Digital Signature' (DATE 2010)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="bench configuration summary")

    sub.add_parser("zonemap", help="Fig. 6 zone map (ASCII)")

    chrono = sub.add_parser("chronogram",
                            help="Fig. 7 chronogram and NDF")
    chrono.add_argument("--dev", type=float, default=0.10,
                        help="relative f0 deviation (default 0.10)")

    sweep = sub.add_parser("sweep", help="Fig. 8 NDF-vs-deviation sweep")
    sweep.add_argument("--points", type=int, default=21,
                       help="sweep points between -20%% and +20%%")

    test = sub.add_parser("test", help="PASS/FAIL one deviated unit")
    test.add_argument("--dev", type=float, required=True,
                      help="relative f0 deviation of the unit")
    test.add_argument("--tolerance", type=float, default=0.05,
                      help="accepted |f0| tolerance (default 0.05)")

    campaign = sub.add_parser(
        "campaign", help="batched signature screening of a population")
    campaign.add_argument(
        "--scenario", default="mc",
        choices=["mc", "sweep", "grid", "faults", "monitor-mc",
                 "corners"],
        help="population kind (default: Monte Carlo dies)")
    campaign.add_argument("--dies", type=_non_negative_int, default=200,
                          help="population size for mc/monitor-mc "
                               "(default 200)")
    campaign.add_argument("--sigma", type=float, default=0.03,
                          help="1-sigma relative f0 spread (mc)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="deterministic per-die seed root")
    campaign.add_argument("--tolerance", type=float, default=0.05,
                          help="ground-truth |f0| tolerance")
    campaign.add_argument("--samples", type=int, default=2048,
                          help="trace samples per period")
    campaign.add_argument("--executor", default="serial",
                          choices=["serial", "pool"],
                          help="chunk scheduler: serial or process pool")
    campaign.add_argument("--workers", type=int, default=None,
                          help="pool size (with --executor pool); "
                               "with --shards --listen: wait for N "
                               "workers to connect before dispatching")
    campaign.add_argument("--stream", action="store_true",
                          help="stream the population in bounded-"
                               "memory chunks (mc scenario)")
    campaign.add_argument("--chunk", type=_positive_int, default=1024,
                          help="streamed chunk size (with --stream)")
    campaign.add_argument("--checkpoint", metavar="PATH", default=None,
                          help="crash-safe streaming (with --stream): "
                               "persist partial fleet stats to PATH "
                               "and resume behind an existing "
                               "checkpoint, bit-identical to the "
                               "uninterrupted run")
    campaign.add_argument("--checkpoint-every", type=_positive_int,
                          default=1, metavar="N",
                          help="chunks between checkpoint saves "
                               "(default 1)")
    campaign.add_argument("--shards", type=_positive_int, default=None,
                          metavar="N",
                          help="split the campaign into N shards run "
                               "by subprocess workers and merge the "
                               "partial checkpoints bit-identical to "
                               "the monolithic run (mc/sweep/grid "
                               "scenarios)")
    campaign.add_argument("--shard-chunk", type=_positive_int,
                          default=None, metavar="C",
                          help="per-worker streamed chunk size (with "
                               "--shards; default: --chunk)")
    campaign.add_argument("--listen", metavar="HOST:PORT",
                          default=None,
                          help="with --shards: accept remote TCP "
                               "workers instead of spawning "
                               "subprocesses (start them with: repro "
                               "shard-worker --connect HOST:PORT); "
                               "port 0 binds an ephemeral port")
    campaign.add_argument("--shard-autotune", type=float,
                          default=None, metavar="SECONDS",
                          help="with --shards: carve shard sizes "
                               "from each worker's observed die "
                               "rate, targeting SECONDS per shard, "
                               "instead of the static equal split")
    campaign.add_argument("--repeats", type=_non_negative_int,
                          default=0,
                          help="noisy measurements per die (Section "
                               "IV-C campaign; mc scenario)")
    campaign.add_argument("--noise", type=float, default=None,
                          help="3-sigma noise spread in volts (with "
                               "--repeats; default: the paper's "
                               "0.015 V)")
    campaign.add_argument("--second-signature", metavar="CONFIG",
                          default=None,
                          help="screen through a second monitor bank "
                               "as well: 'auto' searches the bank "
                               "that best splits the fault "
                               "dictionary's ambiguity groups, or "
                               "give a candidate name like "
                               "'bias-0.10_level1e-05'")
    campaign.add_argument("--profile", action="store_true",
                          help="trace the run and print a per-stage "
                               "profile table (seconds per pipeline "
                               "stage; with --json, a 'profile' key)")
    campaign.add_argument("--trace-out", metavar="PATH", default=None,
                          help="write the run's spans as Chrome "
                               "trace_event JSON (load in "
                               "chrome://tracing or Perfetto; implies "
                               "tracing)")
    campaign.add_argument("--json", action="store_true",
                          help="emit a machine-readable JSON summary")

    # Real parsing happens in repro.shard.worker.worker_cli (main()
    # intercepts the subcommand before this tree); registered here so
    # `repro --help` lists it.
    sub.add_parser(
        "shard-worker",
        help="run a shard worker: stdin/stdout when spawned by a "
             "coordinator, or --connect HOST:PORT to dial a "
             "campaign listening with --listen (multi-node)",
        add_help=False)

    diagnose = sub.add_parser(
        "diagnose",
        help="fault-dictionary diagnosis of failing dies")
    diagnose.add_argument("--top-k", type=_positive_int, default=3,
                          help="fault candidates reported per die")
    diagnose.add_argument("--metric", default="ndf",
                          choices=["ndf", "dwell"],
                          help="die-to-fault distance (default: exact "
                               "NDF; dwell = zone-occupancy only)")
    diagnose.add_argument("--per-fault", type=_non_negative_int,
                          default=5,
                          help="Monte Carlo-perturbed dies injected "
                               "per fault (0: dictionary report only)")
    diagnose.add_argument("--sigma", type=float, default=0.02,
                          help="1-sigma relative component spread of "
                               "the perturbed fleet")
    diagnose.add_argument("--seed", type=int, default=0,
                          help="deterministic fleet seed root")
    diagnose.add_argument("--tolerance", type=float, default=0.05,
                          help="ground-truth |f0| tolerance of the "
                               "decision band")
    diagnose.add_argument("--samples", type=int, default=2048,
                          help="trace samples per period")
    diagnose.add_argument("--no-parametric", action="store_true",
                          help="compile opens/shorts only (skip the "
                               "parametric deviation classes)")
    diagnose.add_argument("--save", metavar="PATH", default=None,
                          help="persist the compiled dictionary as "
                               ".npz")
    diagnose.add_argument("--load", metavar="PATH", default=None,
                          help="load a saved dictionary instead of "
                               "compiling")
    diagnose.add_argument("--second-signature", metavar="CONFIG",
                          default=None,
                          help="add an adaptive second signature "
                               "channel: 'auto' searches the "
                               "candidate banks for the one that "
                               "best splits the ambiguity groups, or "
                               "give a candidate name like "
                               "'bias-0.10_level1e-05'; diagnosis "
                               "then combines both channels")
    diagnose.add_argument("--json", action="store_true",
                          help="emit a machine-readable JSON summary")

    serve = sub.add_parser(
        "serve",
        help="serve screening over HTTP (one warm session, request "
             "coalescing, /metrics)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default 8765; 0 = ephemeral)")
    serve.add_argument("--samples", type=int, default=2048,
                       help="trace samples per period")
    serve.add_argument("--tolerance", type=float, default=0.05,
                       help="decision-band |f0| tolerance")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-client requests/second (default: "
                            "unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="per-client burst depth (default: rate)")
    serve.add_argument("--window-ms", type=float, default=5.0,
                       help="coalescing linger window in milliseconds "
                            "(default 5)")
    serve.add_argument("--max-dies", type=_positive_int,
                       default=100_000,
                       help="die cap per coalesced engine pass")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pre-deriving golden/band/dictionary "
                            "(first requests then pay the compile)")
    serve.add_argument("--store", nargs="?", const=True, default=None,
                       metavar="PATH",
                       help="persist warm artifacts on disk so a "
                            "restart skips the re-derive (bare "
                            "--store uses $REPRO_STORE or "
                            "~/.repro/store)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline; a screening "
                            "request past it answers 504 (default: "
                            "none)")
    serve.add_argument("--max-queue", type=_positive_int, default=None,
                       metavar="N",
                       help="bound on queued screening requests; "
                            "past it the server sheds load with 503 "
                            "+ Retry-After (default: unbounded)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="how long SIGTERM/^C waits for in-flight "
                            "requests before exiting (default 30)")
    serve.add_argument("--trace", nargs="?", const=True, default=None,
                       metavar="PATH",
                       help="record server-side tracing spans (every "
                            "span carries the client's request id); "
                            "give a PATH to write them as Chrome "
                            "trace JSON on shutdown")

    client = sub.add_parser(
        "client",
        help="query a running screening service")
    client.add_argument("endpoint",
                        choices=["campaign", "diagnose", "healthz",
                                 "metrics"],
                        help="service endpoint to call")
    client.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")
    client.add_argument("--id", default="cli",
                        help="client identity (X-Client header)")
    client.add_argument("--dies", type=_non_negative_int, default=50,
                        help="Monte Carlo lot size (campaign/diagnose)")
    client.add_argument("--sigma", type=float, default=0.03,
                        help="1-sigma relative f0 spread")
    client.add_argument("--seed", type=int, default=0,
                        help="deterministic per-die seed root")
    client.add_argument("--top-k", type=_positive_int, default=3,
                        help="fault candidates per die (diagnose)")
    client.add_argument("--timeout", type=float, default=120.0,
                        help="request timeout in seconds")
    client.add_argument("--retries", type=_non_negative_int, default=0,
                        help="transient-failure retries with backoff "
                             "(default 0 = fail fast); every attempt "
                             "replays the same request id and "
                             "idempotency key")
    return parser


def _cmd_info(setup) -> int:
    from repro.paper import FIG6_ZONE_CODES, FIG7_NDF_10PCT

    stim = setup.stimulus
    print("bench: 'Analog Circuit Test Based on a Digital Signature'")
    print(f"  stimulus: {stim!r}")
    print(f"  period:   {stim.period() * 1e6:.0f} us")
    print(f"  golden:   f0 = {setup.golden_spec.f0_hz / 1e3:.1f} kHz, "
          f"Q = {setup.golden_spec.q}, G = {setup.golden_spec.gain}")
    print(f"  monitors: {setup.encoder.num_bits} (Table I curves, "
          f"MSB = curve 1)")
    print(f"  Fig. 6 zone codes: {sorted(FIG6_ZONE_CODES)}")
    print(f"  paper NDF(+10 %): {FIG7_NDF_10PCT}")
    return 0


def _cmd_zonemap(setup) -> int:
    print(setup.encoder.ascii_zone_map(width=64, height=24))
    census = setup.encoder.zone_census(grid=128)
    print("\nrealized zones:", " ".join(str(c) for c in sorted(census)))
    return 0


def _cmd_chronogram(setup, deviation: float) -> int:
    from repro.analysis import ascii_chronogram, build_chronogram

    golden = setup.tester.golden_signature()
    observed = setup.tester.signature_of(setup.deviated_filter(deviation))
    data = build_chronogram(observed, golden)
    print(ascii_chronogram(data, width=100, height=14))
    print(f"\nNDF({deviation:+.0%} f0) = {data.ndf:.4f}"
          + ("   (paper: 0.1021)" if abs(deviation - 0.10) < 1e-9
             else ""))
    return 0


def _cmd_sweep(setup, points: int) -> int:
    from repro.analysis import ascii_xy_plot

    calibration = setup.fig8_sweep(np.linspace(-0.20, 0.20, points))
    print(ascii_xy_plot(calibration.deviations, calibration.ndfs,
                        width=72, height=18, x_label="f0 deviation",
                        y_label="NDF"))
    r2 = calibration.linearity_r2()
    print(f"linearity R^2: {r2[0]:.3f} / {r2[1]:.3f}; "
          f"symmetry error {calibration.symmetry_error():.4f}")
    return 0


def _cmd_test(setup, deviation: float, tolerance: float) -> int:
    band = setup.fig8_sweep(
        np.linspace(-2 * tolerance, 2 * tolerance, 9)
    ).band_for_tolerance(tolerance)
    result = setup.test_deviation(deviation, band)
    print(f"unit f0 {deviation:+.1%} vs tolerance +-{tolerance:.0%}: "
          f"{result.verdict}")
    return 0 if result.verdict.passed == (abs(deviation) <= tolerance) \
        else 1


def _campaign_population(setup, args):
    """Population selected on the command line, plus the aligned fault
    list for the faults scenario (None otherwise) -- reports name
    failing dies by fault, not by index."""
    from repro.campaign import (
        deviation_sweep_population,
        fault_dictionary,
        montecarlo_dies,
        montecarlo_monitor_banks,
        parameter_grid,
        temperature_corners,
    )

    if args.scenario == "mc":
        return montecarlo_dies(setup.golden_spec, args.dies,
                               sigma_f0=args.sigma,
                               seed=args.seed), None
    if args.scenario == "sweep":
        return deviation_sweep_population(
            setup.golden_spec, np.linspace(-0.20, 0.20, 21)), None
    if args.scenario == "grid":
        axis = np.linspace(-0.15, 0.15, 7)
        return parameter_grid(setup.golden_spec, axis, axis), None
    if args.scenario == "faults":
        from repro.filters.towthomas import TowThomasValues

        population, faults = fault_dictionary(
            TowThomasValues.from_spec(setup.golden_spec))
        return population, faults
    if args.scenario == "monitor-mc":
        from repro.devices.process import MonteCarloSampler
        from repro.monitor.configurations import table1_bank

        return montecarlo_monitor_banks(
            table1_bank(), args.dies,
            sampler=MonteCarloSampler(rng=args.seed)), None
    if args.scenario == "corners":
        from repro.devices.temperature import industrial_range

        return temperature_corners(industrial_range(5)), None
    raise AssertionError("unreachable")


def _second_bank(engine, spec):
    """(name, encoder) of the requested second signature bank.

    ``auto`` compiles the engine's fault dictionary and searches the
    candidate family for the bank that best splits its ambiguity
    groups; any other value is a candidate name pinned verbatim
    (e.g. ``bias-0.10_level1e-05``).
    """
    from repro.monitor.second_signature import candidate_by_name

    if spec != "auto":
        candidate = candidate_by_name(spec)
        return candidate.name, candidate.encoder
    from repro.diagnosis import (
        compile_fault_dictionary,
        search_second_signature,
    )

    dictionary = compile_fault_dictionary(engine)
    search = search_second_signature(engine, dictionary)
    if search.best is None:
        raise ValueError("no candidate bank splits any ambiguity "
                         "group for this configuration")
    return search.best.name, search.best.encoder


def _shard_fleet(setup, args):
    """Shardable fleet description for ``campaign --shards``.

    The mc scenario ships a seed recipe (workers regenerate their die
    ranges from the global spawn keys); sweep/grid materialize the
    (small) population once and ship slices.
    """
    from repro.shard import MonteCarloFleet, as_fleet

    chunk = args.shard_chunk if args.shard_chunk is not None \
        else args.chunk
    if args.scenario == "mc":
        return MonteCarloFleet(setup.golden_spec, args.dies,
                               sigma_f0=args.sigma, seed=args.seed,
                               chunk_size=chunk)
    population, __ = _campaign_population(setup, args)
    return as_fleet(population, chunk_size=chunk)


def _campaign_executor(args):
    """Executor selected on the command line (None = serial)."""
    from repro.campaign import ProcessPoolExecutor

    if args.executor == "pool":
        return ProcessPoolExecutor(max_workers=args.workers)
    return None


def _campaign_tracer(args):
    """An installed tracer when --profile/--trace-out ask for one."""
    if not (args.profile or args.trace_out):
        return None
    from repro.obs import Tracer, install_tracer

    tracer = Tracer()
    install_tracer(tracer)
    return tracer


def _profile_outputs(args, tracer):
    """(profile dict, written trace path) for a traced campaign."""
    from repro.obs import stage_profile

    profile = stage_profile(tracer)
    trace_path = (tracer.write_chrome_trace(args.trace_out)
                  if args.trace_out else None)
    return profile, trace_path


def _print_profile(profile, timing, trace_path) -> None:
    from repro.obs import render_profile

    print()
    print(render_profile(profile, timing))
    if trace_path is not None:
        print(f"trace: {trace_path} "
              f"(load in chrome://tracing or ui.perfetto.dev)")


def _cmd_campaign(setup, args) -> int:
    from repro.campaign import stream_montecarlo_dies

    if (args.stream or args.repeats) and args.scenario != "mc":
        print("--stream/--repeats require the mc scenario",
              file=sys.stderr)
        return 2
    if args.stream and args.repeats:
        print("--stream and --repeats are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.noise is not None and not args.repeats:
        print("--noise only applies to a noise campaign; add "
              "--repeats N", file=sys.stderr)
        return 2
    if args.checkpoint is not None and not args.stream:
        print("--checkpoint requires --stream (checkpointing applies "
              "to streamed campaigns)", file=sys.stderr)
        return 2
    if args.second_signature is not None and args.repeats:
        print("noise campaigns are single-channel; drop "
              "--second-signature or --repeats", file=sys.stderr)
        return 2
    if args.second_signature is not None \
            and args.scenario in ("monitor-mc", "corners"):
        print("--second-signature needs a CUT population (the "
              "monitor-mc/corners scenarios vary the primary bank "
              "itself)", file=sys.stderr)
        return 2
    if args.shard_chunk is not None and args.shards is None:
        print("--shard-chunk only applies to a sharded campaign; add "
              "--shards N", file=sys.stderr)
        return 2
    if args.listen is not None and args.shards is None:
        print("--listen only applies to a sharded campaign; add "
              "--shards N", file=sys.stderr)
        return 2
    if args.shard_autotune is not None and args.shards is None:
        print("--shard-autotune only applies to a sharded campaign; "
              "add --shards N", file=sys.stderr)
        return 2
    if args.listen is not None:
        from repro.shard.transport import parse_endpoint
        try:
            parse_endpoint(args.listen)
        except ValueError as error:
            print(f"--listen: {error}", file=sys.stderr)
            return 2
    if args.shards is not None:
        if args.stream or args.repeats:
            print("--shards runs its own checkpointed streams; drop "
                  "--stream/--repeats", file=sys.stderr)
            return 2
        if args.second_signature is not None:
            print("sharded campaigns are single-channel; drop "
                  "--second-signature", file=sys.stderr)
            return 2
        if args.scenario not in ("mc", "sweep", "grid"):
            print("--shards needs a streaming-capable population "
                  "(mc, sweep or grid)", file=sys.stderr)
            return 2
        if args.executor != "serial":
            print("--shards schedules its own worker processes; "
                  "drop --executor (each worker screens serially)",
                  file=sys.stderr)
            return 2
    executor = _campaign_executor(args)
    engine = setup.campaign_engine(samples_per_period=args.samples,
                                   tolerance=args.tolerance,
                                   executor=executor)
    tracer = None
    faults = None
    second_name = None
    encoders = None
    try:
        if args.second_signature is not None:
            try:
                second_name, second = _second_bank(
                    engine, args.second_signature)
            except ValueError as error:
                print(f"--second-signature: {error}", file=sys.stderr)
                return 2
            encoders = [engine.config.encoder, second]
        if args.profile or args.trace_out:
            # Warm the golden/calibration outside the trace window so
            # the profile covers the screening run itself -- stage
            # span durations then agree with result.timing.
            engine.golden()
            engine.band()
            tracer = _campaign_tracer(args)
        if args.shards is not None:
            if args.listen is not None:
                print(f"listening for shard workers on "
                      f"{args.listen} (start them with: repro "
                      f"shard-worker --connect {args.listen})",
                      file=sys.stderr)
            result = engine.run_sharded(_shard_fleet(setup, args),
                                        shards=args.shards,
                                        band="auto",
                                        workers=args.workers,
                                        listen=args.listen,
                                        autotune_s=args.shard_autotune)
        elif args.repeats:
            population, __ = _campaign_population(setup, args)
            result = engine.run_noise(population,
                                      repeats=args.repeats,
                                      noise=args.noise,
                                      seed=args.seed, band="auto")
            return _report_noise_campaign(args, result, tracer)
        elif args.stream:
            chunks = stream_montecarlo_dies(
                setup.golden_spec, args.dies, chunk_size=args.chunk,
                sigma_f0=args.sigma, seed=args.seed)
            result = engine.run_stream(
                chunks, band="auto", encoders=encoders,
                checkpoint=args.checkpoint,
                checkpoint_every=args.checkpoint_every)
        else:
            population, faults = _campaign_population(setup, args)
            result = engine.run(population, band="auto",
                                encoders=encoders)
    finally:
        if tracer is not None:
            from repro.obs import uninstall_tracer

            uninstall_tracer()
        if executor is not None:
            executor.shutdown()
    profile = trace_path = None
    if tracer is not None:
        profile, trace_path = _profile_outputs(args, tracer)
    if args.json:
        import json

        payload = {
            "scenario": args.scenario,
            "dies": result.num_dies,
            "threshold": result.threshold,
            "pass": result.pass_count,
            "fail": result.fail_count,
            "ndf_mean": (float(np.mean(result.ndfs))
                         if result.num_dies else None),
            "ndf_p95": (result.ndf_percentile(95)
                        if result.num_dies else None),
            "timing": result.timing,
            "executor": result.executor,
        }
        if profile is not None:
            payload["profile"] = profile
        if trace_path is not None:
            payload["trace"] = trace_path
        if result.shard_stats is not None:
            payload["shards"] = result.shard_stats
        if result.channel_ndfs is not None:
            payload["second_signature"] = second_name
            payload["channels"] = [
                {"threshold": float(result.channel_thresholds[k]),
                 "fail": int(np.count_nonzero(
                     ~result.channel_verdicts[:, k]))}
                for k in range(result.num_channels)]
            payload["combined_fail"] = result.combined_fail_count
        if faults is not None:
            detected = set(result.failing_labels())
            payload["faults"] = [
                {"label": fault.label, "kind": fault.kind.value,
                 "target": fault.target,
                 "detected": fault.label in detected}
                for fault in faults]
            payload["fault_escapes"] = [
                fault.label for fault in faults
                if fault.label not in detected]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"campaign: {args.scenario} "
              f"({result.num_dies} dies, band ±{args.tolerance:.0%})")
        if second_name is not None:
            print(f"second bank: {second_name}")
        print(result.summary())
        if result.shard_stats is not None:
            stats = result.shard_stats
            print(f"shards:      {int(stats['planned'])} over "
                  f"{int(stats['workers'])} workers, "
                  f"{int(stats['reassigned'])} reassigned, merge "
                  f"{stats['merge_seconds'] * 1e3:.1f} ms")
        if faults is not None:
            detected = result.failing_labels()
            escaped = [label for label in result.labels
                       if label not in set(detected)]
            print(f"detected:    {', '.join(detected) or '(none)'}")
            if escaped:
                print(f"escapes:     {', '.join(escaped)}")
        if profile is not None:
            _print_profile(profile, result.timing, trace_path)
    return 0


def _report_noise_campaign(args, result, tracer=None) -> int:
    """Print a noise-campaign result (JSON or human-readable)."""
    profile = trace_path = None
    if tracer is not None:
        profile, trace_path = _profile_outputs(args, tracer)
    if args.json:
        import json

        rates = result.detection_rates()
        payload = {
            "scenario": "mc+noise",
            "dies": result.num_dies,
            "repeats": result.repeats,
            "threshold": result.threshold,
            "detection_rate_mean": (float(np.mean(rates))
                                    if result.num_dies else None),
            "ndf_mean": (float(np.mean(result.ndf_matrix))
                         if result.ndf_matrix.size else None),
            "timing": result.timing,
            "executor": result.executor,
        }
        if profile is not None:
            payload["profile"] = profile
        if trace_path is not None:
            payload["trace"] = trace_path
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"noise campaign: mc ({result.num_dies} dies x "
              f"{result.repeats} repeats, band ±{args.tolerance:.0%})")
        print(result.summary())
        if profile is not None:
            _print_profile(profile, result.timing, trace_path)
    return 0


def _cmd_diagnose(setup, args) -> int:
    """Compile/load a fault dictionary and diagnose a faulty fleet."""
    import json

    from repro.diagnosis import (
        FaultDictionary,
        ambiguity_groups,
        compile_fault_dictionary,
        confusion_study,
        default_fault_universe,
        detectability_report,
        fault_distance_matrix,
        json_number,
    )

    if args.load is not None and args.save is not None:
        print("--load and --save are mutually exclusive (--save "
              "persists a freshly compiled dictionary)",
              file=sys.stderr)
        return 2
    if args.load is not None and args.no_parametric:
        print("--no-parametric shapes compilation; it cannot filter "
              "a loaded dictionary", file=sys.stderr)
        return 2
    engine = setup.campaign_engine(samples_per_period=args.samples,
                                   tolerance=args.tolerance)
    if args.load is not None:
        dictionary = FaultDictionary.load(args.load)
        if dictionary.golden_signature != engine.golden().signature:
            print(f"{args.load}: dictionary was compiled for a "
                  f"different bench configuration (golden signature "
                  f"mismatch); recompile with matching --samples",
                  file=sys.stderr)
            return 2
        # The saved threshold documents the compile-time band; the
        # CLI's --tolerance always wins for this run.
        dictionary.threshold = engine.band().threshold
    else:
        dictionary = compile_fault_dictionary(
            engine,
            faults=default_fault_universe(
                parametric=not args.no_parametric))
    saved_path = None
    if args.save is not None:
        saved_path = dictionary.save(args.save)
    coverage = detectability_report(dictionary)
    matrix = fault_distance_matrix(dictionary, metric=args.metric)
    groups = ambiguity_groups(dictionary, matrix=matrix)
    search = None
    second_encoders = None
    if args.second_signature is not None:
        from repro.diagnosis import search_second_signature
        from repro.monitor.second_signature import candidate_by_name

        try:
            candidates = None if args.second_signature == "auto" \
                else [candidate_by_name(args.second_signature)]
        except ValueError as error:
            print(f"--second-signature: {error}", file=sys.stderr)
            return 2
        search = search_second_signature(engine, dictionary,
                                         candidates)
        if search.best is not None:
            second_encoders = search.encoders
        elif candidates is not None:
            # A pinned bank is honoured even when it splits nothing
            # (the user asked for that exact configuration); only
            # "auto" degrades to the single-channel report.
            second_encoders = [engine.config.encoder,
                               candidates[0].encoder]
    study = None
    multi_study = None
    if args.per_fault:
        study = confusion_study(engine, dictionary,
                                per_fault=args.per_fault,
                                sigma=args.sigma, seed=args.seed,
                                metric=args.metric, top_k=args.top_k)
        if second_encoders is not None:
            from repro.diagnosis import compile_multi_fault_dictionary

            multi = compile_multi_fault_dictionary(
                engine, second_encoders, faults=dictionary.faults)
            multi_study = confusion_study(
                engine, multi, per_fault=args.per_fault,
                sigma=args.sigma, seed=args.seed,
                metric=args.metric, top_k=args.top_k)
    if args.json:
        payload = {
            "faults": dictionary.labels,
            "threshold": dictionary.threshold,
            "ndfs": dictionary.ndfs.tolist(),
            "coverage": coverage.coverage,
            "escapes": coverage.escapes,
            "ambiguity_groups": [
                [dictionary.labels[i] for i in group]
                for group in groups if len(group) > 1],
            "metric": args.metric,
        }
        if saved_path is not None:
            payload["saved"] = saved_path
        if study is not None:
            payload["confusion"] = study.to_payload()
            payload["accuracy"] = json_number(study.accuracy)
            payload["group_accuracy"] = json_number(
                study.group_accuracy(groups))
            payload["diagnosis"] = study.diagnosis.to_payload()
        if search is not None:
            payload["second_signature"] = {
                "chosen": (search.best.name if search.best is not None
                           else None),
                "candidates": len(search.scores),
                "resolved_groups": search.resolved_groups,
                "partial_groups": search.partial_groups,
                "invisible_groups": search.invisible_groups,
                "unresolved_groups": search.unresolved_groups,
                "timing": search.timing,
            }
            if multi_study is not None:
                payload["second_signature"]["accuracy"] = json_number(
                    multi_study.accuracy)
                payload["second_signature"]["group_accuracy"] = \
                    json_number(multi_study.group_accuracy(groups))
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"fault dictionary: {len(dictionary)} faults, "
          f"band ±{args.tolerance:.0%} "
          f"(threshold {dictionary.threshold:.4f})")
    print(coverage.summary())
    ambiguous = [group for group in groups if len(group) > 1]
    if ambiguous:
        print("ambiguity:   " + "; ".join(
            "{" + ", ".join(dictionary.labels[i] for i in group) + "}"
            for group in ambiguous))
    if saved_path is not None:
        print(f"saved:       {saved_path}")
    if search is not None:
        print()
        print(search.summary())
    if study is not None:
        print()
        print(study.summary())
        print(f"group top-1: {study.group_accuracy(groups):.1%} "
              f"(ambiguity-group aware)")
        if multi_study is not None:
            print(f"with 2nd signature: top-1 "
                  f"{multi_study.accuracy:.1%} (was "
                  f"{study.accuracy:.1%}), group top-1 "
                  f"{multi_study.group_accuracy(groups):.1%}")
        print()
        report = multi_study if multi_study is not None else study
        print(report.diagnosis.summary(max_rows=8))
    return 0


def _cmd_serve(args) -> int:
    """Run the screening service in the foreground until ^C/SIGTERM.

    Both signals drain gracefully: new screening requests get 503
    while everything already in flight finishes (bounded by
    ``--drain-timeout``), then the process exits.
    """
    import signal
    import threading

    from repro.obs import Tracer, install_tracer, set_log_sink
    from repro.service import ScreeningSession, build_server

    # Structured JSON access/event logs to stderr (stdout stays the
    # human status channel); each line carries the request id.
    set_log_sink(sys.stderr)
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        install_tracer(tracer)
    session = ScreeningSession.from_paper(
        samples_per_period=args.samples, tolerance=args.tolerance,
        store=args.store)
    server = build_server(host=args.host, port=args.port,
                          rate=args.rate, burst=args.burst,
                          window=args.window_ms / 1e3,
                          max_dies=args.max_dies, session=session,
                          deadline=args.deadline,
                          max_queue=args.max_queue)
    if not args.no_warm:
        print("warming session (golden, band, fault dictionary)...",
              flush=True)
        server.warm()
        info = session.store_info
        if info is not None:
            print(f"store: {session.store.root}  "
                  f"({info.hits} hits / {info.misses} misses on warm)",
                  flush=True)
    limit = (f"{args.rate:g}/s per client" if args.rate
             else "unlimited")
    print(f"serving at {server.url}  "
          f"(coalesce window {args.window_ms:g} ms, rate {limit})",
          flush=True)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    stop.wait()
    print("draining (in-flight requests finish, new work gets 503)...",
          flush=True)
    drained = server.drain(timeout=args.drain_timeout)
    if not drained:
        print(f"drain timed out after {args.drain_timeout:g}s",
              file=sys.stderr, flush=True)
    if tracer is not None and isinstance(args.trace, str):
        path = tracer.write_chrome_trace(args.trace)
        print(f"trace: {path} ({len(tracer)} spans)", flush=True)
    return 0 if drained else 1


def _cmd_client(args) -> int:
    """One request against a running service, JSON to stdout."""
    import json

    from repro.service import RetryPolicy, ServiceClient, ServiceError

    retry = (RetryPolicy(max_attempts=args.retries + 1)
             if args.retries else None)
    client = ServiceClient(args.url, client_id=args.id,
                           timeout=args.timeout, retry=retry)
    try:
        if args.endpoint == "metrics":
            print(client.metrics_text(), end="")
            return 0
        if args.endpoint == "healthz":
            payload = client.healthz()
        elif args.endpoint == "campaign":
            payload = client.campaign(kind="mc", dies=args.dies,
                                      sigma=args.sigma,
                                      seed=args.seed)
        else:
            payload = client.diagnose(kind="mc", dies=args.dies,
                                      sigma=args.sigma,
                                      seed=args.seed,
                                      top_k=args.top_k)
    except ServiceError as error:
        print(json.dumps({"status": error.status,
                          **error.payload}, indent=2, sort_keys=True),
              file=sys.stderr)
        return 1
    except OSError as error:
        print(f"{args.url}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw[:1] == ["shard-worker"]:
        # Intercepted before the main argparse tree: when a shard
        # coordinator spawned us, stdin/stdout ARE the protocol
        # channel and must never be touched by argparse banter.  The
        # worker has its own small parser for --connect HOST:PORT
        # (dial a coordinator listening for multi-node workers).
        from repro.shard.worker import worker_cli

        return worker_cli(raw[1:])
    args = _build_parser().parse_args(raw)

    # The service commands build (or talk to) their own bench.
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)

    from repro.paper import paper_setup
    setup = paper_setup(samples_per_period=2048)

    if args.command == "info":
        return _cmd_info(setup)
    if args.command == "zonemap":
        return _cmd_zonemap(setup)
    if args.command == "chronogram":
        return _cmd_chronogram(setup, args.dev)
    if args.command == "sweep":
        return _cmd_sweep(setup, args.points)
    if args.command == "test":
        return _cmd_test(setup, args.dev, args.tolerance)
    if args.command == "campaign":
        return _cmd_campaign(setup, args)
    if args.command == "diagnose":
        return _cmd_diagnose(setup, args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
