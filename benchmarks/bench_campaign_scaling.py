"""Campaign engine at fleet scale: speedup, scaling, executor parity.

Proofs for the batched campaign engine:

* **speedup** -- the campaign beats the seed's per-die
  :class:`~repro.core.testflow.SignatureTester` loop by >= 5x at
  N = 500 dies (the per-die loop is timed for real, not extrapolated);
* **near-linear scaling** -- doubling the population roughly doubles
  campaign wall-clock (golden work is cached, the hot path is
  vectorized);
* **executor parity** -- serial and process-pool executors return
  bit-identical NDF and verdict vectors for the same seeded population;
* **packed-pipeline speedup** -- the CSR signature extraction plus
  fleet-NDF kernel beats the unpacked per-die reference
  (``batch_signatures`` + ``batch_ndf``, the PR 1 back half) by >= 5x
  at N = 2000, and the end-to-end campaign beats the reconstructed
  PR 1 pipeline by >= 2x at N = 5000 -- with bit-identical NDFs;
* **front-half speedup** -- the fused traces+encode front half (PR 4:
  object-free closed-form synthesis plus the fused shared-branch
  encoder) beats the live-reconstructed PR 2 front half with
  bit-identical codes; the before/after per-die stage timings land in
  the machine-readable ``BENCH_4.json`` artifact;
* **certified front half** -- the engine's fast spec front half
  (golden-relative column selection, basis-synthesized traces,
  threshold-table encode, exact recompute of uncertified dies)
  returns the exact public kernels' codes at least 2x faster on
  traces+encode, computes at most 25% of the columns per die on a
  sigma = 0.03 lot, and stays exact on a sigma = 0.15 lot;
* **fleet-NDF kernel** -- on a 256-die lot at 512 samples,
  ``SignatureBatch.ndf_to`` with its lane sums (numpy's pairwise order,
  no per-row loop) takes at most 0.8x the time of the same kernel with
  the lane probe forced to fail (``np.sum`` row by row), and both
  return the scalar ``ndf()`` loop's NDFs bit for bit;
* **Monte-Carlo build** -- ``MonteCarloFleet.chunks`` draws a
  4,096-die range (array evaluation of the seeding) at least 3x faster
  than numpy's per-die reference, with bit-identical deviations,
  labels and specs;
* **stage-timing regression guard** -- per-die stage timings
  (trace/encode/signature/ndf) are compared against the committed
  baseline ``benchmarks/baselines/campaign_stages.json`` with a
  generous threshold, so only real regressions fail the job.

Population sizes honour ``CAMPAIGN_BENCH_N`` (speedup study, default
500), ``CAMPAIGN_BENCH_SCALING`` (comma-separated N list, default
``60,120,240,480``), ``CAMPAIGN_BENCH_STAGE_N`` (packed-pipeline
study, default 2000), ``CAMPAIGN_BENCH_E2E_N`` (end-to-end study,
default 5000) and ``CAMPAIGN_BENCH_FRONT_N`` (front-half study,
default 5000) so the CI smoke job can run a reduced fleet; the
regression threshold honours ``CAMPAIGN_STAGE_TOLERANCE`` (default
5x).  Timings are persisted as JSON under ``benchmarks/reports/`` for
the CI artifact upload.
"""

import json
import os
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from repro.analysis import (
    Comparison,
    banner,
    comparison_table,
    format_table,
)
from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    ProcessPoolExecutor,
    batch_biquad_traces,
    batch_codes,
    batch_extract,
    batch_multitone_eval,
    batch_ndf,
    batch_signatures,
    montecarlo_dies,
    stream_montecarlo_dies,
)
from repro.core.scratch import SCRATCH
from repro.core.testflow import SignatureTester
from repro.filters.biquad import BiquadFilter
from repro.monitor.bank_encode import monitor_bank_codes_reference

REPORT_DIR = pathlib.Path(__file__).parent / "reports"
BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "campaign_stages.json")

SPEEDUP_N = int(os.environ.get("CAMPAIGN_BENCH_N", "500"))
SCALING_NS = [int(n) for n in os.environ.get(
    "CAMPAIGN_BENCH_SCALING", "60,120,240,480").split(",")]
STAGE_N = int(os.environ.get("CAMPAIGN_BENCH_STAGE_N", "2000"))
E2E_N = int(os.environ.get("CAMPAIGN_BENCH_E2E_N", "5000"))
FRONT_N = int(os.environ.get("CAMPAIGN_BENCH_FRONT_N", "5000"))
STAGE_TOLERANCE = float(os.environ.get("CAMPAIGN_STAGE_TOLERANCE",
                                       "5.0"))


def _write_json(name: str, payload: dict) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[timing JSON saved to {path}]")


def test_campaign_speedup_vs_per_die_loop(bench_setup, report_writer):
    """The acceptance proof: campaign vs the seed per-die loop."""
    n = SPEEDUP_N
    population = montecarlo_dies(bench_setup.golden_spec, n,
                                 sigma_f0=0.03, seed=7)

    # Same sampling density on both sides for a fair comparison.
    engine = bench_setup.campaign_engine(samples_per_period=2048,
                                         cache=GoldenCache())
    t0 = time.perf_counter()
    result = engine.run(population, band=None)
    t_campaign = time.perf_counter() - t0

    # The seed flow: one SignatureTester, one refined capture per die.
    tester = SignatureTester(bench_setup.encoder, bench_setup.stimulus,
                             bench_setup.golden_filter(),
                             samples_per_period=2048)
    t0 = time.perf_counter()
    loop_ndfs = np.asarray([tester.ndf_of(BiquadFilter(spec))
                            for spec in population.specs])
    t_loop = time.perf_counter() - t0

    speedup = t_loop / t_campaign
    max_diff = float(np.max(np.abs(loop_ndfs - result.ndfs)))
    required = 5.0 if n >= 500 else 2.0

    rows = [["dies", str(n)],
            ["per-die loop", f"{t_loop:.2f} s"],
            ["campaign", f"{t_campaign:.3f} s"],
            ["speedup", f"{speedup:.1f}x"],
            ["max |NDF| gap (refined vs batched)", f"{max_diff:.4f}"]]
    comparisons = [
        Comparison("campaign speedup", f">= {required:.0f}x",
                   f"{speedup:.1f}x", match=speedup >= required),
        Comparison("NDF agreement with refined per-die flow",
                   "within capture quantization (< 0.005)",
                   f"{max_diff:.4f}", match=max_diff < 0.005),
    ]
    report_writer("campaign_speedup", "\n".join([
        banner(f"CAMPAIGN: {n}-die speedup vs per-die loop"),
        format_table(["quantity", "value"], rows),
        "",
        comparison_table(comparisons),
    ]))
    _write_json("campaign_speedup", {
        "dies": n, "t_per_die_loop_s": t_loop,
        "t_campaign_s": t_campaign, "speedup": speedup,
        "max_ndf_gap": max_diff,
        "campaign_sections": result.timing,
    })

    assert speedup >= required
    assert max_diff < 0.005


def test_campaign_scaling_near_linear(bench_setup, report_writer):
    """Doubling N must roughly double campaign wall-clock."""
    ns = sorted(SCALING_NS)
    engine = bench_setup.campaign_engine(samples_per_period=2048,
                                         cache=GoldenCache())
    engine.golden()  # warm the cache: measure marginal cost only
    times = {}
    for n in ns:
        population = montecarlo_dies(bench_setup.golden_spec, n,
                                     sigma_f0=0.03, seed=3)
        # Min of three repeats: scheduler noise on shared CI runners
        # otherwise dominates the sub-100 ms small-N points.
        best = float("inf")
        for __ in range(3):
            t0 = time.perf_counter()
            engine.run(population, band=None)
            best = min(best, time.perf_counter() - t0)
        times[n] = best

    per_die = {n: times[n] / n for n in ns}
    growth = (times[ns[-1]] / times[ns[0]]) / (ns[-1] / ns[0])

    rows = [[str(n), f"{times[n] * 1e3:.1f} ms",
             f"{per_die[n] * 1e6:.0f} us/die"] for n in ns]
    comparisons = [
        Comparison("scaling exponent vs linear", "~1 (within 2.5x)",
                   f"{growth:.2f}", match=growth < 2.5),
    ]
    report_writer("campaign_scaling", "\n".join([
        banner("CAMPAIGN: wall-clock scaling in population size"),
        format_table(["dies", "wall-clock", "per die"], rows),
        "",
        comparison_table(comparisons),
    ]))
    _write_json("campaign_scaling", {
        "times_s": {str(n): times[n] for n in ns},
        "per_die_s": {str(n): per_die[n] for n in ns},
        "linear_growth_factor": growth,
    })

    # Near-linear: per-die cost must not grow faster than 2.5x across
    # the population span.  The generous bound absorbs the CPU-cache
    # cliff the working set crosses between small and large N, plus
    # shared-CI timing noise; a quadratic engine would blow through it.
    assert growth < 2.5


def test_executor_parity_bit_identical(bench_setup, report_writer):
    """Serial and process-pool runs must agree bit for bit."""
    n = min(SPEEDUP_N, 120)
    population = montecarlo_dies(bench_setup.golden_spec, n,
                                 sigma_f0=0.03, seed=11)
    config = bench_setup.campaign_engine(samples_per_period=2048).config
    serial = CampaignEngine(config, cache=GoldenCache()).run(
        population, band="auto")
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = CampaignEngine(config, cache=GoldenCache(),
                                executor=pool).run(population,
                                                   band="auto")

    identical_ndfs = bool(np.array_equal(serial.ndfs, pooled.ndfs))
    identical_verdicts = bool(np.array_equal(serial.verdicts,
                                             pooled.verdicts))
    comparisons = [
        Comparison("NDF vectors", "bit-identical", str(identical_ndfs),
                   match=identical_ndfs),
        Comparison("verdict vectors", "bit-identical",
                   str(identical_verdicts), match=identical_verdicts),
    ]
    report_writer("campaign_executor_parity", "\n".join([
        banner(f"CAMPAIGN: serial vs {pooled.executor} parity "
               f"({n} dies)"),
        comparison_table(comparisons),
    ]))

    assert identical_ndfs
    assert identical_verdicts


# ----------------------------------------------------------------------
# Packed signature pipeline (PR 2)
# ----------------------------------------------------------------------
def _code_stack(bench_setup, n: int, seed: int):
    """(engine, golden, code stack) of an n-die Monte Carlo fleet."""
    from repro.campaign.batch import batch_codes

    engine = bench_setup.campaign_engine(samples_per_period=2048,
                                         cache=GoldenCache())
    golden = engine.golden()
    population = montecarlo_dies(bench_setup.golden_spec, n,
                                 sigma_f0=0.03, seed=seed)
    responses = [BiquadFilter(s).response(bench_setup.stimulus)
                 for s in population.specs]
    y = batch_multitone_eval(responses, golden.times)
    codes = batch_codes(engine.config.encoder, golden.x, y)
    return engine, golden, population, codes


def test_signature_ndf_stage_speedup(bench_setup, report_writer):
    """Packed extract + fleet NDF vs the PR 1 per-die back half."""
    n = STAGE_N
    engine, golden, __, codes = _code_stack(bench_setup, n, seed=19)

    t0 = time.perf_counter()
    batch = batch_extract(golden.times, codes, golden.period)
    t_extract = time.perf_counter() - t0
    t0 = time.perf_counter()
    packed_values = batch.ndf_to(golden.signature)
    t_fleet_ndf = time.perf_counter() - t0

    t0 = time.perf_counter()
    signatures = batch_signatures(golden.times, codes, golden.period)
    t_signatures = time.perf_counter() - t0
    t0 = time.perf_counter()
    reference = batch_ndf(signatures, golden.signature)
    t_ndf_loop = time.perf_counter() - t0

    packed = t_extract + t_fleet_ndf
    unpacked = t_signatures + t_ndf_loop
    speedup = unpacked / packed
    identical = bool(np.array_equal(packed_values, reference))
    required = 5.0 if n >= 1000 else 2.0

    rows = [["dies", str(n)],
            ["per-die Signature objects + ndf()",
             f"{unpacked * 1e3:.1f} ms"],
            ["packed extract + fleet NDF", f"{packed * 1e3:.1f} ms"],
            ["speedup", f"{speedup:.1f}x"]]
    comparisons = [
        Comparison("signature+NDF stage speedup",
                   f">= {required:.0f}x", f"{speedup:.1f}x",
                   match=speedup >= required),
        Comparison("NDF vectors", "bit-identical", str(identical),
                   match=identical),
    ]
    report_writer("campaign_stage_speedup", "\n".join([
        banner(f"CAMPAIGN: packed signature pipeline ({n} dies)"),
        format_table(["quantity", "value"], rows),
        "",
        comparison_table(comparisons),
    ]))
    _write_json("campaign_stage_speedup", {
        "dies": n,
        "t_unpacked_signature_s": t_signatures,
        "t_unpacked_ndf_s": t_ndf_loop,
        "t_packed_extract_s": t_extract,
        "t_packed_fleet_ndf_s": t_fleet_ndf,
        "stage_speedup": speedup,
        "bit_identical": identical,
    })

    assert identical
    assert speedup >= required


def test_fleet_ndf_kernel_cost(bench_setup, report_writer,
                              monkeypatch):
    """The fleet-NDF kernel's lane sums vs its row-by-row fallback.

    The packed rows of a 256-die lot screened at 512 samples (the
    certified front half, one engine chunk) are scored by
    ``SignatureBatch.ndf_to`` twice per round, alternating: once with
    the per-row sums in numpy's pairwise order (the lane model), once
    with the lane probe forced to fail, so every row is summed by
    ``np.sum`` on its own.  Each call gets a fresh batch object, so
    both pay for the padded layout.  Both must equal the scalar
    ``ndf()`` loop bit for bit, and the lane path must take at most
    0.8x the fallback's time.
    """
    from repro.core import signature_batch
    from repro.core.ndf import ndf
    from repro.core.signature_batch import SignatureBatch

    if not signature_batch._lane_model_agrees():
        pytest.skip("the lane probe rejects this numpy's summation "
                    "order, so every ndf_to call sums row by row")
    n, rounds = 256, 31
    engine = bench_setup.campaign_engine(samples_per_period=512,
                                         cache=GoldenCache())
    golden = engine.golden().signature
    rows = engine.run(montecarlo_dies(bench_setup.golden_spec, n,
                                      sigma_f0=0.03, seed=53),
                      band=None, keep_signatures=True).signature_batch
    scalar = np.asarray([ndf(row, golden) for row in rows.to_signatures()])

    def timed():
        batch = SignatureBatch(rows.codes, rows.durations,
                               rows.row_offsets, rows.periods)
        start = time.perf_counter()
        values = batch.ndf_to(golden)
        return time.perf_counter() - start, values

    times = {"lanes": [], "row_loop": []}
    values = {}
    for __ in range(rounds):
        for path in times:
            monkeypatch.setattr(signature_batch, "_lanes_agree",
                                path == "lanes")
            elapsed, values[path] = timed()
            times[path].append(elapsed)
    per_die = {path: float(np.median(spent)) / n * 1e6
               for path, spent in times.items()}
    ratio = per_die["lanes"] / per_die["row_loop"]
    identical = {path: values[path].tobytes() == scalar.tobytes()
                 for path in values}
    required = 0.8

    report_writer("campaign_fleet_ndf_kernel", "\n".join([
        banner(f"CAMPAIGN: fleet-NDF kernel ({n} dies, 512 samples)"),
        format_table(["quantity", "value"], [
            ["lane sums", f"{per_die['lanes']:.2f} us/die"],
            ["row-by-row np.sum", f"{per_die['row_loop']:.2f} us/die"],
            ["ratio", f"{ratio:.2f}"]]),
        "",
        comparison_table([
            Comparison("lane / row-loop time", f"<= {required}",
                       f"{ratio:.2f}", match=ratio <= required),
            Comparison("NDFs vs scalar ndf()", "bit-identical",
                       str(all(identical.values())),
                       match=all(identical.values())),
        ]),
    ]))
    _write_json("campaign_fleet_ndf_kernel", {
        "dies": n,
        "samples_per_period": 512,
        "rounds": rounds,
        "us_per_die": per_die,
        "ratio": ratio,
        "bit_identical": identical,
    })

    assert all(identical.values())
    assert ratio <= required


def test_e2e_campaign_speedup_vs_pr1_pipeline(bench_setup,
                                              report_writer):
    """End-to-end campaign vs the reconstructed PR 1 hot path.

    The PR 1 pipeline is timed for real from its retained pieces:
    broadcast zone encoding (``encoder.code`` on a broadcast X),
    per-die ``Signature.from_samples`` extraction and the per-die
    ``ndf()`` loop.  The packed engine must beat it >= 2x at N = 5000
    with bit-identical NDFs.
    """
    n = E2E_N
    engine = bench_setup.campaign_engine(samples_per_period=2048,
                                         cache=GoldenCache())
    golden = engine.golden()
    population = montecarlo_dies(bench_setup.golden_spec, n,
                                 sigma_f0=0.03, seed=29)

    t0 = time.perf_counter()
    result = engine.run(population, band=None)
    t_campaign = time.perf_counter() - t0

    # PR 1 reconstruction, chunked like the engine to keep the
    # comparison fair (same cache behaviour, same working-set size).
    chunk = engine.config.chunk_size
    t0 = time.perf_counter()
    pr1_values = []
    for lo in range(0, n, chunk):
        specs = population.specs[lo:lo + chunk]
        responses = [BiquadFilter(s).response(bench_setup.stimulus)
                     for s in specs]
        y = batch_multitone_eval(responses, golden.times)
        x = np.broadcast_to(golden.x, y.shape)
        codes = np.asarray(engine.config.encoder.code(x, y),
                           dtype=np.int64)
        signatures = batch_signatures(golden.times, codes,
                                      golden.period)
        pr1_values.append(batch_ndf(signatures, golden.signature))
    pr1_values = np.concatenate(pr1_values)
    t_pr1 = time.perf_counter() - t0

    speedup = t_pr1 / t_campaign
    identical = bool(np.array_equal(pr1_values, result.ndfs))
    required = 2.0 if n >= 2000 else 1.2

    rows = [["dies", str(n)],
            ["PR 1 pipeline", f"{t_pr1:.2f} s"],
            ["packed campaign", f"{t_campaign:.2f} s"],
            ["speedup", f"{speedup:.1f}x"]]
    comparisons = [
        Comparison("end-to-end speedup", f">= {required:.1f}x",
                   f"{speedup:.1f}x", match=speedup >= required),
        Comparison("NDF vectors", "bit-identical", str(identical),
                   match=identical),
    ]
    report_writer("campaign_e2e_speedup", "\n".join([
        banner(f"CAMPAIGN: end-to-end vs PR 1 pipeline ({n} dies)"),
        format_table(["quantity", "value"], rows),
        "",
        comparison_table(comparisons),
    ]))
    _write_json("campaign_e2e_speedup", {
        "dies": n, "t_pr1_pipeline_s": t_pr1,
        "t_campaign_s": t_campaign, "e2e_speedup": speedup,
        "bit_identical": identical,
        "campaign_sections": result.timing,
    })

    assert identical
    assert speedup >= required


def test_front_half_speedup_vs_pr2(bench_setup, report_writer):
    """Fused traces+encode vs the PR 2 front half, reconstructed live.

    The PR 2 front half is timed for real from its retained pieces:
    per-die ``BiquadFilter(...).response()`` objects pushed through
    :func:`batch_multitone_eval`, then the pre-fusion shared-branch
    encoder (:func:`monitor_bank_codes_reference`).  The fused front
    half (:func:`batch_biquad_traces` + :func:`batch_codes`) must beat
    it on the combined traces+encode per-die time with bit-identical
    codes.  Both sides run chunked like the engine, on the same
    machine, same day -- the fair comparison the committed
    cross-machine baseline cannot give.

    Note on the required factor: the irreducible transcendental work
    (``np.sin`` per trace sample, ``exp``/``log1p`` per EKV table
    entry) is common to both pipelines and bounds the ratio wherever
    numpy's sin falls back to scalar libm; the asserted floor is set
    below the ~2x/~2.3x measured on the (scalar-sin) reference
    machine, and machines with SIMD transcendentals land well above
    it.  BENCH_4.json records the absolute before/after stage numbers
    so the trajectory stays machine-readable either way.
    """
    n = FRONT_N
    engine = bench_setup.campaign_engine(samples_per_period=2048,
                                         cache=GoldenCache())
    golden = engine.golden()
    encoder = engine.config.encoder
    population = montecarlo_dies(bench_setup.golden_spec, n,
                                 sigma_f0=0.03, seed=43)
    chunk = engine.config.chunk_size

    def run_fused():
        t_traces = t_encode = 0.0
        codes = []
        for lo in range(0, n, chunk):
            specs = population.specs[lo:lo + chunk]
            t0 = time.perf_counter()
            y = batch_biquad_traces(specs, bench_setup.stimulus,
                                    golden.times)
            t1 = time.perf_counter()
            codes.append(batch_codes(encoder, golden.x, y))
            t_encode += time.perf_counter() - t1
            t_traces += t1 - t0
            SCRATCH.give(y)
        return t_traces, t_encode, np.concatenate(codes)

    def run_pr2():
        t_traces = t_encode = 0.0
        codes = []
        for lo in range(0, n, chunk):
            specs = population.specs[lo:lo + chunk]
            t0 = time.perf_counter()
            responses = [BiquadFilter(s).response(bench_setup.stimulus)
                         for s in specs]
            y = batch_multitone_eval(responses, golden.times)
            t1 = time.perf_counter()
            codes.append(monitor_bank_codes_reference(encoder,
                                                      golden.x, y))
            t_encode += time.perf_counter() - t1
            t_traces += t1 - t0
        return t_traces, t_encode, np.concatenate(codes)

    fused = min((run_fused() for __ in range(3)),
                key=lambda r: r[0] + r[1])
    pr2 = min((run_pr2() for __ in range(3)),
              key=lambda r: r[0] + r[1])
    identical = bool(np.array_equal(fused[2], pr2[2]))
    combined_speedup = (pr2[0] + pr2[1]) / (fused[0] + fused[1])
    traces_speedup = pr2[0] / fused[0]
    encode_speedup = pr2[1] / fused[1]
    # Typical measurements on the scalar-sin reference machine:
    # combined 1.6-2.0x, encode 2.0-2.8x.  The floors sit below the
    # observed range so shared-runner noise cannot flake the job.
    required_combined = 1.4 if n >= 2000 else 1.1
    required_encode = 1.6 if n >= 2000 else 1.2

    rows = [["dies", str(n)],
            ["PR 2 traces / encode",
             f"{pr2[0] / n * 1e6:.1f} / {pr2[1] / n * 1e6:.1f} us/die"],
            ["fused traces / encode",
             f"{fused[0] / n * 1e6:.1f} / "
             f"{fused[1] / n * 1e6:.1f} us/die"],
            ["combined speedup", f"{combined_speedup:.2f}x"],
            ["encode speedup", f"{encode_speedup:.2f}x"]]
    comparisons = [
        Comparison("combined front-half speedup",
                   f">= {required_combined:.2f}x",
                   f"{combined_speedup:.2f}x",
                   match=combined_speedup >= required_combined),
        Comparison("encode speedup", f">= {required_encode:.2f}x",
                   f"{encode_speedup:.2f}x",
                   match=encode_speedup >= required_encode),
        Comparison("zone codes", "bit-identical", str(identical),
                   match=identical),
    ]
    report_writer("campaign_front_half", "\n".join([
        banner(f"CAMPAIGN: fused front half vs PR 2 ({n} dies)"),
        format_table(["quantity", "value"], rows),
        "",
        comparison_table(comparisons),
    ]))

    baseline = json.loads(BASELINE_PATH.read_text())
    _write_json("BENCH_4", {
        "pr": 4,
        "dies": n,
        "samples_per_period": 2048,
        "front_half_per_die_s": {
            "before": {"traces": pr2[0] / n, "encode": pr2[1] / n,
                       "combined": (pr2[0] + pr2[1]) / n},
            "after": {"traces": fused[0] / n, "encode": fused[1] / n,
                      "combined": (fused[0] + fused[1]) / n},
        },
        "speedup": {"combined": combined_speedup,
                    "traces": traces_speedup,
                    "encode": encode_speedup},
        "committed_baseline_per_die_s": baseline["per_die_s"],
        "bit_identical_codes": identical,
    })

    assert identical
    assert combined_speedup >= required_combined
    assert encode_speedup >= required_encode


def test_certified_front_half_vs_exact(bench_setup, report_writer):
    """Certified front half vs the exact public kernels, same codes.

    The engine's fast front half for spec chunks
    (:func:`~repro.campaign.batch.certified_spec_codes`: golden-relative
    column selection, a basis product per row block plus per-column
    threshold compares, exact recompute of whatever the certificate
    cannot cover) against :func:`batch_biquad_traces` +
    :func:`batch_codes` on the same chunks.  The codes must be equal
    and traces+encode at least 2x faster.  Both sides run warm (basis,
    table and golden frame built once per process, like the engine's
    steady state); the one-off table build is reported next to them.

    Two gates do not depend on the runner's speed: on the sigma = 0.03
    lot the ``columns`` span attribute must average at most 25% of the
    samples per die (a count, so it repeats exactly on a loaded
    runner), and a sigma = 0.15 lot -- wide enough that some blocks
    span every column -- must return the exact codes too.
    """
    from repro.campaign.batch import (
        certified_spec_codes,
        golden_frame,
        trace_basis,
    )
    from repro.monitor.bank_encode import build_threshold_table
    from repro.obs.trace import span, tracing

    n = FRONT_N
    samples = 2048
    engine = bench_setup.campaign_engine(samples_per_period=samples,
                                         cache=GoldenCache())
    golden = engine.golden()
    encoder = engine.config.encoder
    stimulus = bench_setup.stimulus
    population = montecarlo_dies(bench_setup.golden_spec, n,
                                 sigma_f0=0.03, seed=47)
    wide = montecarlo_dies(bench_setup.golden_spec, min(n, 1000),
                           sigma_f0=0.15, seed=48)
    chunk = engine.config.chunk_size
    build_start = time.perf_counter()
    table = build_threshold_table(encoder, golden.x)
    build_s = time.perf_counter() - build_start
    basis = trace_basis(stimulus, golden.times)
    assert table is not None
    frame = golden_frame(bench_setup.golden_spec, stimulus, golden.times,
                         golden.x, [encoder], [table], basis)

    def run_exact(specs):
        start = time.perf_counter()
        codes = []
        for lo in range(0, len(specs), chunk):
            y = batch_biquad_traces(specs[lo:lo + chunk],
                                    stimulus, golden.times)
            codes.append(batch_codes(encoder, golden.x, y))
            SCRATCH.give(y)
        return time.perf_counter() - start, np.concatenate(codes)

    def run_certified(specs, **stage):
        start = time.perf_counter()
        codes, fallback = [], 0
        for lo in range(0, len(specs), chunk):
            planes, rows = certified_spec_codes(
                specs[lo:lo + chunk], stimulus, golden.times,
                golden.x, [encoder], [table], basis, frame, **stage)
            codes.append(planes[0])
            fallback += rows.size
        return (time.perf_counter() - start, np.concatenate(codes),
                fallback)

    exact = min((run_exact(population.specs) for __ in range(3)),
                key=lambda r: r[0])
    certified = min((run_certified(population.specs) for __ in range(3)),
                    key=lambda r: r[0])
    identical = bool(np.array_equal(exact[1], certified[1]))
    speedup = exact[0] / certified[0]
    required = 2.0

    with tracing() as tracer:
        run_certified(population.specs,
                      stage=lambda name, **a: span("stage." + name, **a))
    encodes = [r.attributes for r in tracer.records()
               if r.name == "stage.encode"
               and r.attributes.get("path") == "certified"]
    columns_share = sum(a["columns"] * a["dies"] for a in encodes) \
        / (n * samples)
    max_share = 0.25
    wide_identical = bool(np.array_equal(run_exact(wide.specs)[1],
                                         run_certified(wide.specs)[1]))

    rows = [["dies", str(n)],
            ["exact traces+encode", f"{exact[0] / n * 1e6:.1f} us/die"],
            ["certified traces+encode",
             f"{certified[0] / n * 1e6:.1f} us/die"],
            ["fallback dies", str(certified[2])],
            ["columns computed per die",
             f"{columns_share * 100:.1f}% of {samples}"],
            ["table build (once per process)", f"{build_s * 1e3:.1f} ms"],
            ["speedup", f"{speedup:.2f}x"]]
    comparisons = [
        Comparison("traces+encode speedup", f">= {required:.1f}x",
                   f"{speedup:.2f}x", match=speedup >= required),
        Comparison("zone codes", "equal", str(identical),
                   match=identical),
        Comparison("columns computed per die",
                   f"<= {max_share * 100:.0f}%",
                   f"{columns_share * 100:.1f}%",
                   match=columns_share <= max_share),
        Comparison("zone codes, sigma = 0.15 lot", "equal",
                   str(wide_identical), match=wide_identical),
    ]
    report_writer("campaign_certified_front_half", "\n".join([
        banner(f"CAMPAIGN: certified front half vs exact ({n} dies)"),
        format_table(["quantity", "value"], rows),
        "",
        comparison_table(comparisons),
    ]))
    _write_json("campaign_certified_front_half", {
        "dies": n,
        "samples_per_period": samples,
        "per_die_s": {"exact": exact[0] / n,
                      "certified": certified[0] / n},
        "speedup": speedup,
        "fallback_dies": certified[2],
        "columns_share": columns_share,
        "table_build_s": build_s,
        "codes_equal": identical,
        "wide_codes_equal": wide_identical,
    })

    assert identical
    assert speedup >= required
    assert columns_share <= max_share
    assert wide_identical


def test_stage_timings_vs_committed_baseline(bench_setup,
                                             report_writer):
    """Per-die stage timings must stay within the committed budget.

    The baseline records seconds-per-die for every pipeline stage on
    the reference machine; a stage slower than ``baseline *
    CAMPAIGN_STAGE_TOLERANCE`` (default 5x -- generous enough for
    shared-CI noise and slower runners, tight enough to catch a
    de-vectorized stage) fails the job.
    """
    n = min(STAGE_N, 1000)
    engine = bench_setup.campaign_engine(samples_per_period=2048,
                                         cache=GoldenCache())
    engine.golden()  # warm: the guard measures marginal per-die cost
    population = montecarlo_dies(bench_setup.golden_spec, n,
                                 sigma_f0=0.03, seed=31)
    best: dict = {}
    for __ in range(3):
        result = engine.run(population, band=None)
        for stage in ("traces", "encode", "signature", "ndf"):
            value = result.timing[stage]
            if stage not in best or value < best[stage]:
                best[stage] = value
    per_die = {stage: value / n for stage, value in best.items()}

    baseline = json.loads(BASELINE_PATH.read_text())
    budgets = baseline["per_die_s"]
    rows = []
    failures = []
    for stage, measured in per_die.items():
        budget = budgets[stage] * STAGE_TOLERANCE
        rows.append([stage, f"{measured * 1e6:.2f} us",
                     f"{budgets[stage] * 1e6:.2f} us",
                     f"{budget * 1e6:.2f} us"])
        if measured > budget:
            failures.append(stage)
    report_writer("campaign_stage_guard", "\n".join([
        banner(f"CAMPAIGN: stage-timing regression guard ({n} dies, "
               f"tolerance {STAGE_TOLERANCE:.0f}x)"),
        format_table(["stage", "measured/die", "baseline/die",
                      "budget/die"], rows),
    ]))
    _write_json("campaign_stages", {
        "dies": n,
        "per_die_s": per_die,
        "baseline_per_die_s": budgets,
        "tolerance": STAGE_TOLERANCE,
        "regressed_stages": failures,
    })

    assert not failures, (
        f"stages regressed beyond {STAGE_TOLERANCE:.0f}x the committed "
        f"baseline: {failures}")


def test_streamed_campaign_bounds_memory(bench_setup, report_writer):
    """Streaming a fleet must not allocate the whole population.

    Peak traced allocations of a streamed run (small chunks) must stay
    well under the monolithic run's peak, and the verdicts must match
    bit for bit.
    """
    n = max(512, min(STAGE_N, 2000))
    chunk = 128
    engine = bench_setup.campaign_engine(samples_per_period=2048,
                                         cache=GoldenCache())
    engine.golden()

    tracemalloc.start()
    monolithic = engine.run(
        montecarlo_dies(bench_setup.golden_spec, n, sigma_f0=0.03,
                        seed=37), band=None)
    __, peak_monolithic = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    streamed = engine.run_stream(
        stream_montecarlo_dies(bench_setup.golden_spec, n,
                               chunk_size=chunk, sigma_f0=0.03,
                               seed=37), band=None)
    __, peak_streamed = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    identical = bool(np.array_equal(monolithic.ndfs, streamed.ndfs))
    ratio = peak_streamed / peak_monolithic
    rows = [["dies / chunk", f"{n} / {chunk}"],
            ["monolithic peak", f"{peak_monolithic / 1e6:.1f} MB"],
            ["streamed peak", f"{peak_streamed / 1e6:.1f} MB"],
            ["peak ratio", f"{ratio:.2f}"]]
    comparisons = [
        Comparison("streamed/monolithic peak", "< 0.7",
                   f"{ratio:.2f}", match=ratio < 0.7),
        Comparison("NDF vectors", "bit-identical", str(identical),
                   match=identical),
    ]
    report_writer("campaign_stream_memory", "\n".join([
        banner(f"CAMPAIGN: streamed memory bound ({n} dies)"),
        format_table(["quantity", "value"], rows),
        "",
        comparison_table(comparisons),
    ]))
    _write_json("campaign_stream_memory", {
        "dies": n, "chunk": chunk,
        "peak_monolithic_bytes": peak_monolithic,
        "peak_streamed_bytes": peak_streamed,
        "peak_ratio": ratio,
        "bit_identical": identical,
    })

    assert identical
    assert ratio < 0.7


def test_montecarlo_build_cost(bench_setup, report_writer):
    """Monte-Carlo die ranges build as arrays, >= 3x faster than the
    per-die reference and bit-identical to it.

    The reference is the definition of a die: its own ``SeedSequence``
    child and ``default_rng``, ``normal(0, sigma_f0)`` then
    ``normal(0, sigma_q)``, and ``golden.with_f0_deviation(f)
    .with_q_deviation(q)``.  ``MonteCarloFleet.chunks`` (what every
    shard worker and stream runs) must return the same deviations,
    labels and specs.  Both sides run on the same runner, interleaved,
    so the ratio holds on a slow or noisy machine where an absolute
    per-die bound would not.
    """
    from repro.campaign import SpecPopulation
    from repro.shard import MonteCarloFleet

    # The workloads' dies: an f0 spread only (the property tests cover
    # sigma_q > 0).
    n, start, seed = 4096, 10_000, 61
    sigma_f0, sigma_q = 0.03, 0.0
    golden = bench_setup.golden_spec
    fleet = MonteCarloFleet(golden, start + n, sigma_f0=sigma_f0,
                            sigma_q=sigma_q, seed=seed)

    def build_fleet():
        begin = time.perf_counter()
        chunks = list(fleet.chunks(start, start + n))
        return time.perf_counter() - begin, chunks

    def build_reference():
        begin = time.perf_counter()
        entropy = np.random.SeedSequence(seed).entropy
        specs, f0_devs, q_devs = [], [], []
        for i in range(start, start + n):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=entropy, spawn_key=(i,)))
            f0 = rng.normal(0.0, sigma_f0) if sigma_f0 > 0 else 0.0
            q = rng.normal(0.0, sigma_q) if sigma_q > 0 else 0.0
            specs.append(golden.with_f0_deviation(f0).with_q_deviation(q))
            f0_devs.append(f0)
            q_devs.append(q)
        labels = [f"die{i:05d}" for i in range(start, start + n)]
        return (time.perf_counter() - begin,
                (specs, np.array(f0_devs), np.array(q_devs), labels))

    arrays, reference = [], []
    for __ in range(3):
        arrays.append(build_fleet())
        reference.append(build_reference())
    fast = min(arrays, key=lambda r: r[0])
    slow = min(reference, key=lambda r: r[0])
    built = SpecPopulation.concatenate(fast[1])
    specs, f0_devs, q_devs, labels = slow[1]
    identical = bool(
        built.f0_deviations.tobytes() == f0_devs.tobytes()
        and built.q_deviations.tobytes() == q_devs.tobytes()
        and built.labels == labels and list(built.specs) == specs)
    speedup = slow[0] / fast[0]
    required = 3.0

    rows = [["dies", f"{n} (from die {start}, chunks of "
                     f"{fleet.chunk_size})"],
            ["per-die reference", f"{slow[0] / n * 1e6:.2f} us/die"],
            ["MonteCarloFleet.chunks", f"{fast[0] / n * 1e6:.2f} us/die"],
            ["speedup", f"{speedup:.2f}x"]]
    comparisons = [
        Comparison("build speedup", f">= {required:.1f}x",
                   f"{speedup:.2f}x", match=speedup >= required),
        Comparison("deviations, labels, specs", "bit-identical",
                   str(identical), match=identical),
    ]
    report_writer("campaign_montecarlo_build", "\n".join([
        banner(f"CAMPAIGN: Monte-Carlo die build ({n} dies)"),
        format_table(["quantity", "value"], rows),
        "",
        comparison_table(comparisons),
    ]))
    _write_json("campaign_montecarlo_build", {
        "dies": n, "start": start, "chunk": fleet.chunk_size,
        "per_die_s": {"reference": slow[0] / n, "fleet": fast[0] / n},
        "speedup": speedup,
        "bit_identical": identical,
    })

    assert identical
    assert speedup >= required
