"""Tracing must observe the pipeline, never perturb it.

Bit-identity of verdicts/NDFs with tracing on vs off is asserted for
every executor, and the per-stage profile derived from spans must
agree with the engine's own ``result.timing`` bookkeeping.
"""

import numpy as np
import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    ProcessPoolExecutor,
    SerialExecutor,
    montecarlo_dies,
)
from repro.monitor.configurations import table1_encoder
from repro.obs import (
    install_tracer,
    render_profile,
    stage_profile,
    tracing,
    uninstall_tracer,
)
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign

THRESHOLD = 0.05


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    previous = uninstall_tracer()
    yield
    install_tracer(previous)


def _engine(executor=None, chunk_size=16):
    config = CampaignConfig(table1_encoder(), PAPER_STIMULUS,
                            PAPER_BIQUAD, samples_per_period=512,
                            chunk_size=chunk_size)
    return CampaignEngine(config, executor=executor)


def _population(dies=24):
    return montecarlo_dies(PAPER_BIQUAD, dies, sigma_f0=0.04, seed=11)


@pytest.mark.parametrize("make_executor", [
    lambda: None,
    lambda: SerialExecutor(),
    lambda: ProcessPoolExecutor(max_workers=2),
], ids=["default", "serial", "pool"])
def test_verdicts_bit_identical_tracing_on_vs_off(make_executor):
    population = _population()
    executor = make_executor()
    try:
        baseline = _engine(executor).run(population, band=THRESHOLD)
        with tracing() as tracer:
            traced = _engine(executor).run(population, band=THRESHOLD)
    finally:
        if executor is not None:
            executor.shutdown()
    assert np.array_equal(baseline.ndfs, traced.ndfs)
    assert np.array_equal(baseline.verdicts, traced.verdicts)
    assert baseline.threshold == traced.threshold
    assert len(tracer) > 0  # tracing actually happened


def test_campaign_submit_span_wraps_the_stage_spans():
    with tracing() as tracer:
        _engine().run(_population(12), band=THRESHOLD)
    records = tracer.records()
    submits = [r for r in records if r.name == "campaign.submit"]
    assert len(submits) == 1
    submit = submits[0]
    assert submit.attributes["mode"] == "run"
    stage_names = {r.name for r in records
                   if r.name.startswith("stage.")}
    assert {"stage.golden", "stage.traces", "stage.encode",
            "stage.signature", "stage.ndf"} <= stage_names
    # Every stage span descends from the submit span.
    by_id = {r.span_id: r for r in records}
    for record in records:
        if not record.name.startswith("stage."):
            continue
        node = record
        while node.parent_id is not None:
            node = by_id[node.parent_id]
        assert node is submit


def test_stage_profile_agrees_with_result_timing():
    with tracing() as tracer:
        result = _engine().run(_population(60), band=THRESHOLD)
    profile = stage_profile(tracer)
    spanned = sum(entry["seconds"] for entry in profile.values())
    timed = sum(seconds for stage, seconds in result.timing.items()
                if stage != "total")
    # Span durations and the engine's own perf_counter bookkeeping
    # wrap the same blocks, so they must agree closely; 10% covers
    # scheduler noise on the tiny stages.
    assert spanned == pytest.approx(timed, rel=0.10, abs=0.002)
    for stage, entry in profile.items():
        assert entry["seconds"] == pytest.approx(
            result.timing[stage], rel=0.10, abs=0.002)


def test_render_profile_tabulates_stages():
    with tracing() as tracer:
        result = _engine().run(_population(12), band=THRESHOLD)
    table = render_profile(stage_profile(tracer), result.timing)
    lines = table.splitlines()
    assert lines[0].split() == ["stage", "spans", "seconds", "timing"]
    assert any(line.startswith("encode") for line in lines)
    assert lines[-1].startswith("total")


def test_executor_chunk_spans_cover_every_chunk():
    executor = ProcessPoolExecutor(max_workers=2)
    try:
        with tracing() as tracer:
            _engine(executor, chunk_size=8).run(_population(24),
                                                band=THRESHOLD)
    finally:
        executor.shutdown()
    by_name = {}
    for record in tracer.records():
        by_name.setdefault(record.name, []).append(record)
    maps = by_name.get("executor.map", [])
    chunks = by_name.get("executor.chunk", [])
    assert len(maps) >= 1
    assert len(chunks) >= 3  # 24 dies / 8 per chunk
    assert all(r.attributes["executor"] == "process-pool[2]"
               for r in chunks)
    map_ids = {r.span_id for r in maps}
    assert all(r.parent_id in map_ids for r in chunks)


def test_noise_campaign_traces_and_stays_bit_identical():
    population = _population(8)
    engine = _engine()
    baseline = engine.run_noise(population, repeats=3, seed=5,
                                band=THRESHOLD)
    with tracing() as tracer:
        traced = _engine().run_noise(population, repeats=3, seed=5,
                                     band=THRESHOLD)
    assert np.array_equal(baseline.ndf_matrix, traced.ndf_matrix)
    assert {r.name for r in tracer.records()} >= {"campaign.submit",
                                                  "stage.noise"}


@pytest.mark.parametrize("make_executor", [
    lambda: SerialExecutor(),
    lambda: ProcessPoolExecutor(max_workers=2),
], ids=["serial", "pool"])
def test_every_executor_yields_one_connected_trace(make_executor):
    """Cross-process trace propagation holds for ALL executors: every
    span -- including chunk spans from pool worker processes --
    descends from the single campaign.submit root."""
    executor = make_executor()
    try:
        with tracing() as tracer:
            _engine(executor, chunk_size=8).run(_population(24),
                                                band=THRESHOLD)
    finally:
        executor.shutdown()
    records = tracer.records()
    roots = [r for r in records if r.parent_id is None]
    assert len(roots) == 1
    assert roots[0].name == "campaign.submit"
    by_id = {r.span_id: r for r in records}
    for record in records:
        node = record
        while node.parent_id is not None:
            assert node.parent_id in by_id, (
                f"span {node.name!r} has a dangling parent: "
                f"the {record.name!r} lineage left the trace")
            node = by_id[node.parent_id]
        assert node is roots[0]
