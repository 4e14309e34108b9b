"""Tests of the benchmark itself: span arithmetic, output checks, metric tables.

The workloads are paper-scale and take tens of seconds, so these tests
drive the pure pieces — the span statistics, the three output checks on
hand-built (and tampered) outputs, the seeded input generators and the
metric definitions — plus the harness's refusal to run without sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cache import CacheInfo
from repro.core.results import ResultSet, ScenarioResult
from repro.service.responses import ReachRequest, ReachResponse
from repro.service.trace import ServiceRunReport

from perfbench import metrics
from perfbench.tracing import (
    Probe,
    Tracer,
    TraceTargetError,
    default_probes,
    install,
    span_stats,
)
from perfbench.workloads import (
    WORKLOAD_TYPES,
    SweepOutputs,
    make_trace,
    serve_outcome,
    sweep_outcome,
    sweep_specs,
    table1_outcome,
)

ROOT = Path(__file__).resolve().parent.parent
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- spans ----------------------------------------------------------------------


def test_span_stats_on_a_hand_built_tree():
    # a [0, 10] holds b [1, 4] (holding c [2, 3]) and b [5, 9], which
    # holds a nested b [6, 8].
    spans = [
        ["a", 0.0, 10.0, None, None, True],
        ["b", 1.0, 4.0, 0, None, True],
        ["c", 2.0, 3.0, 1, None, True],
        ["b", 5.0, 9.0, 0, None, True],
        ["b", 6.0, 8.0, 3, None, False],
    ]
    stats = span_stats(spans)
    assert stats["a"] == {"busy_s": 10.0, "calls": 1, "self_s": 3.0}
    # Nested b counted once in busy time; self time splits the b chain.
    assert stats["b"] == {"busy_s": 7.0, "calls": 3, "self_s": 6.0}
    assert stats["c"] == {"busy_s": 1.0, "calls": 1, "self_s": 1.0}


def test_tracer_records_parents_tags_and_nesting():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("a", tag="random"):
        with tracer.span("b"):
            with tracer.span("b", tag="inner"):
                pass
    assert [span[:6] for span in tracer.spans] == [
        ["a", 0.0, 5.0, None, "random", True],
        ["b", 1.0, 4.0, 0, "random", True],
        ["b", 2.0, 3.0, 1, "inner", False],
    ]
    assert span_stats(tracer.spans)["b"] == {"busy_s": 3.0, "calls": 2, "self_s": 3.0}


def test_every_default_probe_resolves_and_restores():
    import repro.pipeline as pipeline
    import repro.scenarios.sweep as sweep
    from repro.adsapi.api import AdsManagerAPI

    original_build = pipeline.build_catalog
    original_run = sweep.run_scenario
    original_settle = vars(AdsManagerAPI)["settle_reach_bill"]
    installation = install(default_probes(), Tracer())
    try:
        assert pipeline.build_catalog is not original_build
        # Rebound where it was imported by name, too.
        assert sweep.run_scenario is not original_run
    finally:
        installation.restore()
    assert pipeline.build_catalog is original_build
    assert sweep.run_scenario is original_run
    assert vars(AdsManagerAPI)["settle_reach_bill"] is original_settle


def test_a_renamed_target_fails_the_traced_run():
    import repro.pipeline as pipeline

    original = pipeline.build_panel
    probes = (
        Probe("pipeline.build_panel", ("repro.pipeline:build_panel",)),
        Probe("gone", ("repro.pipeline:no_such_function",)),
    )
    with pytest.raises(TraceTargetError, match="no_such_function"):
        install(probes, Tracer())
    # Nothing was patched before the guard fired.
    assert pipeline.build_panel is original


def test_wrappers_time_calls_and_feed_counters():
    tracer = Tracer()
    installation = install(default_probes(), tracer)
    try:
        from repro.core.fitting import fit_vas_many

        fit_vas_many(np.array([[1e6, 1e5, 1e4, 1e3]]), 20)
    finally:
        installation.restore()
    stats = span_stats(tracer.spans)
    assert stats["core.fitting.fit_many"]["calls"] == 1
    values = metrics.layer_values(tracer.spans, tracer.counters)
    assert values["core.fitting.fit_many.calls"] == 1
    assert values["core.bootstrap.calls"] == 0


# -- output checks ----------------------------------------------------------------


def _table1_inputs():
    points = {
        "least_popular": {
            0.5: (4.0, 3.9, 7.2),
            0.8: (8.7, 8.6, 8.9),
            0.9: (10.3, 10.1, 10.5),
        },
        "random": {
            0.5: (14.9, 14.5, 15.2),
            0.8: (19.5, 19.0, 20.0),
            0.9: (21.7, 21.2, 22.3),
        },
    }
    replicates = {
        name: {q: np.full(5, 1.0 + k) for k, q in enumerate((50.0, 80.0, 90.0))}
        for name in points
    }
    return points, replicates


def test_table1_check_passes_clean_outputs():
    outcome = table1_outcome(*_table1_inputs())
    assert outcome.correct
    assert (outcome.attempted, outcome.ok, outcome.failed) == (10, 10, 0)


def test_table1_nan_cutpoint_fails_its_replicate():
    points, replicates = _table1_inputs()
    replicates["random"][80.0][3] = np.nan
    outcome = table1_outcome(points, replicates)
    assert (outcome.ok, outcome.failed) == (9, 1)


def test_table1_shape_failures_fail_every_op():
    points, replicates = _table1_inputs()
    points["random"][0.9] = (float("nan"), 21.2, 22.3)
    outcome = table1_outcome(points, replicates)
    assert not outcome.correct
    assert (outcome.ok, outcome.failed) == (0, 10)
    points, replicates = _table1_inputs()
    points["least_popular"][0.9] = (30.0, 29.0, 31.0)
    outcome = table1_outcome(points, replicates)
    assert not outcome.checks["least-popular below random at every P"]
    assert outcome.ok == 0


def _served(tenant: str, interests: tuple, values: tuple) -> ReachResponse:
    return ReachResponse(
        request=ReachRequest(tenant=tenant, interests=interests),
        status="ok",
        values=values,
        submitted_at=0.0,
        completed_at=1.0,
    )


def _serve_inputs():
    responses = (
        _served("tenant-00", (1, 2), (5000.0, 1200.0)),
        _served("tenant-01", (3, 4, 5), (9000.0, 800.0, 20.0)),
        ReachResponse(
            request=ReachRequest(tenant="tenant-00", interests=(6, 7)),
            status="throttled",
            detail="admission budget exhausted",
        ),
    )
    expected = {r.request: r.values for r in responses if r.ok}
    counters = {
        "submitted": 3,
        "admitted": 2,
        "completed": 2,
        "shed_throttled": 1,
        "shed_overloaded": 0,
        "shed_deadline": 0,
    }
    return responses, expected, counters


def test_serve_check_counts_shed_requests_against_ok_share_only():
    responses, expected, counters = _serve_inputs()
    report = ServiceRunReport(responses=responses, virtual_seconds=2.0, ticks=2)
    outcome = serve_outcome(report, expected.__getitem__, 3, counters)
    assert outcome.correct
    assert (outcome.attempted, outcome.ok, outcome.failed) == (3, 2, 0)
    assert outcome.counters["service.admit_ratio"] == pytest.approx(2 / 3)


def test_serve_flipped_value_lowers_ok_share():
    responses, expected, counters = _serve_inputs()
    flipped = replace(responses[1], values=(9000.0, 801.0, 20.0))
    report = ServiceRunReport(
        responses=(responses[0], flipped, responses[2]), virtual_seconds=2.0, ticks=2
    )
    outcome = serve_outcome(report, expected.__getitem__, 3, counters)
    assert not outcome.correct
    assert (outcome.ok, outcome.failed) == (1, 1)


def test_serve_digest_repeats_and_tracks_the_virtual_summary():
    responses, expected, counters = _serve_inputs()
    report = ServiceRunReport(responses=responses, virtual_seconds=2.0, ticks=2)
    first = serve_outcome(report, expected.__getitem__, 3, counters).lines
    again = serve_outcome(report, expected.__getitem__, 3, counters).lines
    assert first == again
    slower = ServiceRunReport(
        responses=(replace(responses[0], completed_at=3.0),) + responses[1:],
        virtual_seconds=4.0,
        ticks=4,
    )
    assert serve_outcome(slower, expected.__getitem__, 3, counters).lines[1] != first[1]


def _result(name: str, value: float) -> ScenarioResult:
    return ScenarioResult(
        scenario=name,
        study="fdvt_risk",
        seed=7,
        metrics=(("n_users", value),),
        table=(),
        summary=(),
    )


def _sweep_outputs(warm_value: float = 25.0) -> SweepOutputs:
    names = ("fdvt-risk/seed=7", "workload-impact/seed=7")
    cold = ResultSet(_result(name, 25.0) for name in names)
    warm = ResultSet(
        [_result(names[0], warm_value), _result(names[1], 25.0)]
    )
    sizes = {"evictions": 0, "currsize": 2, "maxsize": 32, "memory_hits": 2}
    cold_info = CacheInfo(hits=2, misses=2, **sizes)
    warm_info = CacheInfo(hits=4, misses=0, disk_hits=2, **sizes)
    return SweepOutputs(cold, warm, cold_info, warm_info)


def test_sweep_check_passes_equal_passes():
    outputs = _sweep_outputs()
    outcome = sweep_outcome(outputs, list(outputs.cold.names), n_seeds=1)
    assert outcome.correct
    assert (outcome.attempted, outcome.ok, outcome.failed) == (4, 4, 0)
    assert outcome.counters["cache.hit_ratio"] == pytest.approx(6 / 8)


def test_sweep_altered_warm_result_lowers_ok_share():
    outputs = _sweep_outputs(warm_value=24.0)
    outcome = sweep_outcome(outputs, list(outputs.cold.names), n_seeds=1)
    assert not outcome.correct
    assert (outcome.ok, outcome.failed) == (2, 2)


def test_sweep_cache_accounting_failure_fails_its_pass():
    outputs = _sweep_outputs()
    warm_info = replace(outputs.warm_info, misses=1, disk_hits=1)
    rebuilt = replace(outputs, warm_info=warm_info)
    outcome = sweep_outcome(rebuilt, list(outputs.cold.names), n_seeds=1)
    assert not outcome.correct
    assert (outcome.ok, outcome.failed) == (2, 2)


# -- seeds and metric definitions ----------------------------------------------------


def test_seed_changes_inputs_not_metric_names_or_units():
    ids = np.arange(1000, 1500, dtype=np.int64)
    trace = make_trace(ids, seed=1, n_requests=300)
    assert trace == make_trace(ids, seed=1, n_requests=300)
    assert trace != make_trace(ids, seed=2, n_requests=300)
    assert all(
        len(set(item.request.interests)) == item.request.cost for item in trace.requests
    )
    specs_one, specs_two = sweep_specs(1), sweep_specs(2)
    assert [s.seed for s in specs_one] != [s.seed for s in specs_two]
    assert len(specs_one) == len(specs_two)

    def described(values: dict, defined) -> list:
        units = metrics.with_units(values, defined)
        return [(name, entry["unit"]) for name, entry in units.items()]

    first = metrics.end_to_end_values(
        wall_s=20.0, setup_s=5.0, peak_rss_mb=290.0, ok=9, attempted=10
    )
    second = metrics.end_to_end_values(
        wall_s=14.0, setup_s=6.5, peak_rss_mb=310.0, ok=7, attempted=8
    )
    assert described(first, metrics.END_TO_END) == described(second, metrics.END_TO_END)
    layers = metrics.layer_values([], {})
    layers["trace.overhead_ratio"] = 1.0
    assert [name for name, _ in described(layers, metrics.PER_LAYER)] == [
        m.name for m in metrics.PER_LAYER
    ]


def test_metric_names_units_and_counts_fit_the_contract():
    everything = metrics.END_TO_END + metrics.PER_LAYER
    names = [m.name for m in everything]
    assert len(names) == len(set(names))
    assert all(NAME_PATTERN.fullmatch(name) for name in names)
    assert all(UNIT_PATTERN.fullmatch(m.unit) for m in everything)
    assert all(m.better in ("higher", "lower") for m in everything)
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_benchmark_json_matches_the_definition():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == metrics.definition()
    assert [name for name, _ in metrics.WORKLOADS] == list(WORKLOAD_TYPES)


def test_harness_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = "perfbench/run.py --workload table1-paper --seed 1 --seconds 20 --trace 0"
    done = subprocess.run(
        [sys.executable, *command.split()],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
