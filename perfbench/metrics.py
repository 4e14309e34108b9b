"""Metric definitions: the end-to-end set, the per-layer set, and their values.

``BENCHMARK.json`` at the repository root is :func:`definition` serialised;
a test keeps the two in step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from perfbench.tracing import default_probes, span_stats

#: Workloads, each with the reason it is in the benchmark.
WORKLOADS = (
    (
        "table1-paper",
        "Table 1 at paper scale: the headline number; bootstrap-bound, with collection "
        "and a panel-dominated set-up",
    ),
    (
        "serve-hot-tenant",
        "Reach service replaying a long 4-tenant trace with one throttled hot tenant: "
        "reach, adsapi and service layers, no bootstrap, no cache",
    ),
    (
        "sweep-cold-warm",
        "Scenario sweep built cold into an empty disk cache, then loaded warm: builds, "
        "cache writes and reads, nanotargeting, delivery and FDVT",
    ),
)

#: Nominal length of one run's timed region (``run_seconds``, ``--seconds``).
RUN_SECONDS = 20

#: How many processes set up per measured run; ``setup_s`` is their median.
SETUP_RUNS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
    Metric("ok_share", "ratio", "higher", 0.02),
    Metric("ok_per_s", "1/s", "higher", 0.25),
)

#: Every span of the traced run: ``imports`` is timed by the worker itself.
SPAN_NAMES = ("imports",) + tuple(
    probe.name for probe in default_probes() if probe.span
)

COUNTERS = (
    Metric("population.assign_rows.rows", "count", "lower"),
    Metric("reach.prefix_panel.cells", "count", "lower"),
    Metric("adsapi.reach_estimates", "count", "lower"),
    Metric("adsapi.rate_limited", "count", "lower"),
    Metric("adsapi.virtual_wait_s", "s", "lower"),
    Metric("core.bootstrap.replicates", "count", "lower"),
    Metric("core.bootstrap.failed_fits", "count", "lower"),
    Metric("service.tick.p50_ms", "ms", "lower"),
    Metric("service.tick.p99_ms", "ms", "lower"),
    Metric("service.coalesce.rows_mean", "count", "higher"),
    Metric("service.admitted", "count", "higher"),
    Metric("service.completed", "count", "higher"),
    Metric("service.admit_ratio", "ratio", "higher"),
    Metric("service.shed_throttled", "count", "lower"),
    Metric("service.shed_overloaded", "count", "lower"),
    Metric("service.shed_deadline", "count", "lower"),
    Metric("service.queue_wait.p50_s", "s", "lower"),
    Metric("service.queue_wait.p99_s", "s", "lower"),
    Metric("cache.misses", "count", "lower"),
    Metric("cache.memory_hits", "count", "higher"),
    Metric("cache.disk_hits", "count", "higher"),
    Metric("cache.disk_errors", "count", "lower"),
    Metric("cache.hit_ratio", "ratio", "higher"),
    Metric("cache.bytes_stored", "bytes", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER = tuple(
    Metric(f"{span}.{kind}", unit, "lower")
    for span in SPAN_NAMES
    for kind, unit in (("busy_s", "s"), ("calls", "count"), ("self_s", "s"))
) + COUNTERS


def definition() -> dict:
    """The ``BENCHMARK.json`` document this package implements."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values), as the service reports it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end_values(
    *, wall_s: float, setup_s: float, peak_rss_mb: float, ok: int, attempted: int
) -> dict[str, float]:
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": ok / attempted,
        "ok_per_s": ok / wall_s,
    }


def layer_values(
    spans: Sequence[Sequence], counters: Mapping[str, float]
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio`` (0 where unused)."""
    stats = span_stats(spans)
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        entry = stats.get(span, {"busy_s": 0.0, "calls": 0, "self_s": 0.0})
        for kind in ("busy_s", "calls", "self_s"):
            values[f"{span}.{kind}"] = entry[kind]
    ticks = [end - start for name, start, end, *_ in spans if name == "service.tick"]
    values["service.tick.p50_ms"] = nearest_rank(ticks, 50) * 1000.0
    values["service.tick.p99_ms"] = nearest_rank(ticks, 99) * 1000.0
    coalesced = values["service.coalesce.calls"]
    values["service.coalesce.rows_mean"] = (
        counters.get("service.coalesce.rows", 0) / coalesced if coalesced else 0.0
    )
    for metric in COUNTERS:
        if metric.name not in values and metric.name != "trace.overhead_ratio":
            values[metric.name] = counters.get(metric.name, 0)
    return values


def with_units(values: Mapping[str, float], metrics: Sequence[Metric]) -> dict:
    """``{name: {"value", "unit"}}`` in definition order."""
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics}
