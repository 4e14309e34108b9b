"""The three workloads: seeded inputs, set-up, the timed region, output checks.

Each workload object is driven by :mod:`perfbench.worker` in a fresh
process: ``setup()`` (imports are already done) builds everything the
timed region needs, ``run()`` is the timed region, ``check(outputs)`` runs
after it and returns an :class:`Outcome`, ``close()`` removes what set-up
created.  Inputs come from the benchmark's seed only; the program receives
them through its public API, exactly as a user would call it.

The check functions (:func:`table1_outcome`, :func:`serve_outcome`,
:func:`sweep_outcome`) are pure so the tests can feed them tampered
outputs.  A check that fails marks the run incorrect and counts every op
it covers as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import build_simulation, default_config
from repro.adsapi import AdsManagerAPI
from repro.cache import CacheInfo, build_cache, reset_build_cache
from repro.config import PlatformConfig
from repro.core.results import ResultSet
from repro.exec import ShardExecutor
from repro.io import uniqueness_report_to_dict
from repro.scenarios import SweepRunner, expand_grid, get_scenario
from repro.service import ReachService, ServiceConfig, run_trace
from repro.service.responses import ReachRequest
from repro.service.trace import RequestTrace, ServiceRunReport, TraceRequest
from repro.simclock import SimClock

from perfbench.tracing import Installation, Probe, install

#: The probabilities ``repro-facebook uniqueness`` estimates by default.
PROBABILITIES = (0.5, 0.8, 0.9, 0.95)


@dataclass
class Outcome:
    """What the checks found: op counts, named checks, digests, counters."""

    attempted: int
    ok: int
    failed: int
    checks: dict[str, bool]
    lines: list[str] = field(default_factory=list)
    #: Per-layer counters read from the outputs (``service.*``, ``cache.*``).
    counters: dict[str, float] = field(default_factory=dict)
    #: Hash of the outputs that must repeat exactly for a given seed.
    digest: str = ""

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def digest(payload: object) -> str:
    """A short, stable hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cache_counters(infos: Sequence[CacheInfo]) -> dict[str, float]:
    hits = sum(info.hits for info in infos)
    misses = sum(info.misses for info in infos)
    return {
        "cache.misses": misses,
        "cache.memory_hits": sum(info.memory_hits for info in infos),
        "cache.disk_hits": sum(info.disk_hits for info in infos),
        "cache.disk_errors": sum(
            info.disk_load_errors + info.disk_store_errors for info in infos
        ),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


# -- table1-paper ------------------------------------------------------------------


def table1_outcome(
    points: Mapping[str, Mapping[float, tuple[float, float, float]]],
    replicates: Mapping[str, Mapping[float, np.ndarray]],
) -> Outcome:
    """Check Table 1: ``points[strategy][P] = (N_P, ci_low, ci_high)``.

    ``replicates[strategy]`` maps each quantile to that strategy's bootstrap
    cutpoints; one op is one replicate of one strategy, ok when all of its
    cutpoints are finite.  The shape checks cover every op.
    """
    attempted = sum(len(next(iter(d.values()))) for d in replicates.values())
    finite = sum(
        int(np.logical_and.reduce([np.isfinite(v) for v in d.values()]).sum())
        for d in replicates.values()
    )
    least, random = points.get("least_popular", {}), points.get("random", {})
    probabilities = sorted(least)
    checks = {
        "both strategies reported and bootstrapped": set(points) == set(replicates)
        == {"least_popular", "random"},
        "N_P non-decreasing in P": all(
            estimates[a][0] <= estimates[b][0]
            for estimates in points.values()
            for a, b in zip(sorted(estimates), sorted(estimates)[1:])
        ),
        "least-popular below random at every P": bool(probabilities)
        and sorted(random) == probabilities
        and all(least[p][0] < random[p][0] for p in probabilities),
        "every estimate and interval finite": all(
            np.isfinite(value).all()
            for estimates in points.values()
            for value in estimates.values()
        ),
    }
    ok = finite if all(checks.values()) else 0
    rows = [
        f"  {name}: "
        + "  ".join(
            f"N_{p:g}={n:.2f} [{low:.2f}, {high:.2f}]"
            for p, (n, low, high) in sorted(estimates.items())
        )
        for name, estimates in sorted(points.items())
    ]
    return Outcome(attempted, ok, attempted - ok, checks, lines=rows)


class Table1Paper:
    """``repro-facebook uniqueness --factor 1`` as library calls."""

    name = "table1-paper"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self._bootstraps: list[dict] = []
        self._tap: Installation | None = None

    def setup(self) -> None:
        # The CLI builds through the process-global cache (memory-only
        # here: the harness clears REPRO_CACHE_ROOT).
        self.simulation = build_simulation(
            default_config(), seed=self.seed, cache=build_cache()
        )
        self.setup_cache = build_cache().cache_info()
        # The reports keep only percentile intervals; the tap keeps each
        # strategy's replicate cutpoints for the per-op check.  One extra
        # call frame per strategy, so the untraced timing is unaffected.
        self._tap = install(
            [
                Probe(
                    "table1.bootstrap_tap",
                    ("repro.core.bootstrap:bootstrap_cutpoints",),
                    span=False,
                    after=lambda t, a, k, result, s: self._bootstraps.append(result),
                )
            ],
            tracer=None,
        )

    def run(self) -> list:
        model = self.simulation.uniqueness_model()
        return [
            model.estimate(strategy, probabilities=PROBABILITIES)
            for strategy in self.simulation.strategies()
        ]

    def check(self, reports: list) -> Outcome:
        points = {
            report.strategy_name: {
                p: (
                    float(e.n_p),
                    float(e.confidence_interval.low),
                    float(e.confidence_interval.high),
                )
                for p, e in report.estimates.items()
            }
            for report in reports
        }
        names = [report.strategy_name for report in reports]
        outcome = table1_outcome(points, dict(zip(names, self._bootstraps)))
        outcome.digest = digest([uniqueness_report_to_dict(r) for r in reports])
        outcome.lines.insert(0, f"table1 reports digest: {outcome.digest}")
        outcome.counters.update(cache_counters([self.setup_cache]))
        return outcome

    def close(self) -> None:
        if self._tap is not None:
            self._tap.restore()


# -- serve-hot-tenant -------------------------------------------------------------

#: Trace shape: 4 tenants at 8 req/s of virtual time, 40% from tenant 0,
#: 2-8 interests per request drawn uniformly from the catalog.
SERVE_REQUESTS = 200_000
SERVE_RATE = 8.0
SERVE_TENANTS = 4
SERVE_HOT_SHARE = 0.4
SERVE_WIDTHS = (2, 8)


def make_trace(
    interest_ids: np.ndarray, seed: int, n_requests: int = SERVE_REQUESTS
) -> RequestTrace:
    """The open-loop arrival schedule of ``serve-hot-tenant`` for ``seed``."""
    rng = np.random.default_rng([seed, 1])
    at = (np.arange(n_requests) + rng.random(n_requests)) / SERVE_RATE
    hot = rng.random(n_requests) < SERVE_HOT_SHARE
    tenants = np.where(hot, 0, rng.integers(1, SERVE_TENANTS, size=n_requests))
    low, high = SERVE_WIDTHS
    widths = rng.integers(low, high + 1, size=n_requests)
    picks = rng.integers(0, len(interest_ids), size=(n_requests, high))
    # A request repeating an interest is invalid: redraw those rows whole.
    padding = -np.arange(1, high + 1)
    ordered = np.sort(np.where(np.arange(high) < widths[:, None], picks, padding))
    for row in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
        picks[row, : widths[row]] = rng.choice(
            len(interest_ids), size=widths[row], replace=False
        )
    rows = interest_ids[picks].tolist()
    names = [f"tenant-{index:02d}" for index in range(SERVE_TENANTS)]
    return RequestTrace(
        requests=tuple(
            TraceRequest(
                at=when,
                request=ReachRequest(
                    tenant=names[tenant], interests=tuple(row[:width])
                ),
            )
            for when, tenant, width, row in zip(
                at.tolist(), tenants.tolist(), widths.tolist(), rows
            )
        )
    )


def reference_values(
    api: AdsManagerAPI, requests: Sequence[ReachRequest], chunk: int = 4096
) -> dict[ReachRequest, tuple[float, ...]]:
    """Expected answers from ``api``'s bulk endpoint, rows grouped unlike ticks.

    The prefix kernel is row-local, so a row's values do not depend on the
    other rows of its matrix: these equal one-request direct calls.
    """
    distinct = list(dict.fromkeys(requests))
    expected: dict[ReachRequest, tuple[float, ...]] = {}
    for start in range(0, len(distinct), chunk):
        block = distinct[start : start + chunk]
        counts = np.array([request.cost for request in block], dtype=np.int64)
        ids = np.zeros((len(block), int(counts.max())), dtype=np.int64)
        for row, request in enumerate(block):
            ids[row, : request.cost] = request.interests
        matrix = api.estimate_reach_matrix(ids, counts)
        for row, request in enumerate(block):
            expected[request] = tuple(float(v) for v in matrix[row, : request.cost])
    return expected


def serve_outcome(
    report: ServiceRunReport,
    expected: Callable[[ReachRequest], Sequence[float]],
    n_requests: int,
    counters: Mapping[str, int],
) -> Outcome:
    """Check a replay: one op per request, ok when served with the direct answer.

    Requests the admission layer sheds (``throttled`` and the other typed
    rejections) are the service's intended answer, so they count against
    ``ok_share`` but not as failed ops; a served answer that differs from
    the direct call, or a request with no response, is a failed op.
    """
    failures = report.parity_failures(expected)
    served = len(report.completed)
    missing = abs(n_requests - len(report.responses))
    checks = {
        "every served answer equals a direct call": not failures,
        "exactly one response per request": missing == 0,
    }
    summary = report.summary()
    virtual = {
        "status_counts": dict(sorted(summary["status_counts"].items())),
        "shed_rate": summary["shed_rate"],
        "latency_p50_seconds": summary["latency_p50_seconds"],
        "latency_p99_seconds": summary["latency_p99_seconds"],
    }
    lines = [
        f"serve: {served}/{n_requests} served, "
        f"status counts {virtual['status_counts']}, "
        f"shed rate {virtual['shed_rate']:.4f}, virtual p50/p99 "
        f"{virtual['latency_p50_seconds']:g}/{virtual['latency_p99_seconds']:g} s",
        f"serve virtual-summary digest: {digest(virtual)}",
    ]
    submitted = counters["submitted"]
    layer = {
        "service.admitted": counters["admitted"],
        "service.completed": counters["completed"],
        "service.admit_ratio": counters["admitted"] / submitted if submitted else 0.0,
        "service.shed_throttled": counters["shed_throttled"],
        "service.shed_overloaded": counters["shed_overloaded"],
        "service.shed_deadline": counters["shed_deadline"],
        "service.queue_wait.p50_s": report.latency_percentile(50.0) if served else 0.0,
        "service.queue_wait.p99_s": report.latency_percentile(99.0) if served else 0.0,
    }
    ok = served - len(failures)
    failed = len(failures) + missing
    return Outcome(n_requests, ok, failed, checks, lines, layer, digest(virtual))


def modern_api(simulation) -> AdsManagerAPI:
    """A fresh late-2020 API over the simulation's reach model (as ``serve``)."""
    return AdsManagerAPI(
        simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
    )


class ServeHotTenant:
    """``repro-facebook serve --factor 1`` on the benchmark's own trace."""

    name = "serve-hot-tenant"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.simulation = build_simulation(
            default_config(), seed=self.seed, cache=build_cache()
        )
        self.setup_cache = build_cache().cache_info()
        self.trace = make_trace(self.simulation.catalog.interest_ids, self.seed)
        # The CLI's default knobs are ServiceConfig's defaults.
        self.service = ReachService(modern_api(self.simulation), config=ServiceConfig())

    def run(self) -> ServiceRunReport:
        return run_trace(self.service, self.trace)

    def check(self, report: ServiceRunReport) -> Outcome:
        expected = reference_values(
            modern_api(self.simulation), [r.request for r in report.completed]
        )
        outcome = serve_outcome(
            report,
            expected.__getitem__,
            len(self.trace),
            self.service.counters.as_dict(),
        )
        outcome.counters.update(cache_counters([self.setup_cache]))
        return outcome

    def close(self) -> None:
        pass


# -- sweep-cold-warm -----------------------------------------------------------------

SWEEP_SCENARIOS = (
    "nanotargeting-table2",
    "nanotargeting-protected",
    "workload-impact",
    "fdvt-risk",
)
SWEEP_FACTOR = 8
SWEEP_SEEDS = 6


def sweep_specs(seed: int) -> tuple:
    """The grid: every scenario at factor 8 for six seeds drawn from ``seed``.

    Rows pin their seeds, so the four scenarios of one seed share one
    catalog and one panel build.
    """
    rng = np.random.default_rng([seed, 2])
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=SWEEP_SEEDS)]
    return tuple(
        spec
        for name in SWEEP_SCENARIOS
        for spec in expand_grid(
            replace(get_scenario(name), factor=SWEEP_FACTOR), {"seed": seeds}
        )
    )


@dataclass(frozen=True)
class SweepOutputs:
    cold: ResultSet
    warm: ResultSet
    cold_info: CacheInfo
    warm_info: CacheInfo


def sweep_outcome(
    outputs: SweepOutputs, names: Sequence[str], n_seeds: int
) -> Outcome:
    """Check both passes: one op per scenario execution (two per scenario).

    Ops are ok when the warm result equals the cold one and their pass's
    cache accounting holds: two builds per seed stored in pass 1, two disk
    loads per seed in pass 2, no disk errors.
    """
    cold, warm = outputs.cold_info, outputs.warm_info
    builds = 2 * n_seeds
    clean = [
        info.disk_load_errors + info.disk_store_errors == 0 for info in (cold, warm)
    ]
    pass_ok = {
        "pass 1 builds and stores (2 misses, 0 disk hits per seed)": clean[0]
        and (cold.misses, cold.disk_hits) == (builds, 0),
        "pass 2 loads from disk (0 misses, 2 disk hits per seed)": clean[1]
        and (warm.misses, warm.disk_hits) == (0, builds),
    }
    equal = [
        name in outputs.cold
        and name in outputs.warm
        and outputs.cold.get(name) == outputs.warm.get(name)
        for name in names
    ]
    checks = {
        **pass_ok,
        "every warm result equals its cold result": all(equal)
        and len(outputs.cold) == len(outputs.warm) == len(names),
    }
    ok = sum(equal) * sum(pass_ok.values())
    attempted = 2 * len(names)
    results = digest(outputs.cold.to_dicts())
    lines = [
        f"sweep: {len(names)} scenarios x 2 passes; cold {cold}; warm {warm}",
        f"sweep results digest: {results}",
    ]
    layer = cache_counters([cold, warm])
    return Outcome(attempted, ok, attempted - ok, checks, lines, layer, results)


class SweepColdWarm:
    """``SweepRunner`` over four studies x six seeds, cold then warm."""

    name = "sweep-cold-warm"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.root = workdir / "cache"

    def setup(self) -> None:
        self.specs = sweep_specs(self.seed)
        # Serial, shared builds: the sweep defaults.
        self.runner = SweepRunner(executor=ShardExecutor())
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        os.environ["REPRO_CACHE_ROOT"] = str(self.root)
        reset_build_cache()

    def run(self) -> SweepOutputs:
        cold = self.runner.run(self.specs)
        cold_info = build_cache().cache_info()
        reset_build_cache()
        warm = self.runner.run(self.specs)
        return SweepOutputs(cold, warm, cold_info, build_cache().cache_info())

    def check(self, outputs: SweepOutputs) -> Outcome:
        return sweep_outcome(outputs, [spec.name for spec in self.specs], SWEEP_SEEDS)

    def close(self) -> None:
        os.environ.pop("REPRO_CACHE_ROOT", None)
        reset_build_cache()
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOAD_TYPES = {cls.name: cls for cls in (Table1Paper, ServeHotTenant, SweepColdWarm)}
