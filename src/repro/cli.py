"""Command-line interface for the reproduction pipeline.

Installs as the ``repro-facebook`` console script and exposes one
sub-command per stage of the paper:

* ``dataset``          — generate and persist the synthetic catalog + panel;
* ``uniqueness``       — Section 4: estimate N_P for both strategies (Table 1);
* ``nanotargeting``    — Section 5: run the 21-campaign experiment (Table 2);
* ``fdvt-report``      — Section 6: print one panellist's interest-risk view;
* ``countermeasures``  — Section 8.3: evaluate the proposed platform rules;
* ``scenario``         — the declarative orchestration layer
  (:mod:`repro.scenarios`): ``scenario list`` prints the registry,
  ``scenario run NAME`` runs one registered spec (with overrides),
  ``scenario sweep NAME --grid field=v1,v2 ...`` expands a grid and fans it
  across the shard-runner backends, and ``scenario sweep --spec file.json``
  sweeps a fully external grid (a JSON list of specs, or a base spec plus
  grid axes) on the same cached compile path — rows sharing catalog/panel
  fingerprints build those stages once (:mod:`repro.cache`);
* ``cache``            — the disk-backed artifact store: ``cache info``
  reports tier sizes, ``cache clear`` empties the root, ``cache prune
  --max-bytes N`` evicts least-recently-used artifacts down to a byte
  budget and ``cache warm`` pre-builds the artifacts for a scenario/grid
  so later cold runs load instead of rebuild.  The store root comes from ``--root``, the
  ``REPRO_CACHE_ROOT`` environment variable or ``~/.cache/repro-facebook``;
  setting ``REPRO_CACHE_ROOT`` also makes every other sub-command (and
  process workers) hydrate through it.  ``REPRO_CACHE_SIZE`` bounds the
  in-process LRU in front of it.

Every sub-command accepts ``--factor`` (the scale divisor applied to the
paper-scale configuration; 1 reproduces the full-scale study) and ``--seed``.
The heavy commands (``uniqueness``, ``countermeasures``, ``scenario``)
additionally take ``--workers`` / ``--exec-backend`` to run their
panel-scale sweeps through the sharded execution layer (:mod:`repro.exec`);
results are bit-identical for every backend and worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import build_simulation, default_config, quick_config
from .analysis import format_records, format_table
from .cache import (
    BuildCache,
    DiskCache,
    build_cache,
    resolve_cache_root,
)
from .campaigns import AdvertiserWorkloadGenerator
from .countermeasures import (
    evaluate_attack_protection,
    evaluate_workload_impact,
    recommended_rules,
    run_protected_experiment,
)
from .io import (
    experiment_report_to_dict,
    save_catalog,
    save_panel,
    uniqueness_report_to_dict,
)
from ._rng import derive_seed
from .adsapi import AdsManagerAPI
from .config import PlatformConfig
from .errors import ConfigurationError, ReproError, ServiceError
from .faults import FaultPlan, RetryPolicy, WallClockRetryPolicy
from .pipeline import (
    Simulation,
    build_catalog,
    build_panel,
    panel_fingerprint,
)
from .exec import ShardExecutor
from .service import ReachService, RequestTrace, ServiceConfig, run_trace
from .simclock import SimClock
from .scenarios import (
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from .scenarios.sweep import ON_ERROR_MODES, coerce_axis_value, manifest_path_for

#: Exit codes of the console script: 0 success, 1 domain-level failure
#: (e.g. dead-lettered scenarios, --fail-on-success), 2 configuration
#: errors, 3 execution failures, 4 service-layer failures (the reach
#: service's typed rejections surfacing as errors).  Argparse usage
#: errors also exit 2.
EXIT_CONFIG_ERROR = 2
EXIT_EXEC_ERROR = 3
EXIT_SERVICE_ERROR = 4

#: argparse ``const`` sentinel for ``--manifest`` / ``--resume`` given
#: without a FILE: resolve a content-addressed path under the cache root.
_MANIFEST_AUTO = object()


def _build(args: argparse.Namespace) -> Simulation:
    config = default_config() if args.factor <= 1 else quick_config(factor=args.factor)
    # The process-global cache carries a disk tier when REPRO_CACHE_ROOT
    # is set, so repeat (and warmed) CLI runs hydrate the catalog/panel
    # stages from disk; results are bit-identical either way.
    return build_simulation(config, seed=args.seed, cache=build_cache())


def _executor_from_args(simulation: Simulation, args: argparse.Namespace):
    """The ShardExecutor requested by --workers/--exec-backend (None = fused)."""
    workers = getattr(args, "workers", 1)
    backend = getattr(args, "exec_backend", None)
    if workers == 1 and backend is None:
        return None
    return simulation.executor(
        backend=backend or ("thread" if workers > 1 else "serial"),
        workers=workers,
    )


def _scenario_executor(args: argparse.Namespace) -> ShardExecutor | None:
    """Like :func:`_executor_from_args`, without needing a simulation."""
    workers = getattr(args, "workers", 1)
    backend = getattr(args, "exec_backend", None)
    if workers == 1 and backend is None:
        return None
    return ShardExecutor(
        backend=backend or ("thread" if workers > 1 else "serial"), workers=workers
    )


def _write_json(path: str | None, payload: dict) -> None:
    if not path:
        return
    output = Path(path)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {output}")


# -- sub-commands -------------------------------------------------------------------


def cmd_dataset(args: argparse.Namespace) -> int:
    """Generate the synthetic catalog and panel and save them as JSON."""
    simulation = _build(args)
    output_dir = Path(args.output_dir)
    catalog_path = save_catalog(simulation.catalog, output_dir / "catalog.json")
    panel_path = save_panel(simulation.panel, output_dir / "panel.json")
    print(f"catalog: {len(simulation.catalog):,} interests -> {catalog_path}")
    print(f"panel  : {len(simulation.panel):,} users -> {panel_path}")
    return 0


def cmd_uniqueness(args: argparse.Namespace) -> int:
    """Estimate N_P for both selection strategies (Table 1)."""
    simulation = _build(args)
    model = simulation.uniqueness_model()
    executor = _executor_from_args(simulation, args)
    strategies = simulation.strategies()
    probabilities = tuple(args.probabilities)
    rows = []
    payload = {}
    for strategy in strategies:
        report = model.estimate(
            strategy, probabilities=probabilities, executor=executor
        )
        rows.append(report.table_row())
        payload[strategy.name] = uniqueness_report_to_dict(report)
    print(format_records(rows))
    _write_json(args.output, payload)
    return 0


def cmd_nanotargeting(args: argparse.Namespace) -> int:
    """Run the nanotargeting experiment (Table 2)."""
    simulation = _build(args)
    experiment = simulation.nanotargeting_experiment(seed=args.seed)
    report = experiment.run(candidates=simulation.panel.users)
    print(format_records(report.table_rows()))
    print(
        f"successful campaigns: {report.success_count}/{report.n_campaigns}  "
        f"total cost: €{report.total_cost_eur():.2f}  "
        f"successful cost: €{report.successful_cost_eur():.2f}"
    )
    _write_json(args.output, experiment_report_to_dict(report))
    return 1 if args.fail_on_success and report.success_count else 0


def cmd_fdvt_report(args: argparse.Namespace) -> int:
    """Print the interest-risk report of one panellist (Figure 7)."""
    simulation = _build(args)
    extension = simulation.fdvt_extension()
    if args.user_id is not None:
        user = simulation.panel.get(args.user_id)
    else:
        user = next(
            u for u in sorted(simulation.panel.users, key=lambda u: u.interest_count)
            if u.interest_count >= args.min_interests
        )
    report = extension.build_risk_report(user)
    rows = [
        [entry.name[:48], entry.risk.value, entry.audience_size]
        for entry in report.entries[: args.limit]
    ]
    print(f"panel user #{user.user_id} ({user.country}), {user.interest_count} interests")
    print(format_table(["interest", "risk", "audience"], rows))
    counts = {level.value: count for level, count in report.risk_counts().items()}
    print(f"risk breakdown: {counts}")
    return 0


def cmd_countermeasures(args: argparse.Namespace) -> int:
    """Evaluate the Section 8.3 countermeasures."""
    simulation = _build(args)
    experiment = simulation.nanotargeting_experiment(seed=args.seed)
    targets = experiment.select_targets(simulation.panel.users)
    baseline = experiment.run(targets)

    protected_simulation = build_simulation(simulation.config, seed=args.seed)
    protected_experiment = protected_simulation.nanotargeting_experiment(seed=args.seed)
    protected = run_protected_experiment(
        protected_simulation.campaign_api,
        protected_simulation.delivery_engine,
        [protected_simulation.panel.get(t.user_id) for t in targets],
        list(recommended_rules()),
        experiment=protected_experiment,
    )
    effectiveness = evaluate_attack_protection(baseline, protected)
    workload = AdvertiserWorkloadGenerator(simulation.catalog).generate(
        args.workload_size, seed=args.seed or 0
    )
    impact = evaluate_workload_impact(
        simulation.campaign_api,
        workload,
        [recommended_rules()[0]],
        executor=_executor_from_args(simulation, args),
    )
    print(f"baseline successes : {baseline.success_count}/{baseline.n_campaigns}")
    print(f"protected successes: {protected.success_count}/{protected.n_campaigns}")
    print(f"attack reduction   : {effectiveness.attack_reduction:.0%}")
    print(
        f"benign impact      : {impact.rejected_campaigns}/{impact.total_campaigns} "
        f"campaigns rejected ({impact.rejection_rate:.2%})"
    )
    return 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    """Print every registered scenario spec."""
    rows = [
        [spec.name, spec.study, f"factor={spec.factor}", spec.description]
        for spec in list_scenarios()
    ]
    print(format_table(["scenario", "study", "scale", "description"], rows))
    return 0


def _parse_grid(entries: Sequence[str]) -> dict[str, list]:
    """``field=v1,v2`` CLI entries into :func:`expand_grid` axes.

    Value coercion is delegated to
    :func:`repro.scenarios.sweep.coerce_axis_value`, which derives types
    from the ScenarioSpec schema itself.
    """
    axes: dict[str, list] = {}
    for entry in entries:
        field, separator, values = entry.partition("=")
        if not separator or not values:
            raise SystemExit(f"--grid expects field=v1,v2,..., got {entry!r}")
        try:
            axes[field] = [
                coerce_axis_value(field, token) for token in values.split(",")
            ]
        except (ConfigurationError, ValueError) as exc:
            raise SystemExit(f"--grid {entry!r}: {exc}") from None
    return axes


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    overrides = {}
    if args.factor is not None:
        overrides["factor"] = args.factor
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(spec, **overrides) if overrides else spec


def _scenario_with_overrides(args: argparse.Namespace) -> ScenarioSpec:
    return _apply_overrides(get_scenario(args.name), args)


def _load_spec_file(path: str, args: argparse.Namespace) -> tuple[ScenarioSpec, ...]:
    """Parse a ``--spec`` file into the grid of scenarios to sweep.

    Two shapes are accepted (both made of :meth:`ScenarioSpec.to_dict`
    payloads, so a registry export round-trips):

    * a JSON **list** of spec dictionaries — the grid, row by row;
    * a JSON **object** ``{"base": <spec dict>, "grid": {field: [values]}}``
      — expanded with :func:`repro.scenarios.expand_grid` exactly like
      ``--grid`` axes (``grid`` optional; omitted means the base alone).

    ``--factor`` / ``--seed`` overrides apply to every row (list shape) or
    to the base spec before expansion (object shape).  Malformed files
    exit with a diagnostic instead of a traceback.
    """
    spec_path = Path(path)
    try:
        payload = json.loads(spec_path.read_text())
    except OSError as exc:
        raise SystemExit(f"--spec {path}: cannot read file ({exc})") from None
    except ValueError as exc:
        raise SystemExit(f"--spec {path}: not valid JSON ({exc})") from None

    def check_unique_names(specs: tuple[ScenarioSpec, ...]) -> tuple[ScenarioSpec, ...]:
        counts = Counter(spec.name for spec in specs)
        duplicates = sorted(name for name, count in counts.items() if count > 1)
        if duplicates:
            raise SystemExit(f"--spec {path}: duplicate scenario names: {duplicates}")
        return specs

    def spec_from(entry: object) -> ScenarioSpec:
        if not isinstance(entry, dict):
            raise SystemExit(
                f"--spec {path}: every spec must be a JSON object, "
                f"got {type(entry).__name__}"
            )
        return _apply_overrides(ScenarioSpec.from_dict(entry), args)

    try:
        if isinstance(payload, list):
            if not payload:
                raise SystemExit(f"--spec {path}: the spec list is empty")
            return check_unique_names(tuple(spec_from(entry) for entry in payload))
        if isinstance(payload, dict):
            if "base" not in payload:
                raise SystemExit(
                    f"--spec {path}: expected a list of specs or an object "
                    "with a 'base' spec (and optional 'grid' axes)"
                )
            unknown = set(payload) - {"base", "grid"}
            if unknown:
                raise SystemExit(
                    f"--spec {path}: unknown top-level keys: {sorted(unknown)}"
                )
            base = spec_from(payload["base"])
            axes = payload.get("grid")
            if axes is None:
                axes = {}
            if not isinstance(axes, dict):
                raise SystemExit(f"--spec {path}: 'grid' must map fields to value lists")
            for field, values in axes.items():
                if not isinstance(values, list):
                    raise SystemExit(
                        f"--spec {path}: grid axis {field!r} must be a JSON list "
                        f"of values, got {type(values).__name__}"
                    )
            return check_unique_names(
                expand_grid(base, {name: list(values) for name, values in axes.items()})
            )
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise SystemExit(f"--spec {path}: {exc}") from None
    raise SystemExit(f"--spec {path}: expected a JSON list or object")


def cmd_scenario_run(args: argparse.Namespace) -> int:
    """Run one registered scenario through the Experiment protocol."""
    spec = _scenario_with_overrides(args)
    result = run_scenario(spec, executor=_scenario_executor(args))
    print(f"scenario {result.scenario} ({result.study}, seed={result.seed})")
    for line in result.summary:
        print(f"  {line}")
    print(format_records([{"scenario": result.scenario, **result.metrics_dict}]))
    _write_json(args.output, result.to_dict())
    return 0


def _sweep_fault_layer(
    args: argparse.Namespace,
) -> tuple[RetryPolicy | None, FaultPlan | None]:
    """The (retry, faults) pair requested by --retries/--fault-rate.

    ``--wall-clock-retries`` swaps the simulated-time policy for
    :class:`WallClockRetryPolicy` (seeded full jitter, real sleeps
    between attempts) — the run manifest notes which clock a sweep used.
    """
    if getattr(args, "wall_clock_retries", False):
        def policy(max_attempts: int) -> RetryPolicy:
            return WallClockRetryPolicy(
                max_attempts=max_attempts,
                jitter_seed=derive_seed(args.fault_seed or 0, "cli-wall-jitter"),
            )
    else:
        policy = RetryPolicy
    retry = policy(max_attempts=args.retries + 1) if args.retries else None
    faults = None
    if args.fault_rate:
        faults = FaultPlan(
            seed=derive_seed(args.fault_seed or 0, "cli-faults"),
            transient_rate=args.fault_rate / 3.0,
            error_rate=args.fault_rate / 3.0,
            slow_rate=args.fault_rate / 3.0,
        )
        if retry is None:
            # Injection without retries would just kill the sweep; pair it
            # with the plan's convergence bound by default.
            retry = policy(max_attempts=faults.max_faults_per_task + 1)
    return retry, faults


def cmd_scenario_sweep(args: argparse.Namespace) -> int:
    """Expand a grid over one scenario and fan it across the runner backends.

    The grid comes either from a registered scenario plus ``--grid`` axes,
    or — fully externally — from a ``--spec`` JSON file (a list of spec
    dictionaries, or a base spec with grid axes).  Both ride the same
    cached compile path: rows sharing catalog/panel fingerprints build
    those stages once.

    Fault tolerance: ``--retries`` enables per-scenario retries,
    ``--on-error skip`` dead-letters failing scenarios instead of
    aborting, ``--manifest [FILE]`` persists per-scenario outcomes
    incrementally, and ``--resume [FILE]`` re-runs only the scenarios a
    previous manifest did not complete (matched by full-spec
    fingerprint).  Given without FILE, both default to a
    content-addressed path under the cache root (``REPRO_CACHE_ROOT`` or
    ``~/.cache/repro-facebook``) derived from the resolved grid, so
    resume state and cache hydration share one root; a bare ``--resume``
    whose manifest does not exist yet simply starts fresh.
    ``--fault-rate`` injects deterministic chaos for drills.  Exit
    status is 1 when any scenario dead-lettered.
    """
    if args.spec is not None:
        if args.name is not None:
            raise SystemExit("give either a registered scenario name or --spec, not both")
        if args.grid:
            raise SystemExit("--grid belongs in the --spec file's 'grid' object")
        specs = _load_spec_file(args.spec, args)
    else:
        if args.name is None:
            raise SystemExit("a registered scenario name (or --spec FILE) is required")
        base = _scenario_with_overrides(args)
        specs = expand_grid(base, _parse_grid(args.grid))
    executor = _scenario_executor(args) or ShardExecutor()
    retry, faults = _sweep_fault_layer(args)
    runner = SweepRunner(
        executor=executor,
        seed=args.sweep_seed,
        retry=retry,
        faults=faults,
        on_error=args.on_error,
    )
    manifest_path = args.manifest
    resume = args.resume
    if manifest_path is _MANIFEST_AUTO or resume is _MANIFEST_AUTO:
        auto_path = manifest_path_for(runner.resolve(specs))
        if manifest_path is _MANIFEST_AUTO:
            manifest_path = auto_path
        if resume is _MANIFEST_AUTO:
            # A bare --resume with no manifest yet is a fresh run, not an
            # error — the first interrupted attempt creates the file.
            resume = auto_path if auto_path.is_file() else None
    report = runner.run_report(
        specs, resume=resume, manifest_path=manifest_path
    )
    results = report.results
    print(
        f"swept {len(results)} scenarios on {executor.describe()} "
        f"(sweep seed: {args.sweep_seed})"
    )
    counts = report.counts()
    if counts["retried"] or counts["resumed"] or counts["failed"]:
        print(
            f"outcomes: {counts['completed']}/{counts['total']} completed, "
            f"{counts['retried']} retried, {counts['resumed']} resumed, "
            f"{counts['failed']} dead-lettered"
        )
    print(format_records(results.table_rows()))
    if manifest_path:
        print(f"manifest: {manifest_path}")
    _write_json(args.output, {"scenarios": results.to_dicts()})
    if not report.ok:
        for line in report.failure_lines():
            print(line, file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on reach service against a (generated or saved) trace.

    Builds a warm simulation, stands up a :class:`~repro.service.ReachService`
    over a fresh modern-platform API, replays a request trace through it
    (``--trace FILE`` for a saved one, otherwise a seeded synthetic
    workload from ``--duration``/``--rps``/``--tenants``) and prints the
    run report: status counts, shed rate, P50/P99 virtual latency and
    throughput.  ``--fault-rate`` injects deterministic chaos into the
    service tick; ``--verify-parity`` re-checks every served answer
    against a direct bulk call and fails loudly on any mismatch.
    """
    simulation = _build(args)
    api = AdsManagerAPI(
        simulation.reach_model,
        platform=PlatformConfig.modern_2020(),
        clock=SimClock(),
    )
    config = ServiceConfig(
        tenant_requests_per_minute=args.tenant_rpm,
        tenant_burst=args.tenant_burst,
        max_queue_cells=args.max_queue_cells,
        max_batch_cells=args.max_batch_cells,
        tick_seconds=args.tick_seconds,
        default_timeout_seconds=args.timeout_seconds,
    )
    retry, faults = _sweep_fault_layer(args)
    service = ReachService(api, config=config, retry=retry, faults=faults)
    if args.trace:
        trace = RequestTrace.load(args.trace)
        print(f"loaded trace: {args.trace} ({len(trace)} requests)")
    else:
        trace = RequestTrace.generate(
            simulation.catalog,
            seed=args.seed if args.seed is not None else 0,
            duration_seconds=args.duration,
            requests_per_second=args.rps,
            tenants=args.tenants,
            hot_tenant_share=args.hot_share,
        )
    if args.trace_out:
        path = trace.save(args.trace_out)
        print(f"wrote trace: {path}")
    start = time.perf_counter()
    report = run_trace(service, trace)
    wall_seconds = time.perf_counter() - start
    summary = report.summary()
    served = len(report.completed)
    print(
        f"served {served}/{summary['responses']} requests over "
        f"{summary['virtual_seconds']:g} virtual seconds "
        f"({summary['ticks']} ticks, {wall_seconds:.3f}s wall)"
    )
    print(f"status counts: {summary['status_counts']}")
    print(
        f"shed rate: {summary['shed_rate']:.3f}  "
        f"virtual qps: {summary['virtual_qps']:.2f}  "
        f"wall qps: {served / wall_seconds if wall_seconds > 0 else float('inf'):.1f}"
    )
    print(
        f"latency (virtual): p50 {summary['latency_p50_seconds']:g}s  "
        f"p99 {summary['latency_p99_seconds']:g}s"
    )
    parity_ok = None
    if args.verify_parity:
        reference = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )
        failures = report.parity_failures(reference)
        parity_ok = not failures
        if failures:
            print(
                f"PARITY FAILURE: {len(failures)} served response(s) differ "
                "from direct bulk calls",
                file=sys.stderr,
            )
        else:
            print(f"parity: all {served} served responses match direct calls")
    _write_json(
        args.output,
        {
            "summary": summary,
            "wall_seconds": wall_seconds,
            "service": service.stats(),
            "parity_ok": parity_ok,
        },
    )
    if parity_ok is False:
        return 1
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Describe a deterministic fault plan (and preview what would fire)."""
    plan = FaultPlan(
        seed=derive_seed(args.seed or 0, "cli-faults"),
        transient_rate=args.transient_rate,
        error_rate=args.error_rate,
        slow_rate=args.slow_rate,
        crash_rate=args.crash_rate,
    )
    print("fault plan:")
    for key, value in plan.describe().items():
        print(f"  {key}: {value}")
    retry = RetryPolicy(max_attempts=args.retries + 1)
    print("retry policy (sim clock — offline sweeps):")
    for key, value in retry.describe().items():
        print(f"  {key}: {value}")
    wall = WallClockRetryPolicy(
        max_attempts=args.retries + 1,
        jitter_seed=derive_seed(args.seed or 0, "cli-wall-jitter"),
    )
    print("retry policy (wall clock — always-on service, full jitter):")
    for key, value in wall.describe().items():
        print(f"  {key}: {value}")
    decisions = plan.preview(args.tasks, args.attempts)
    print(
        f"preview: {len(decisions)} fault(s) over {args.tasks} task(s) "
        f"x {args.attempts} attempt(s)"
    )
    for decision in decisions:
        detail = f" ({decision.seconds:g}s)" if decision.seconds else ""
        print(
            f"  task {decision.task_index} attempt {decision.attempt}: "
            f"{decision.kind}{detail}"
        )
    converges = retry.max_attempts > plan.max_faults_per_task
    print(
        "convergence: "
        + (
            "guaranteed (max_attempts > max_faults_per_task)"
            if converges
            else "NOT guaranteed — raise --retries above max_faults_per_task"
        )
    )
    return 0


def _format_bytes(count: int) -> str:
    """Human-readable byte count (binary units)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(count)} B"  # pragma: no cover - unreachable


def _cache_disk(args: argparse.Namespace) -> DiskCache:
    """The disk tier addressed by ``--root`` / REPRO_CACHE_ROOT / default."""
    return DiskCache(resolve_cache_root(getattr(args, "root", None)))


def cmd_cache_info(args: argparse.Namespace) -> int:
    """Report the disk tier's root, artifact counts and byte totals."""
    info = _cache_disk(args).info()
    print(f"cache root: {info['root']}")
    print(f"artifacts : {info['artifacts']} ({_format_bytes(info['bytes'])})")
    for kind in sorted(info["kinds"]):
        entry = info["kinds"][kind]
        print(f"  {kind}: {entry['count']} ({_format_bytes(entry['bytes'])})")
    print(f"manifests : {info['manifests']}")
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    """Remove every artifact and sweep manifest under the cache root."""
    disk = _cache_disk(args)
    removed = disk.clear()
    print(f"removed {removed} file(s) from {disk.root}")
    return 0


def cmd_cache_prune(args: argparse.Namespace) -> int:
    """Evict least-recently-used artifacts until the root fits a byte budget.

    Recency is artifact mtime — refreshed on every disk hit — so the
    artifacts still hydrating runs survive and cold leftovers from old
    sweeps go first.  Eviction is per-file unlink: a reader that already
    opened a pruned artifact keeps its file handle, and a key pruned
    mid-build is simply rebuilt and republished on the next miss.
    """
    disk = _cache_disk(args)
    stats = disk.prune(args.max_bytes)
    print(f"cache root: {disk.root}")
    print(
        f"pruned {stats['removed']} artifact(s) ({_format_bytes(stats['freed_bytes'])}); "
        f"{_format_bytes(stats['remaining_bytes'])} of "
        f"{_format_bytes(args.max_bytes)} budget in use"
    )
    return 0


def cmd_cache_warm(args: argparse.Namespace) -> int:
    """Pre-build and publish the catalog/panel artifacts for a spec or grid.

    With a registered scenario name (plus optional ``--grid`` axes) or a
    ``--spec`` file, warms every distinct catalog/panel stage of the
    resolved grid; without one, warms the default ``--factor``/``--seed``
    configuration the other sub-commands build.  A later run against the
    same root — any process, any worker count — hydrates those stages
    from disk instead of rebuilding them, bit-identically.
    """
    disk = _cache_disk(args)
    cache = BuildCache(disk=disk)
    if args.spec is not None:
        if args.name is not None:
            raise SystemExit("give either a registered scenario name or --spec, not both")
        if args.grid:
            raise SystemExit("--grid belongs in the --spec file's 'grid' object")
        specs = _load_spec_file(args.spec, args)
    elif args.name is not None:
        base = _scenario_with_overrides(args)
        specs = expand_grid(base, _parse_grid(args.grid))
    else:
        specs = ()
    if specs:
        if args.sweep_seed is not None:
            specs = tuple(spec.derived(args.sweep_seed) for spec in specs)
        jobs = [(spec.config(), spec.seed) for spec in specs]
    else:
        config = (
            default_config()
            if (args.factor or 20) <= 1
            else quick_config(factor=args.factor or 20)
        )
        jobs = [(config, args.seed)]
    seen: set[str] = set()
    for config, seed in jobs:
        stage_key = panel_fingerprint(config, seed)
        if stage_key in seen:
            continue
        seen.add(stage_key)
        catalog = build_catalog(config, seed=seed, cache=cache)
        build_panel(config, seed=seed, catalog=catalog, cache=cache)
    info = cache.cache_info()
    print(f"cache root: {disk.root}")
    print(
        f"warmed {len(seen)} stage group(s): {info.misses} artifact(s) built, "
        f"{info.disk_hits} already on disk"
    )
    if info.disk_store_errors:
        print(
            f"warning: {info.disk_store_errors} artifact(s) could not be "
            "published (unwritable root?)",
            file=sys.stderr,
        )
        return 1
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-facebook",
        description="Reproduction of 'Unique on Facebook' (IMC 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--factor",
            type=int,
            default=20,
            help="scale divisor applied to the paper-scale configuration (1 = full scale)",
        )
        sub.add_argument("--seed", type=int, default=None, help="override the default seeds")

    def add_exec(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker count for the sharded execution layer (1 = fused pass)",
        )
        sub.add_argument(
            "--exec-backend",
            choices=("serial", "thread", "process"),
            default=None,
            help="shard runner backend (defaults to thread when --workers > 1)",
        )

    dataset = subparsers.add_parser("dataset", help="generate and save the synthetic dataset")
    add_common(dataset)
    dataset.add_argument("--output-dir", default="dataset", help="directory for the JSON files")
    dataset.set_defaults(handler=cmd_dataset)

    uniqueness = subparsers.add_parser("uniqueness", help="estimate N_P (Table 1)")
    add_common(uniqueness)
    add_exec(uniqueness)
    uniqueness.add_argument(
        "--probabilities",
        type=float,
        nargs="+",
        default=[0.5, 0.8, 0.9, 0.95],
        help="probabilities P for which N_P is estimated",
    )
    uniqueness.add_argument("--output", default=None, help="write the reports as JSON")
    uniqueness.set_defaults(handler=cmd_uniqueness)

    nanotargeting = subparsers.add_parser(
        "nanotargeting", help="run the nanotargeting experiment (Table 2)"
    )
    add_common(nanotargeting)
    nanotargeting.add_argument("--output", default=None, help="write the report as JSON")
    nanotargeting.add_argument(
        "--fail-on-success",
        action="store_true",
        help="exit with status 1 when any campaign nanotargets its user "
        "(useful as a regression check for countermeasure deployments)",
    )
    nanotargeting.set_defaults(handler=cmd_nanotargeting)

    fdvt = subparsers.add_parser("fdvt-report", help="print a user's interest-risk view")
    add_common(fdvt)
    fdvt.add_argument("--user-id", type=int, default=None, help="panel user id to inspect")
    fdvt.add_argument("--min-interests", type=int, default=30)
    fdvt.add_argument("--limit", type=int, default=15, help="rows to display")
    fdvt.set_defaults(handler=cmd_fdvt_report)

    countermeasures = subparsers.add_parser(
        "countermeasures", help="evaluate the Section 8.3 countermeasures"
    )
    add_common(countermeasures)
    add_exec(countermeasures)
    countermeasures.add_argument("--workload-size", type=int, default=500)
    countermeasures.set_defaults(handler=cmd_countermeasures)

    scenario = subparsers.add_parser(
        "scenario", help="declarative scenario orchestration (repro.scenarios)"
    )
    scenario_subs = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_list = scenario_subs.add_parser("list", help="print the scenario registry")
    scenario_list.set_defaults(handler=cmd_scenario_list)

    def add_scenario_common(
        sub: argparse.ArgumentParser, *, name_required: bool = True
    ) -> None:
        if name_required:
            sub.add_argument(
                "name", help="registered scenario name (see `scenario list`)"
            )
        else:
            sub.add_argument(
                "name",
                nargs="?",
                default=None,
                help="registered scenario name (omit when sweeping a --spec file)",
            )
        sub.add_argument(
            "--factor", type=int, default=None, help="override the spec's scale divisor"
        )
        sub.add_argument(
            "--seed", type=int, default=None, help="override the spec's seed"
        )
        add_exec(sub)
        sub.add_argument("--output", default=None, help="write the results as JSON")

    scenario_run = scenario_subs.add_parser(
        "run", help="run one registered scenario"
    )
    add_scenario_common(scenario_run)
    scenario_run.set_defaults(handler=cmd_scenario_run)

    scenario_sweep = scenario_subs.add_parser(
        "sweep", help="expand a grid over one scenario and run it sharded"
    )
    add_scenario_common(scenario_sweep, name_required=False)
    scenario_sweep.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="sweep a fully external grid: a JSON list of scenario specs, or "
        "an object {'base': spec, 'grid': {field: [values]}}; rows sharing "
        "catalog/panel fingerprints build those stages once",
    )
    scenario_sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2",
        help="one grid axis (repeatable); tuple fields join elements with '+', "
        "e.g. --grid strategies=least_popular+random,random --grid seed=1,2,3",
    )
    scenario_sweep.add_argument(
        "--sweep-seed",
        type=int,
        default=None,
        help="derive per-scenario seeds from this base (specs with explicit "
        "seeds keep them)",
    )
    scenario_sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retries per scenario for transient failures (0 = fail fast)",
    )
    scenario_sweep.add_argument(
        "--on-error",
        choices=ON_ERROR_MODES,
        default="raise",
        help="what to do when a scenario exhausts its retries: abort the "
        "sweep, or dead-letter it and return the partial results",
    )
    scenario_sweep.add_argument(
        "--manifest",
        nargs="?",
        const=_MANIFEST_AUTO,
        default=None,
        metavar="FILE",
        help="persist per-scenario outcomes to FILE after every chunk "
        "(a killed sweep leaves a valid --resume point); without FILE, "
        "a content-addressed path under the cache root (REPRO_CACHE_ROOT "
        "or ~/.cache/repro-facebook) derived from the resolved grid",
    )
    scenario_sweep.add_argument(
        "--resume",
        nargs="?",
        const=_MANIFEST_AUTO,
        default=None,
        metavar="FILE",
        help="resume from a previous run's manifest: completed scenarios "
        "whose spec fingerprint still matches hydrate instead of re-running; "
        "without FILE, the same cache-root default path as --manifest "
        "(missing manifest = fresh run)",
    )
    scenario_sweep.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject deterministic chaos: per-attempt fault probability, "
        "split across transient API errors, task errors and slow rows",
    )
    scenario_sweep.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed of the injected fault plan (chaos replays bit-identically)",
    )
    scenario_sweep.add_argument(
        "--wall-clock-retries",
        action="store_true",
        help="back off on real time with seeded full jitter instead of the "
        "simulated clock (the manifest notes which clock a run used)",
    )
    scenario_sweep.set_defaults(handler=cmd_scenario_sweep)

    serve = subparsers.add_parser(
        "serve",
        help="run the always-on reach service against a request trace",
    )
    add_common(serve)
    serve.add_argument(
        "--trace", default=None, metavar="FILE", help="replay a saved request trace"
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="save the (generated) trace for exact replay",
    )
    serve.add_argument(
        "--duration", type=float, default=30.0, help="generated-trace span (virtual s)"
    )
    serve.add_argument(
        "--rps", type=float, default=8.0, help="generated-trace arrival rate"
    )
    serve.add_argument(
        "--tenants", type=int, default=4, help="generated-trace tenant count"
    )
    serve.add_argument(
        "--hot-share",
        type=float,
        default=0.0,
        help="share of generated requests sent by one hot tenant (0 = even)",
    )
    serve.add_argument(
        "--tenant-rpm",
        type=float,
        default=600.0,
        help="per-tenant admission rate (cells per minute)",
    )
    serve.add_argument(
        "--tenant-burst", type=int, default=50, help="per-tenant admission burst (cells)"
    )
    serve.add_argument(
        "--max-queue-cells", type=int, default=256, help="bound on queued cells"
    )
    serve.add_argument(
        "--max-batch-cells", type=int, default=64, help="cell budget per coalesced tick"
    )
    serve.add_argument(
        "--tick-seconds", type=float, default=1.0, help="virtual seconds per tick"
    )
    serve.add_argument(
        "--timeout-seconds",
        type=float,
        default=30.0,
        help="default request deadline (virtual seconds)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry budget per admitted request against injected faults",
    )
    serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject deterministic chaos into the service tick",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=None, help="seed of the injected fault plan"
    )
    serve.add_argument(
        "--wall-clock-retries",
        action="store_true",
        help="compute retry backoff with the wall-clock policy's full jitter "
        "(delays still elapse in service virtual time)",
    )
    serve.add_argument(
        "--verify-parity",
        action="store_true",
        help="re-check every served answer against a direct bulk call",
    )
    serve.add_argument(
        "--output", default=None, metavar="FILE", help="write the run report as JSON"
    )
    serve.set_defaults(handler=cmd_serve)

    faults = subparsers.add_parser(
        "faults",
        help="describe a deterministic fault plan and preview what would fire",
    )
    faults.add_argument("--seed", type=int, default=None, help="fault-plan seed")
    faults.add_argument("--transient-rate", type=float, default=0.1)
    faults.add_argument("--error-rate", type=float, default=0.05)
    faults.add_argument("--slow-rate", type=float, default=0.05)
    faults.add_argument("--crash-rate", type=float, default=0.0)
    faults.add_argument(
        "--retries", type=int, default=3, help="retry budget to check convergence against"
    )
    faults.add_argument(
        "--tasks", type=int, default=16, help="tasks covered by the preview"
    )
    faults.add_argument(
        "--attempts", type=int, default=2, help="attempts per task in the preview"
    )
    faults.set_defaults(handler=cmd_faults)

    cache = subparsers.add_parser(
        "cache",
        help="inspect, clear or warm the disk-backed artifact store",
        description="Manage the content-addressed artifact store the build "
        "cache hydrates from (REPRO_CACHE_ROOT; in-process LRU bound: "
        "REPRO_CACHE_SIZE). Artifacts are keyed by stage fingerprint, "
        "version-tagged and digest-checked, so corrupted or stale files "
        "are rebuilt, never trusted.",
    )
    cache_subs = cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_root(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--root",
            default=None,
            metavar="DIR",
            help="cache root (default: REPRO_CACHE_ROOT or ~/.cache/repro-facebook)",
        )

    cache_info = cache_subs.add_parser(
        "info", help="report artifact counts and sizes under the cache root"
    )
    add_cache_root(cache_info)
    cache_info.set_defaults(handler=cmd_cache_info)

    cache_clear = cache_subs.add_parser(
        "clear", help="remove every artifact and sweep manifest under the root"
    )
    add_cache_root(cache_clear)
    cache_clear.set_defaults(handler=cmd_cache_clear)

    cache_prune = cache_subs.add_parser(
        "prune",
        help="evict least-recently-used artifacts down to a byte budget",
    )
    add_cache_root(cache_prune)
    cache_prune.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        metavar="N",
        help="byte budget to shrink the artifact store to (oldest-mtime "
        "artifacts are unlinked first; disk hits refresh mtime)",
    )
    cache_prune.set_defaults(handler=cmd_cache_prune)

    cache_warm = cache_subs.add_parser(
        "warm",
        help="pre-build the catalog/panel artifacts for a scenario or grid",
    )
    add_cache_root(cache_warm)
    cache_warm.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered scenario name to warm (omit for the default "
        "--factor/--seed configuration, or use --spec)",
    )
    cache_warm.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="warm every stage of an external spec/grid file "
        "(same format as `scenario sweep --spec`)",
    )
    cache_warm.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2",
        help="grid axes over the named scenario (same syntax as "
        "`scenario sweep --grid`)",
    )
    cache_warm.add_argument(
        "--factor", type=int, default=None, help="scale divisor (default 20)"
    )
    cache_warm.add_argument(
        "--seed", type=int, default=None, help="seed of the warmed stages"
    )
    cache_warm.add_argument(
        "--sweep-seed",
        type=int,
        default=None,
        help="derive per-scenario seeds like `scenario sweep --sweep-seed`",
    )
    cache_warm.set_defaults(handler=cmd_cache_warm)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the console script.

    Library failures surface as a one-line stderr diagnostic and a
    distinct exit code — :data:`EXIT_CONFIG_ERROR` (2) for configuration
    errors, :data:`EXIT_SERVICE_ERROR` (4) for reach-service failures,
    :data:`EXIT_EXEC_ERROR` (3) for everything else the library raises —
    never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as error:
        print(f"repro-facebook: configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ServiceError as error:
        print(
            f"repro-facebook: service error: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return EXIT_SERVICE_ERROR
    except ReproError as error:
        print(
            f"repro-facebook: {type(error).__name__}: {error}", file=sys.stderr
        )
        return EXIT_EXEC_ERROR


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
