"""Sharded scenario sweeps: a grid of specs fanned over the exec layer.

:class:`SweepRunner` takes an ordered grid of
:class:`~repro.scenarios.spec.ScenarioSpec`\\ s, partitions it with the
executor's :class:`~repro.exec.ExecutionPlan` (one row per scenario) and
runs the chunks on the same :class:`~repro.exec.runner.ShardRunner`
backends as collection — serial, thread pool or process pool (specs are
pure data, so process workers pickle a few primitives and compile their own
simulations).  Per-chunk :class:`~repro.core.results.ResultSet` blocks
reassemble in grid order, so the sweep result lists scenarios exactly in
grid order and is **identical** to running every spec directly — each
scenario compiles its own simulation from its own (derived) seed, no run
state is shared across grid rows.

Shared builds: with ``share_builds`` (the default) the runner groups grid
rows by their (catalog, panel) stage fingerprints
(:meth:`ScenarioSpec.stage_fingerprints`) so rows that only vary analysis
knobs — strategies, probabilities, API tier, countermeasure rules — land
in the same chunks, and every chunk compiles through the process-global
:class:`~repro.cache.BuildCache`.  An analysis-knob-only sweep therefore
builds its catalog and panel exactly once (per process) instead of once
per row, while the results stay bit-identical to the uncached path:
cached artifacts are immutable inputs and the per-run shell is always
fresh (see :mod:`repro.pipeline`).

Fault tolerance (see :mod:`repro.faults`): a sweep optionally carries a
:class:`~repro.faults.RetryPolicy` and a seeded
:class:`~repro.faults.FaultPlan`.  Error-kind faults are injected *per
grid row* — keyed by the row's position in the resolved grid, which is
invariant under chunking, build-grouping and worker counts, so a chaos
sweep replays identically on every backend — while "crash" faults are
handed down to the shard runner (:meth:`FaultPlan.restricted`), whose
pool-rebuild recovery they exercise.  ``on_error`` picks the degradation
mode: ``"raise"`` aborts on the first spec that exhausts its retries,
``"skip"`` dead-letters it (error + traceback captured in the
:class:`~repro.scenarios.manifest.RunManifest`) and returns the partial
results.  :meth:`SweepRunner.run_report` saves the manifest incrementally
and can *resume* from one, re-running only non-completed specs keyed by
full-spec fingerprints — a resumed sweep is bit-identical to an
undisturbed one.

:func:`expand_grid` builds the grid: the cartesian product of a base spec
and per-field axes, with deterministic ``name/field=value`` naming that the
per-scenario seed derivation (:meth:`ScenarioSpec.derived`) keys on.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

from ..cache import build_cache, resolve_cache_root, stable_fingerprint
from ..core.results import ResultSet, ScenarioResult
from ..errors import ConfigurationError
from ..exec import ShardExecutor
from ..faults import FaultPlan, RetryPolicy, WallClockRetryPolicy, guarded_call
from .experiments import run_scenario
from .manifest import ManifestEntry, RunManifest
from .spec import ScenarioSpec

#: Degradation modes for specs that exhaust their retries.
ON_ERROR_MODES = ("raise", "skip")

#: Fault kinds injected per grid row (everything except worker crashes,
#: which belong to the runner layer — see :meth:`SweepRunner._fault_split`).
_SPEC_FAULT_KINDS = ("transient_api", "task_error", "slow")

#: Tuple-valued spec fields and their element types (grid axis values are
#: coerced on expansion; CLI tokens join elements with "+").
_TUPLE_FIELDS: Mapping[str, type] = {
    "strategies": str,
    "countermeasures": str,
    "probabilities": float,
    "interest_counts": int,
}


def coerce_axis_value(field_name: str, token: str) -> object:
    """Parse one CLI token into the value type of a ScenarioSpec grid axis.

    The single source of truth for ``--grid field=v1,v2`` coercion: tuple
    fields come from :data:`_TUPLE_FIELDS` (elements joined with ``+``),
    scalar fields follow the dataclass annotation, so a new spec field
    needs no CLI-side table update.
    """
    fields = ScenarioSpec.__dataclass_fields__
    if field_name not in fields:
        raise ConfigurationError(f"unknown scenario field: {field_name!r}")
    if field_name in _TUPLE_FIELDS:
        element = _TUPLE_FIELDS[field_name]
        return tuple(element(part) for part in token.split("+"))
    annotation = str(fields[field_name].type)
    if "int" in annotation:
        return int(token)
    if "float" in annotation:
        return float(token)
    return token


@dataclass(frozen=True)
class _SweepChunk:
    """One picklable unit of sweep work: a run of specs plus their context.

    ``indices`` carries each spec's position in the *resolved grid* so
    per-row fault injection keys on a quantity invariant under chunking
    and build-grouping; ``retry`` / ``faults`` / ``on_error`` travel with
    the chunk because process workers cannot see the coordinator's state.
    """

    specs: tuple[ScenarioSpec, ...]
    share_builds: bool
    indices: tuple[int, ...] = ()
    retry: RetryPolicy | None = None
    faults: FaultPlan | None = None
    on_error: str = "raise"


@dataclass(frozen=True)
class _SpecOutcome:
    """The picklable per-spec verdict a chunk run reports back."""

    scenario: str
    attempts: int
    result: ScenarioResult | None = None
    error: str | None = None
    traceback: str | None = None


def _run_scenario_chunk(chunk: _SweepChunk) -> list[_SpecOutcome]:
    """Run one chunk of the grid (the unit a runner executes).

    With ``share_builds`` every compile in the chunk goes through the
    process-global :class:`~repro.cache.BuildCache`: serial and thread
    backends share one cache across all chunks, each process-pool worker
    amortises its own across the chunks (and sweeps) it executes.

    Each spec runs through :func:`~repro.faults.guarded_call` when a
    retry policy or fault plan is configured (plain directly otherwise —
    the fault-free path stays zero-overhead).  A spec that exhausts its
    retries either aborts the chunk (``on_error="raise"``; the runner
    wraps the error with shard context) or is dead-lettered in place with
    its traceback captured (``on_error="skip"``).
    """
    cache = build_cache() if chunk.share_builds else None
    indices = chunk.indices or tuple(range(len(chunk.specs)))
    guarded = chunk.retry is not None or chunk.faults is not None

    def execute(spec: ScenarioSpec) -> ScenarioResult:
        return run_scenario(spec, cache=cache)

    outcomes: list[_SpecOutcome] = []
    for index, spec in zip(indices, chunk.specs):
        try:
            if guarded:
                result, attempts = guarded_call(
                    execute,
                    spec,
                    index=index,
                    retry=chunk.retry,
                    faults=chunk.faults,
                )
            else:
                result, attempts = execute(spec), 1
        except Exception as error:
            if chunk.on_error == "raise":
                raise
            outcomes.append(
                _SpecOutcome(
                    scenario=spec.name,
                    attempts=getattr(error, "attempts", 1),
                    error=f"{type(error).__name__}: {error}",
                    traceback=traceback_module.format_exc(),
                )
            )
            continue
        outcomes.append(
            _SpecOutcome(scenario=spec.name, attempts=attempts, result=result)
        )
    return outcomes


@dataclass(frozen=True)
class SweepReport:
    """Everything one sweep produced: results, outcomes, failure detail.

    ``results`` lists the completed scenarios in grid order (all of them
    when the sweep ran clean, a partial set under ``on_error="skip"``);
    ``manifest`` records every spec's outcome, including dead letters
    with captured tracebacks, and is what a later run resumes from.
    """

    results: ResultSet
    manifest: RunManifest

    @property
    def ok(self) -> bool:
        """True when every spec completed."""
        return not self.manifest.failures()

    def counts(self) -> dict[str, int]:
        """Summary counts (total / completed / failed / retried / resumed)."""
        return self.manifest.counts()

    def failure_lines(self) -> list[str]:
        """One human-readable line per dead-lettered spec."""
        return [
            f"[{entry.scenario}] failed after {entry.attempts} attempt(s): {entry.error}"
            for entry in self.manifest.failures()
        ]


@dataclass(frozen=True)
class SweepRunner:
    """Runs a grid of scenarios across a shard-runner backend.

    ``seed`` (when given) derives a deterministic per-scenario seed for
    every spec that does not pin one — ``derive_seed(seed, "scenario",
    name)`` — so re-running the sweep, running a single grid row directly,
    or moving the sweep to another backend or worker count all produce
    bit-identical :class:`~repro.core.results.ResultSet`\\ s.

    ``share_builds`` (default on) routes every chunk's simulation compiles
    through the process-global :class:`~repro.cache.BuildCache` and packs
    rows with equal (catalog, panel) stage fingerprints into the same
    chunks, so expensive builds happen once per distinct fingerprint
    rather than once per row.  The result set is bit-identical either way
    — ``share_builds=False`` is the reference path benchmarks and parity
    tests pin against.

    ``retry`` / ``faults`` / ``on_error`` configure the fault-tolerance
    layer (module docstring above; full contract in :mod:`repro.faults`).
    When ``retry`` or ``faults`` is unset the executor's own fields apply,
    so one :class:`~repro.exec.ShardExecutor` can carry the whole choice.
    """

    executor: ShardExecutor = field(default_factory=ShardExecutor)
    seed: int | None = None
    share_builds: bool = True
    retry: RetryPolicy | None = None
    faults: FaultPlan | None = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ConfigurationError(
                f"unknown on_error mode: {self.on_error!r} "
                f"(expected one of {ON_ERROR_MODES})"
            )

    def resolve(self, specs: Sequence[ScenarioSpec]) -> tuple[ScenarioSpec, ...]:
        """The grid as it will actually run (seeds derived, names checked)."""
        resolved = tuple(
            spec if self.seed is None else spec.derived(self.seed) for spec in specs
        )
        names = [spec.name for spec in resolved]
        if len(set(names)) != len(names):
            raise ConfigurationError("scenario names in a sweep must be unique")
        return resolved

    def build_groups(
        self, resolved: Sequence[ScenarioSpec]
    ) -> tuple[tuple[ScenarioSpec, ...], ...]:
        """The grid regrouped by shared (catalog, panel) build fingerprints.

        Groups are ordered by first appearance and rows keep grid order
        within their group, so the regrouping is a stable permutation —
        the runner maps results back to grid order by scenario name.
        """
        groups: dict[tuple[str, str], list[ScenarioSpec]] = {}
        for spec in resolved:
            stages = spec.stage_fingerprints()
            groups.setdefault((stages["catalog"], stages["panel"]), []).append(spec)
        return tuple(tuple(group) for group in groups.values())

    def _fault_split(self) -> tuple[
        RetryPolicy | None, FaultPlan | None, FaultPlan | None
    ]:
        """(retry, per-spec faults, runner faults) with the crash kind split out.

        One configured plan must never double-fire: error kinds
        (transient API, task error, slow) are injected per grid row inside
        the chunk, while "crash" — which has to kill a *worker*, not a
        row — is restricted down to the shard runner.
        """
        retry = self.retry if self.retry is not None else self.executor.retry
        faults = self.faults if self.faults is not None else self.executor.faults
        if faults is None:
            return retry, None, None
        spec_faults = faults.restricted(*_SPEC_FAULT_KINDS)
        runner_faults = faults.restricted("crash")
        return (
            retry,
            spec_faults if spec_faults.active else None,
            runner_faults if runner_faults.active else None,
        )

    def _chunks(
        self,
        resolved: Sequence[ScenarioSpec],
        positions: Mapping[str, int],
        retry: RetryPolicy | None,
        faults: FaultPlan | None,
    ) -> list[_SweepChunk]:
        """Partition the pending grid into runner chunks under the executor's plan.

        Without shared builds the chunks cut the grid contiguously (the
        pre-cache behaviour).  With shared builds the grid is first
        regrouped by build fingerprint so chunk boundaries — and hence
        process-pool worker assignments — never split a group more than
        the plan demands, keeping per-worker builds to one per distinct
        (catalog, panel) stage wherever possible.
        """
        if self.share_builds:
            ordered: list[ScenarioSpec] = [
                spec for group in self.build_groups(resolved) for spec in group
            ]
        else:
            ordered = list(resolved)
        return [
            _SweepChunk(
                specs=tuple(ordered[shard.start : shard.stop]),
                share_builds=self.share_builds,
                indices=tuple(
                    positions[spec.name]
                    for spec in ordered[shard.start : shard.stop]
                ),
                retry=retry,
                faults=faults,
                on_error=self.on_error,
            )
            for shard in self.executor.plan(len(ordered))
        ]

    def run(self, specs: Sequence[ScenarioSpec]) -> ResultSet:
        """Run every scenario and reassemble the results in grid order.

        The historical entry point: equivalent to
        ``run_report(specs).results`` (with ``on_error="skip"`` the set is
        partial; inspect :meth:`run_report` for the failure detail).
        """
        return self.run_report(specs).results

    def run_report(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        resume: RunManifest | str | Path | None = None,
        manifest_path: str | Path | None = None,
    ) -> SweepReport:
        """Run the grid with per-spec outcome tracking, optionally resuming.

        With ``resume`` (a :class:`RunManifest` or a path to one saved by
        a previous run), specs whose completed entry matches their
        full-spec fingerprint hydrate from the manifest instead of
        re-running — bit-identical, because the canonical result fields
        round-trip JSON exactly.  With ``manifest_path`` the manifest is
        saved after every finished chunk (atomic write-then-rename), so a
        killed sweep leaves a valid resume point behind; on an aborting
        failure (``on_error="raise"``) the manifest is saved one last
        time before the error propagates.
        """
        resolved = self.resolve(specs)
        if isinstance(resume, (str, Path)):
            resume = RunManifest.load(resume)
        retry, spec_faults, runner_faults = self._fault_split()
        manifest = RunManifest(notes={"retry_clock": _retry_clock_note(retry)})
        fingerprints = {spec.name: spec.fingerprint() for spec in resolved}
        positions = {spec.name: index for index, spec in enumerate(resolved)}
        pending: list[ScenarioSpec] = []
        for spec in resolved:
            entry = (
                resume.reusable(fingerprints[spec.name], spec.name)
                if resume is not None
                else None
            )
            if entry is not None:
                manifest.record(replace(entry, resumed=True))
            else:
                pending.append(spec)

        live: dict[str, ScenarioResult] = {}
        if pending:
            # The sweep's fault split replaces whatever plan the executor
            # carries, so one configured plan never fires at both layers.
            runner = replace(
                self.executor, retry=retry, faults=runner_faults
            ).runner()
            chunks = self._chunks(pending, positions, retry, spec_faults)
            try:
                for outcomes in runner.stream(_run_scenario_chunk, chunks):
                    for outcome in outcomes:
                        manifest.record(_entry_for(outcome, fingerprints))
                        if outcome.result is not None:
                            live[outcome.scenario] = outcome.result
                    if manifest_path is not None:
                        manifest.save(manifest_path)
            except BaseException:
                if manifest_path is not None:
                    manifest.save(manifest_path)
                raise

        # Reassemble in grid order; under on_error="skip" the set is partial.
        # Freshly run rows keep their live results (``raw`` included);
        # resumed rows hydrate the canonical fields from the manifest.
        ordered = RunManifest(
            (manifest.get(spec.name) for spec in resolved if spec.name in manifest),
            notes=manifest.notes,
        )
        results = ResultSet(
            live.get(entry.scenario) or entry.hydrate()
            for entry in ordered.completed()
        )
        if manifest_path is not None:
            ordered.save(manifest_path)
        return SweepReport(results=results.finalize(), manifest=ordered)


def manifest_path_for(
    specs: Sequence[ScenarioSpec], root: str | Path | None = None
) -> Path:
    """The content-addressed default manifest path for a *resolved* grid.

    Folds sweep manifests into the disk-cache root (explicit ``root`` >
    ``REPRO_CACHE_ROOT`` > ``~/.cache/repro-facebook``, the same
    resolution the artifact tier uses): the path is
    ``<root>/manifests/<digest>.json`` where the digest fingerprints the
    full-spec fingerprints of the grid in order.  The same sweep command
    therefore always maps to the same manifest file — which is what lets
    ``--resume`` with no argument find the manifest a killed run left
    behind, and keeps resume state and artifact hydration in one root.

    ``specs`` must already carry their derived per-row seeds (pass them
    through :meth:`SweepRunner.resolve`); otherwise two sweeps differing
    only in ``--sweep-seed`` would collide on one manifest.
    """
    digest = stable_fingerprint(
        "sweep-manifest", {"specs": [spec.fingerprint() for spec in specs]}
    )
    return resolve_cache_root(root) / "manifests" / f"{digest}.json"


def _retry_clock_note(retry: RetryPolicy | None) -> str:
    """Which clock drove retry backoff: "wall", "sim" or "none".

    Recorded as a manifest note so a resumed or audited run can tell
    whether its retries really slept (jittered wall clock) or elapsed on
    the free simulated clock.
    """
    if retry is None:
        return "none"
    if isinstance(retry, WallClockRetryPolicy):
        return "wall"
    return "sim"


def _entry_for(
    outcome: _SpecOutcome, fingerprints: Mapping[str, str]
) -> ManifestEntry:
    """Translate one chunk outcome into its manifest entry."""
    if outcome.result is not None:
        return ManifestEntry(
            scenario=outcome.scenario,
            fingerprint=fingerprints[outcome.scenario],
            status="completed",
            attempts=outcome.attempts,
            result=outcome.result.to_dict(),
        )
    return ManifestEntry(
        scenario=outcome.scenario,
        fingerprint=fingerprints[outcome.scenario],
        status="failed",
        attempts=outcome.attempts,
        error=outcome.error,
        traceback=outcome.traceback,
    )


def expand_grid(
    base: ScenarioSpec, axes: Mapping[str, Sequence[object]]
) -> tuple[ScenarioSpec, ...]:
    """The cartesian product of ``base`` and the given per-field axes.

    Every grid point is ``base`` with the axis fields replaced and a
    deterministic derived name (``base/field=value/...`` in axis order) —
    ~20 lines of spec turn into an arbitrarily large sweep.  Tuple-valued
    fields accept any sequence; scalar axis values are used as-is.
    """
    if not axes:
        return (base,)
    for field_name in axes:
        if field_name not in ScenarioSpec.__dataclass_fields__:
            raise ConfigurationError(f"unknown scenario field: {field_name!r}")
        if field_name == "name":
            raise ConfigurationError("the name field is derived, not an axis")
    names = list(axes)
    combos = product(*(list(axes[name]) for name in names))
    specs = []
    for combo in combos:
        overrides: dict[str, object] = {}
        suffix_parts = []
        for field_name, value in zip(names, combo):
            if field_name in _TUPLE_FIELDS:
                value = tuple(value)  # type: ignore[arg-type]
                label = ",".join(str(v) for v in value)
            else:
                label = str(value)
            overrides[field_name] = value
            suffix_parts.append(f"{field_name}={label}")
        spec = replace(base, **overrides)
        specs.append(replace(spec, name=f"{base.name}/{'/'.join(suffix_parts)}"))
    return tuple(specs)
