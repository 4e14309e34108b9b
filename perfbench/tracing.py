"""In-memory span tracing for the benchmark's traced run.

The traced run wraps public functions of the program from the outside: a
:class:`Probe` names a span and the functions (``"module:attr"`` or
``"module:Class.attr"``) whose calls it times, and :func:`install` swaps a
timing wrapper in for every binding of those functions — the defining
class or module, plus every ``repro`` module that imported the function
by name — so no file under ``src/`` changes.  Spans stay in memory (name,
start, end, parent, tag) and are written out once, at exit.

Each span name ``S`` yields three per-layer metrics: ``S.busy_s`` (the
time inside ``S``, counting nested ``S`` calls once), ``S.calls`` and
``S.self_s`` (busy time minus the part covered by child spans).  Counter
hooks on the same probes add the work counts listed in
:data:`perfbench.metrics.COUNTERS`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence


class TraceTargetError(RuntimeError):
    """A probe names a function that no longer resolves."""


class Tracer:
    """Spans and counters recorded in memory.

    A span is ``[name, start, end, parent, tag, outermost]``: ``parent`` is
    the index of the enclosing span (``None`` at top level), ``tag`` the
    request index, strategy or scenario name it belongs to (inherited from
    the parent when the probe sets none), and ``outermost`` is false when a
    span of the same name encloses it, so nested calls are not counted
    twice in ``busy_s``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def open(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent][4]
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, tag, depth == 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        self._stack.pop()
        self._depth[span[0]] -= 1

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        index = self.open(name, tag)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def write(self, path: Path) -> Path:
        """Write every span as one JSON document (``fields`` + ``spans``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "tag"],
                    "spans": [span[:5] for span in self.spans],
                    "counters": self.counters,
                }
            )
        )
        return path


def span_stats(spans: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """``{name: {"busy_s", "calls", "self_s"}}`` from a closed span list.

    Spans are listed in start order (parents before children), as
    :class:`Tracer` records them.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent, _tag, outermost) in enumerate(spans):
        entry = stats.setdefault(name, {"busy_s": 0.0, "calls": 0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        if outermost:
            entry["busy_s"] += duration
    return stats


# -- probes --------------------------------------------------------------------------

Hook = Callable[["Tracer | None", tuple, dict, Any, Any], None]


@dataclass(frozen=True)
class Probe:
    """A span (or, with ``span=False``, only hooks) around some functions."""

    name: str
    targets: tuple[str, ...]
    span: bool = True
    tag: Callable[[tuple], str | None] | None = None
    before: Callable[[tuple, dict], Any] | None = None
    after: Hook | None = None


def _total(values: Any) -> int:
    return int(values.sum()) if hasattr(values, "sum") else int(sum(values))


def _api_state(args: tuple, kwargs: dict) -> tuple:
    api = args[0]
    stats = api.call_stats()
    return stats.reach_estimates, stats.rate_limited, api.clock.now()


def _api_deltas(tracer, args, kwargs, result, state) -> None:
    reach, limited, now = _api_state(args, kwargs)
    tracer.add("adsapi.reach_estimates", reach - state[0])
    tracer.add("adsapi.rate_limited", limited - state[1])
    tracer.add("adsapi.virtual_wait_s", now - state[2])


def _failed_fits(tracer, args, kwargs, result, state) -> None:
    import numpy as np

    tracer.add("core.bootstrap.replicates", kwargs["n_bootstrap"])
    tracer.add(
        "core.bootstrap.failed_fits",
        sum(int((~np.isfinite(values)).sum()) for values in result.values()),
    )


def _stored_bytes(tracer, args, kwargs, result, state) -> None:
    if result:
        disk, key, codec = args[0], args[1], args[2]
        tracer.add("cache.bytes_stored", disk.path_for(key, codec).stat().st_size)


def _counter(name: str, amount: Callable[[tuple], float]) -> Hook:
    """A hook adding ``amount(args)`` to counter ``name`` after each call."""
    return lambda tracer, args, kwargs, result, state: tracer.add(name, amount(args))


def _submission_tag() -> Callable[[tuple], str]:
    counter = itertools.count()
    return lambda args: f"request-{next(counter)}"


def default_probes() -> tuple[Probe, ...]:
    """Every probe of the traced run, in :data:`SPAN_NAMES` order."""
    assigner = "repro.population.assignment:InterestAssigner"
    api = "repro.adsapi.api:AdsManagerAPI"
    catalog = "repro.catalog.catalog:InterestCatalog"
    samples = "repro.core.quantiles:AudienceSamples"
    streamed = "repro.core.quantiles:StreamedAudienceSamples"
    evaluation = "repro.countermeasures.evaluation"
    return (
        Probe("pipeline.build_catalog", ("repro.pipeline:build_catalog",)),
        Probe("catalog.generate", (f"{catalog}.generate",)),
        Probe("pipeline.build_panel", ("repro.pipeline:build_panel",)),
        Probe(
            "fdvt.panel_build",
            (
                "repro.fdvt.panel:PanelBuilder.build",
                "repro.fdvt.panel:PanelBuilder.build_columns",
            ),
        ),
        Probe("population.assigner_init", (f"{assigner}.__init__",)),
        Probe(
            "population.assign_rows",
            (f"{assigner}.assign_rows",),
            after=_counter("population.assign_rows.rows", lambda a: len(a[1])),
        ),
        Probe(
            "core.collection.collect",
            ("repro.core.collection:AudienceSizeCollector.collect",),
        ),
        Probe(
            "core.selection.order",
            (
                "repro.core.selection:ordered_interest_matrix",
                "repro.core.selection:ordered_interest_matrix_columns",
            ),
        ),
        Probe(
            "reach.prefix_panel",
            ("repro.reach.model:StatisticalReachModel.prefix_audiences_panel",),
            after=_counter("reach.prefix_panel.cells", lambda a: _total(a[2])),
        ),
        Probe("adsapi.validate", (f"{api}.validate_reach_matrix",)),
        Probe(
            "adsapi.settle",
            (f"{api}.settle_reach_bill",),
            before=_api_state,
            after=_api_deltas,
        ),
        Probe("adsapi.compute", (f"{api}.compute_reach_matrix",)),
        Probe(
            "core.uniqueness.estimate",
            ("repro.core.uniqueness:UniquenessModel.estimate",),
            tag=lambda a: getattr(a[1], "name", None),
        ),
        Probe(
            "core.quantiles.vas_many", (f"{samples}.vas_many", f"{streamed}.vas_many")
        ),
        Probe(
            "core.bootstrap",
            ("repro.core.bootstrap:bootstrap_cutpoints",),
            after=_failed_fits,
        ),
        Probe(
            "core.quantiles.take_rows",
            (f"{samples}.take_rows", f"{streamed}.take_rows"),
        ),
        Probe(
            "core.quantiles.masked", ("repro.core.quantiles:masked_column_quantiles",)
        ),
        Probe("core.fitting.fit_many", ("repro.core.fitting:fit_vas_many",)),
        Probe(
            "service.submit",
            ("repro.service.loop:ReachService.submit",),
            tag=_submission_tag(),
        ),
        Probe("service.tick", ("repro.service.loop:ReachService.tick",)),
        Probe(
            "service.coalesce",
            ("repro.service.coalescer:coalesce_reach",),
            after=_counter("service.coalesce.rows", lambda a: len(a[1])),
        ),
        Probe(
            "scenarios.run_scenario",
            ("repro.scenarios.experiments:run_scenario",),
            tag=lambda a: a[0].name,
        ),
        Probe("cache.disk_load", ("repro.cache:DiskCache.load",)),
        Probe(
            "cache.disk_store", ("repro.cache:DiskCache.store",), after=_stored_bytes
        ),
        Probe(
            "campaigns.workload_generate",
            ("repro.campaigns.workload:AdvertiserWorkloadGenerator.generate",),
        ),
        Probe("catalog.most_popular", (f"{catalog}.most_popular",)),
        Probe(
            "countermeasures.workload_impact",
            (f"{evaluation}:evaluate_workload_impact",),
        ),
        Probe(
            "countermeasures.protected_run", (f"{evaluation}:run_protected_experiment",)
        ),
        Probe(
            "core.nanotargeting.run",
            ("repro.core.nanotargeting:NanotargetingExperiment.run",),
        ),
        Probe("delivery.run", ("repro.delivery.engine:DeliveryEngine.run",)),
        Probe(
            "fdvt.risk_reports",
            ("repro.fdvt.extension:FDVTExtension.build_risk_reports",),
        ),
        # Counter-only hooks: the other places the API bills reach estimates.
        Probe(
            "adsapi.record",
            (f"{api}.record_reach_bill",),
            span=False,
            after=_counter("adsapi.reach_estimates", lambda a: a[1].reach_estimates),
        ),
        Probe(
            "adsapi.scalar",
            (f"{api}.estimate_reach", f"{api}.estimate_reach_batch"),
            span=False,
            before=_api_state,
            after=_api_deltas,
        ),
    )


# -- installation --------------------------------------------------------------------


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attribute]
    except (ImportError, AttributeError, KeyError, TypeError) as error:
        raise TraceTargetError(f"{target}: {type(error).__name__}: {error}") from None
    if not callable(raw) and not isinstance(raw, (staticmethod, classmethod)):
        raise TraceTargetError(f"{target} is not a function")
    return owner, attribute, raw


class Installation:
    """The wrappers one :func:`install` call put in place; ``restore`` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def patch(self, target: str, wrap: Callable[[Callable], Callable]) -> None:
        owner, attribute, raw = _resolve(target)
        if isinstance(owner, type):
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(owner, attribute, type(raw)(wrap(raw.__func__)))
            else:
                self._set(owner, attribute, wrap(raw))
            return
        # A module-level function: rebind it wherever it was imported by name.
        wrapped = wrap(raw)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def _wrapper(tracer: Tracer | None, probe: Probe) -> Callable[[Callable], Callable]:
    def wrap(function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = probe.before(args, kwargs) if probe.before else None
            index = None
            if probe.span and tracer is not None:
                index = tracer.open(probe.name, probe.tag(args) if probe.tag else None)
            try:
                result = function(*args, **kwargs)
            finally:
                if index is not None:
                    tracer.close(index)
            if probe.after is not None:
                probe.after(tracer, args, kwargs, result, state)
            return result

        return traced

    return wrap


def install(probes: Iterable[Probe], tracer: Tracer | None) -> Installation:
    """Wrap every probe target; raise :class:`TraceTargetError` if one is gone.

    Every target is resolved before anything is patched, so a renamed
    function fails the run instead of silently reporting its layer as 0.
    """
    probes = tuple(probes)
    missing = []
    for probe in probes:
        for target in probe.targets:
            try:
                _resolve(target)
            except TraceTargetError as error:
                missing.append(str(error))
    if missing:
        raise TraceTargetError("unresolved trace targets: " + "; ".join(missing))
    installation = Installation()
    for probe in probes:
        for target in probe.targets:
            installation.patch(target, _wrapper(tracer, probe))
    return installation
