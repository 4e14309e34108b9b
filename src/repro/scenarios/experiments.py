"""The uniform Experiment protocol and the four paper-study adapters.

Every study runs through the same four-stage shape —

    plan() → execute(executor) → merge(parts) → summarize(merged)

— where ``plan`` resolves the units of work (strategies, targets, workload
specs, panel users), ``execute`` runs them (threading an optional
:class:`~repro.exec.ShardExecutor` into every stage that can shard),
``merge`` combines per-unit parts, and ``summarize`` reduces everything
into the canonical :class:`~repro.core.results.ScenarioResult`.
:func:`run_experiment` chains the stages and :func:`run_scenario` is the
one-call entry point a :class:`~repro.scenarios.sweep.SweepRunner` (or the
``repro scenario run`` CLI) fans out.

The adapters are deliberately thin: they wire the *existing* study
implementations — :class:`~repro.core.UniquenessModel`,
:class:`~repro.core.NanotargetingExperiment`,
:func:`~repro.countermeasures.evaluate_workload_impact`,
:meth:`~repro.fdvt.FDVTExtension.build_risk_reports` — with exactly the
arguments the hand-wired examples and CLI pass, so every scenario result is
bit-identical to its pre-scenario direct invocation (pinned by
``tests/test_scenarios.py``).
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

from .._rng import derive_seed
from ..adsapi import AdsManagerAPI
from ..cache import BuildCache
from ..campaigns import AdvertiserWorkloadGenerator
from ..core import NanotargetingExperiment, UniquenessModel
from ..core.results import ScenarioResult
from ..core.selection import LeastPopularSelection, RandomSelection, SelectionStrategy
from ..countermeasures import (
    InterestCapRule,
    MinActiveAudienceRule,
    evaluate_workload_impact,
    run_protected_experiment,
)
from ..errors import ConfigurationError
from ..exec import ShardExecutor
from ..fdvt import FDVTExtension
from ..pipeline import Simulation
from ..reach import country_codes
from .spec import ScenarioSpec


@runtime_checkable
class Experiment(Protocol):
    """One study bound to a compiled simulation, runnable in four stages."""

    spec: ScenarioSpec

    def plan(self) -> Sequence[Any]:
        """Resolve the units of work (deterministic, no heavy compute)."""
        ...  # pragma: no cover - protocol definition

    def execute(self, executor: ShardExecutor | None = None) -> Sequence[Any]:
        """Run every planned unit, optionally sharded across ``executor``."""
        ...  # pragma: no cover - protocol definition

    def merge(self, parts: Sequence[Any]) -> Any:
        """Combine per-unit parts into the study's raw result."""
        ...  # pragma: no cover - protocol definition

    def summarize(self, merged: Any) -> ScenarioResult:
        """Reduce the raw result into the canonical scenario result."""
        ...  # pragma: no cover - protocol definition


def run_experiment(
    experiment: Experiment, executor: ShardExecutor | None = None
) -> ScenarioResult:
    """Drive one experiment through execute → merge → summarize."""
    return experiment.summarize(experiment.merge(experiment.execute(executor)))


def build_experiment(
    spec: ScenarioSpec,
    simulation: Simulation | None = None,
    *,
    cache: BuildCache | None = None,
) -> Experiment:
    """Bind ``spec`` to its study adapter (compiling the simulation if needed).

    ``cache`` threads a :class:`~repro.cache.BuildCache` into the compile
    so repeated builds of the same catalog/panel stages are shared;
    ignored when ``simulation`` is already provided.
    """
    simulation = simulation or spec.compile(cache=cache)
    adapters = {
        "uniqueness": UniquenessStudy,
        "nanotargeting": NanotargetingStudy,
        "workload_impact": WorkloadImpactStudy,
        "fdvt_risk": FDVTRiskStudy,
    }
    return adapters[spec.study](spec, simulation)


def run_scenario(
    spec: ScenarioSpec,
    *,
    executor: ShardExecutor | None = None,
    simulation: Simulation | None = None,
    cache: BuildCache | None = None,
) -> ScenarioResult:
    """Compile, bind and run one scenario — the unit a sweep fans out."""
    return run_experiment(build_experiment(spec, simulation, cache=cache), executor)


# -- shared wiring helpers -------------------------------------------------------


def parse_rules(names: Sequence[str]) -> tuple:
    """Countermeasure rules from their spec strings.

    ``"interest_cap"`` / ``"interest_cap:9"`` build an
    :class:`~repro.countermeasures.InterestCapRule`;
    ``"min_active_audience"`` / ``"min_active_audience:1000"`` build a
    :class:`~repro.countermeasures.MinActiveAudienceRule`.
    """
    rules = []
    for entry in names:
        rule_name, _, argument = entry.partition(":")
        if rule_name == "interest_cap":
            rules.append(
                InterestCapRule(max_interests=int(argument)) if argument else InterestCapRule()
            )
        elif rule_name == "min_active_audience":
            rules.append(
                MinActiveAudienceRule(min_active_users=int(argument))
                if argument
                else MinActiveAudienceRule()
            )
        else:
            raise ConfigurationError(f"unknown countermeasure rule: {entry!r}")
    return tuple(rules)


def _resolve_api(spec: ScenarioSpec, simulation: Simulation, default: str) -> AdsManagerAPI:
    """The platform API a study runs against under ``spec.api_tier``."""
    tier = default if spec.api_tier == "auto" else spec.api_tier
    return simulation.uniqueness_api if tier == "legacy_2017" else simulation.campaign_api


def _resolve_locations(spec: ScenarioSpec, default: str) -> tuple[str, ...] | None:
    """The query-location list under ``spec.locations`` (None = worldwide)."""
    mix = default if spec.locations == "auto" else spec.locations
    return None if mix == "worldwide" else country_codes()


# -- the four study adapters ------------------------------------------------------


class UniquenessStudy:
    """Section 4 (Table 1): N_P estimation for the requested strategies."""

    def __init__(self, spec: ScenarioSpec, simulation: Simulation) -> None:
        self.spec = spec
        self.simulation = simulation
        config = simulation.config
        self._model = UniquenessModel(
            _resolve_api(spec, simulation, "legacy_2017"),
            simulation.panel,
            config.uniqueness,
            locations=_resolve_locations(spec, "countries"),
        )
        # The same strategy objects Simulation.strategies() hands the
        # hand-wired examples — in particular the random strategy's derived
        # seed — so scenario collections match direct runs bit-for-bit.
        by_name: dict[str, SelectionStrategy] = {
            "least_popular": LeastPopularSelection(),
            "random": RandomSelection(
                seed=derive_seed(config.uniqueness.seed, "random-strategy")
            ),
        }
        self._strategies = tuple(by_name[name] for name in spec.strategies)

    @property
    def model(self) -> UniquenessModel:
        """The bound uniqueness model (its collect cache is warm after a run)."""
        return self._model

    def plan(self) -> tuple[SelectionStrategy, ...]:
        return self._strategies

    def execute(self, executor: ShardExecutor | None = None) -> tuple:
        probabilities = self.spec.probabilities or None
        return tuple(
            self._model.estimate(strategy, probabilities=probabilities, executor=executor)
            for strategy in self.plan()
        )

    def merge(self, parts: Sequence) -> dict:
        return {report.strategy_name: report for report in parts}

    def summarize(self, merged: dict) -> ScenarioResult:
        metrics = []
        table = []
        summary: list[str] = []
        for name, report in merged.items():
            for probability in report.probabilities:
                metrics.append(
                    (f"{name}:n_p@{probability:g}", float(report.estimates[probability].n_p))
                )
            table.append(report.table_row())
            summary.extend(report.summary_lines())
        return ScenarioResult(
            scenario=self.spec.name,
            study=self.spec.study,
            seed=self.spec.seed,
            metrics=tuple(metrics),
            table=tuple(table),
            summary=tuple(summary),
            raw=merged,
        )


class NanotargetingStudy:
    """Section 5 (Table 2): the nanotargeting campaigns, optionally protected."""

    def __init__(self, spec: ScenarioSpec, simulation: Simulation) -> None:
        self.spec = spec
        self.simulation = simulation
        self._experiment = NanotargetingExperiment(
            _resolve_api(spec, simulation, "modern_2020"),
            simulation.delivery_engine,
            simulation.config.experiment,
            click_log=simulation.click_log,
            seed=spec.seed,
        )

    def plan(self) -> tuple:
        """The targeted users, selected exactly like a direct run."""
        return tuple(self._experiment.select_targets(self.simulation.panel))

    def execute(self, executor: ShardExecutor | None = None) -> tuple:
        # Campaign delivery is inherently sequential (shared account, clock
        # and click log), so the executor is not threaded further here; the
        # audience planning inside already rides the bulk prefix kernel.
        targets = self.plan()
        if self.spec.countermeasures:
            report = run_protected_experiment(
                self._experiment.api,
                self.simulation.delivery_engine,
                targets,
                list(parse_rules(self.spec.countermeasures)),
                experiment=self._experiment,
            )
        else:
            report = self._experiment.run(targets)
        return (report,)

    def merge(self, parts: Sequence):
        (report,) = parts
        return report

    def summarize(self, report) -> ScenarioResult:
        rejected = sum(1 for record in report.records if record.rejected)
        metrics = (
            ("success_count", float(report.success_count)),
            ("n_campaigns", float(report.n_campaigns)),
            ("rejected_campaigns", float(rejected)),
            ("total_cost_eur", report.total_cost_eur()),
            ("successful_cost_eur", report.successful_cost_eur()),
            ("account_suspended", float(report.account_suspended)),
        )
        summary = (
            f"successful campaigns: {report.success_count}/{report.n_campaigns} "
            f"(rejected: {rejected})",
            f"total cost: €{report.total_cost_eur():.2f}, successful cost: "
            f"€{report.successful_cost_eur():.2f}",
        )
        return ScenarioResult(
            scenario=self.spec.name,
            study=self.spec.study,
            seed=self.spec.seed,
            metrics=metrics,
            table=tuple(report.table_rows()),
            summary=summary,
            raw=report,
        )


class WorkloadImpactStudy:
    """Section 8.3: fraction of a benign workload the rules would reject."""

    def __init__(self, spec: ScenarioSpec, simulation: Simulation) -> None:
        self.spec = spec
        self.simulation = simulation
        self._api = _resolve_api(spec, simulation, "modern_2020")
        # The paper's advertiser-impact argument is about the interest cap;
        # it stays the default when the spec names no rules.
        self._rules = (
            parse_rules(spec.countermeasures)
            if spec.countermeasures
            else (InterestCapRule(),)
        )

    def plan(self) -> tuple:
        """The benign campaign workload (seeded like the CLI's direct call)."""
        generator = AdvertiserWorkloadGenerator(self.simulation.catalog)
        return tuple(generator.generate(self.spec.workload_size, seed=self.spec.seed or 0))

    def execute(self, executor: ShardExecutor | None = None) -> tuple:
        return (
            evaluate_workload_impact(
                self._api, list(self.plan()), list(self._rules), executor=executor
            ),
        )

    def merge(self, parts: Sequence):
        (impact,) = parts
        return impact

    def summarize(self, impact) -> ScenarioResult:
        metrics = (
            ("total_campaigns", float(impact.total_campaigns)),
            ("rejected_campaigns", float(impact.rejected_campaigns)),
            ("rejection_rate", impact.rejection_rate),
        )
        rules = ", ".join(rule.name for rule in self._rules)
        summary = (
            f"{impact.rejected_campaigns}/{impact.total_campaigns} benign campaigns "
            f"rejected ({impact.rejection_rate:.2%}) by rules: {rules}",
        )
        table = (
            {
                "rules": rules,
                "total": impact.total_campaigns,
                "rejected": impact.rejected_campaigns,
                "rate": round(impact.rejection_rate, 6),
            },
        )
        return ScenarioResult(
            scenario=self.spec.name,
            study=self.spec.study,
            seed=self.spec.seed,
            metrics=metrics,
            table=table,
            summary=summary,
            raw=impact,
        )


class FDVTRiskStudy:
    """Section 6: bulk FDVT risk reports for a slice of the panel."""

    def __init__(self, spec: ScenarioSpec, simulation: Simulation) -> None:
        self.spec = spec
        self.simulation = simulation
        self._extension = FDVTExtension(
            _resolve_api(spec, simulation, "legacy_2017"), simulation.catalog
        )

    def plan(self) -> tuple:
        """The first ``risk_users`` panel users (panel order), as in the bench.

        Only those rows are decoded into user objects; the rest of the
        panel stays in its columns.
        """
        columns = self.simulation.panel.columns
        return tuple(
            columns.user_at(row) for row in range(min(self.spec.risk_users, len(columns)))
        )

    def execute(self, executor: ShardExecutor | None = None) -> tuple:
        return self._extension.build_risk_reports(self.plan(), executor=executor)

    def merge(self, parts: Sequence) -> tuple:
        return tuple(parts)

    def summarize(self, reports: tuple) -> ScenarioResult:
        total_entries = 0
        level_totals: dict[str, int] = {}
        table = []
        for report in reports:
            counts = {level.value: count for level, count in report.risk_counts().items()}
            total_entries += len(report.entries)
            for level, count in counts.items():
                level_totals[level] = level_totals.get(level, 0) + count
            table.append({"user_id": report.user_id, "interests": len(report.entries), **counts})
        metrics = (
            ("n_users", float(len(reports))),
            ("n_entries", float(total_entries)),
            *((f"n_{level}", float(count)) for level, count in sorted(level_totals.items())),
        )
        summary = (
            f"{len(reports)} risk reports, {total_entries} interest entries "
            + ", ".join(f"{level}={count}" for level, count in sorted(level_totals.items())),
        )
        return ScenarioResult(
            scenario=self.spec.name,
            study=self.spec.study,
            seed=self.spec.seed,
            metrics=metrics,
            table=tuple(table),
            summary=summary,
            raw=reports,
        )
