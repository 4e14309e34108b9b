"""The uniform Experiment protocol and the four paper-study adapters.

Every study runs through the same three-stage shape —

    plan() → execute(executor) → summarize(raw)

— where ``plan`` resolves the units of work (strategies, targets, workload
specs, panel users), ``execute`` runs them (threading an optional
:class:`~repro.exec.ShardExecutor` into every stage that can shard) and
returns the study's raw result, and ``summarize`` reduces it into the
canonical :class:`~repro.core.results.ScenarioResult`.
:func:`run_experiment` chains the stages and :func:`run_scenario` is the
one-call entry point a :class:`~repro.scenarios.sweep.SweepRunner`, the
``repro scenario run`` CLI and the CLI's study commands fan out.

The adapters are deliberately thin: each study is wired in one place, the
:class:`~repro.pipeline.Simulation` constructors
(:meth:`~repro.pipeline.Simulation.uniqueness_model`,
:meth:`~repro.pipeline.Simulation.nanotargeting_experiment`,
:meth:`~repro.pipeline.Simulation.fdvt_extension`, and the
``campaign_api`` for :func:`~repro.countermeasures.evaluate_workload_impact`),
so every scenario result is bit-identical to the direct invocation it
stands for (pinned by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

from ..cache import BuildCache
from ..campaigns import AdvertiserWorkloadGenerator
from ..core import ExperimentReport, UniquenessModel
from ..core.results import ScenarioResult, UniquenessReport
from ..core.selection import SelectionStrategy
from ..countermeasures import (
    InterestCapRule,
    MinActiveAudienceRule,
    WorkloadImpact,
    evaluate_workload_impact,
    run_protected_experiment,
)
from ..errors import ConfigurationError
from ..exec import ShardExecutor
from ..fdvt import RiskReport
from ..pipeline import Simulation
from .spec import ScenarioSpec


@runtime_checkable
class Experiment(Protocol):
    """One study bound to a compiled simulation, runnable in three stages."""

    spec: ScenarioSpec

    def plan(self) -> Sequence[Any]:
        """Resolve the units of work (deterministic, no heavy compute)."""
        ...  # pragma: no cover - protocol definition

    def execute(self, executor: ShardExecutor | None = None) -> Any:
        """Run every planned unit, optionally sharded; return the raw result."""
        ...  # pragma: no cover - protocol definition

    def summarize(self, raw: Any) -> ScenarioResult:
        """Reduce the raw result into the canonical scenario result."""
        ...  # pragma: no cover - protocol definition


def run_experiment(
    experiment: Experiment, executor: ShardExecutor | None = None
) -> ScenarioResult:
    """Drive one experiment through execute → summarize."""
    return experiment.summarize(experiment.execute(executor))


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


# -- the four study adapters ------------------------------------------------------


class UniquenessStudy:
    """Section 4 (Table 1): N_P estimation for the requested strategies."""

    def __init__(self, spec: ScenarioSpec, simulation: Simulation) -> None:
        self.spec = spec
        self.simulation = simulation
        self._model = simulation.uniqueness_model()
        by_name = {strategy.name: strategy for strategy in simulation.strategies()}
        self._strategies = tuple(by_name[name] for name in spec.strategies)

    @property
    def model(self) -> UniquenessModel:
        """The bound uniqueness model (its collect cache is warm after a run)."""
        return self._model

    def plan(self) -> tuple[SelectionStrategy, ...]:
        return self._strategies

    def execute(self, executor: ShardExecutor | None = None) -> tuple[UniquenessReport, ...]:
        probabilities = self.spec.probabilities or None
        return tuple(
            self._model.estimate(strategy, probabilities=probabilities, executor=executor)
            for strategy in self.plan()
        )

    def summarize(self, reports: tuple[UniquenessReport, ...]) -> ScenarioResult:
        metrics = []
        table = []
        summary: list[str] = []
        for report in reports:
            name = report.strategy_name
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
            raw=reports,
        )


class NanotargetingStudy:
    """Section 5 (Table 2): the nanotargeting campaigns, optionally protected."""

    def __init__(self, spec: ScenarioSpec, simulation: Simulation) -> None:
        self.spec = spec
        self.simulation = simulation
        self._experiment = simulation.nanotargeting_experiment(seed=spec.seed)

    def plan(self) -> tuple:
        """The targeted users, selected exactly like a direct run."""
        return tuple(self._experiment.select_targets(self.simulation.panel))

    def execute(self, executor: ShardExecutor | None = None) -> ExperimentReport:
        # Campaign delivery is inherently sequential (shared account, clock
        # and click log), so the executor is not threaded further here; the
        # audience planning inside already rides the bulk prefix kernel.
        targets = self.plan()
        if not self.spec.countermeasures:
            return self._experiment.run(targets)
        return run_protected_experiment(
            self._experiment.api,
            self.simulation.delivery_engine,
            targets,
            list(parse_rules(self.spec.countermeasures)),
            experiment=self._experiment,
        )

    def summarize(self, report: ExperimentReport) -> ScenarioResult:
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
        # The paper's advertiser-impact argument is about the interest cap;
        # it stays the default when the spec names no rules.
        self._rules = (
            parse_rules(spec.countermeasures)
            if spec.countermeasures
            else (InterestCapRule(),)
        )

    def plan(self) -> tuple:
        """The benign campaign workload, drawn on the spec's seed (0 when unset)."""
        generator = AdvertiserWorkloadGenerator(self.simulation.catalog)
        return tuple(generator.generate(self.spec.workload_size, seed=self.spec.seed or 0))

    def execute(self, executor: ShardExecutor | None = None) -> WorkloadImpact:
        return evaluate_workload_impact(
            self.simulation.campaign_api,
            list(self.plan()),
            list(self._rules),
            executor=executor,
        )

    def summarize(self, impact: WorkloadImpact) -> ScenarioResult:
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
        self._extension = simulation.fdvt_extension()

    def plan(self) -> tuple:
        """The first ``risk_users`` panel users (panel order), as in the bench.

        Only those rows are decoded into user objects; the rest of the
        panel stays in its columns.
        """
        columns = self.simulation.panel.columns
        return tuple(
            columns.user_at(row) for row in range(min(self.spec.risk_users, len(columns)))
        )

    def execute(self, executor: ShardExecutor | None = None) -> tuple[RiskReport, ...]:
        return self._extension.build_risk_reports(self.plan(), executor=executor)

    def summarize(self, reports: tuple[RiskReport, ...]) -> ScenarioResult:
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
