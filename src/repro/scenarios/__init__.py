"""Scenario orchestration: declarative specs, a uniform Experiment protocol,
and sharded sweeps over the execution layer.

The paper's results are one family of experiments — uniqueness (Section 4),
nanotargeting (Section 5), the FDVT risk reports (Section 6), the
countermeasure evaluation (Section 8.3) — run over varying populations,
strategies and countermeasure rules.  This package makes that family a
first-class object:

* :class:`~repro.scenarios.spec.ScenarioSpec` — a ~20-line declarative
  description (study, scale, seed, strategies, countermeasure rules,
  delivery knobs) that compiles to a fully wired
  :class:`~repro.pipeline.Simulation`;
* the :class:`~repro.scenarios.experiments.Experiment` protocol
  (``plan → execute(executor) → summarize``) with thin adapters that take
  each study from the simulation's own constructors, all summarising into
  the shared :class:`~repro.core.results.ScenarioResult`;
* :class:`~repro.scenarios.sweep.SweepRunner` +
  :func:`~repro.scenarios.sweep.expand_grid` — grids of specs fanned over
  the same :class:`~repro.exec.runner.ShardRunner` backends as collection,
  reducing into the mergeable :class:`~repro.core.results.ResultSet`
  bit-identically for every backend and worker count; with a
  :class:`~repro.faults.RetryPolicy` / :class:`~repro.faults.FaultPlan`
  the sweep degrades gracefully instead of crashing, records per-spec
  outcomes in a :class:`~repro.scenarios.manifest.RunManifest` and can
  resume an interrupted run from it
  (:meth:`~repro.scenarios.sweep.SweepRunner.run_report`);
* the scenario registry (:func:`~repro.scenarios.registry.register_scenario`
  et al.) behind the ``repro scenario list/run/sweep`` CLI, whose
  ``uniqueness``, ``nanotargeting`` and ``countermeasures`` commands run
  the registered scenarios too.

Adding the next scenario is a spec, not a module::

    from repro.scenarios import ScenarioSpec, run_scenario

    spec = ScenarioSpec(
        name="uniqueness-least-popular",
        study="uniqueness",
        factor=20,
        seed=7,
        strategies=("least_popular",),
        probabilities=(0.9,),
    )
    print(run_scenario(spec).summary)
"""

from .experiments import (
    Experiment,
    FDVTRiskStudy,
    NanotargetingStudy,
    UniquenessStudy,
    WorkloadImpactStudy,
    build_experiment,
    parse_rules,
    run_experiment,
    run_scenario,
)
from .manifest import ManifestEntry, RunManifest
from .registry import get_scenario, list_scenarios, register_scenario
from .spec import STRATEGY_NAMES, STUDIES, ScenarioSpec
from .sweep import SweepReport, SweepRunner, expand_grid, manifest_path_for

__all__ = [
    "Experiment",
    "FDVTRiskStudy",
    "ManifestEntry",
    "NanotargetingStudy",
    "RunManifest",
    "STRATEGY_NAMES",
    "STUDIES",
    "ScenarioSpec",
    "SweepReport",
    "SweepRunner",
    "UniquenessStudy",
    "WorkloadImpactStudy",
    "build_experiment",
    "expand_grid",
    "get_scenario",
    "list_scenarios",
    "manifest_path_for",
    "parse_rules",
    "register_scenario",
    "run_experiment",
    "run_scenario",
]
