"""The scenario orchestration layer: specs, experiments, sweeps, registry.

Pins the layer's core contracts:

* every study adapter is **bit-identical** to its pre-refactor direct
  invocation (UniquenessModel.estimate, NanotargetingExperiment.run,
  evaluate_workload_impact, FDVTExtension.build_risk_reports);
* the same ScenarioSpec produces an identical ScenarioResult on every
  run, and a sweep's ResultSet is identical across serial/thread backends,
  worker counts, and to running each grid row directly;
* specs round-trip losslessly through to_dict/from_dict and the registry;
* the mergeable ResultSet preserves grid order and rejects duplicates.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaigns import AdvertiserWorkloadGenerator
from repro.core import ResultSet, ScenarioResult
from repro.countermeasures import InterestCapRule, evaluate_workload_impact
from repro.errors import ConfigurationError, ModelError
from repro.exec import ShardExecutor
from repro.fdvt import FDVTExtension
from repro.population import PanelColumns
from _builders import build_cached_simulation
from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    build_experiment,
    expand_grid,
    get_scenario,
    list_scenarios,
    parse_rules,
    register_scenario,
    run_scenario,
)

FACTOR = 50


def uniqueness_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="test-uniqueness",
        study="uniqueness",
        factor=FACTOR,
        seed=11,
        strategies=("random",),
        probabilities=(0.9,),
        n_bootstrap=30,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioSpec:
    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", study="nope")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            uniqueness_spec(strategies=("most_popular",))

    def test_round_trip_through_dict(self):
        spec = uniqueness_spec(countermeasures=("interest_cap:9",))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        payload = uniqueness_spec().to_dict()
        payload["n_bootstraps"] = 10
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(payload)

    def test_from_dict_coerces_lists_to_tuples(self):
        payload = uniqueness_spec().to_dict()
        payload["probabilities"] = [0.5, 0.9]
        spec = ScenarioSpec.from_dict(payload)
        assert spec.probabilities == (0.5, 0.9)

    def test_derived_seed_is_deterministic_and_name_keyed(self):
        spec = uniqueness_spec(seed=None)
        assert spec.derived(7) == spec.derived(7)
        assert spec.derived(7).seed != replace(spec, name="other").derived(7).seed
        # an explicit seed is never overridden
        assert uniqueness_spec(seed=3).derived(7).seed == 3

    def test_config_applies_overrides(self):
        spec = uniqueness_spec(panel_users=33, n_bootstrap=17, probabilities=(0.8,))
        config = spec.config()
        assert config.panel.n_users == 33
        assert config.panel.n_men + config.panel.n_women + config.panel.n_gender_undisclosed == 33
        assert config.uniqueness.n_bootstrap == 17
        assert config.uniqueness.probabilities == (0.8,)

    def test_parse_rules(self):
        cap, floor_rule = parse_rules(("interest_cap:5", "min_active_audience:1000"))
        assert cap.max_interests == 5
        assert floor_rule.min_active_users == 1000
        assert parse_rules(("interest_cap",))[0].max_interests == 9
        with pytest.raises(ConfigurationError):
            parse_rules(("frequency_cap",))


class TestStudiesDecodeOnlyTheirRows:
    """The panel studies read the columns and build only the users they use."""

    @pytest.mark.parametrize(
        "name", ["nanotargeting-table2", "nanotargeting-protected", "fdvt-risk"]
    )
    def test_runs_without_decoding_the_whole_panel(self, name, monkeypatch):
        spec = replace(get_scenario(name), factor=FACTOR, seed=5)
        expected = run_scenario(
            spec, simulation=build_cached_simulation(spec.config(), seed=5)
        )

        def refuse(columns):
            raise AssertionError("the whole panel was decoded into user objects")

        monkeypatch.setattr(PanelColumns, "to_users", refuse)
        # No cache: a freshly built panel has no decoded users behind it.
        assert run_scenario(spec) == expected


class TestRegistry:
    def test_builtins_cover_the_four_studies(self):
        studies = {spec.study for spec in list_scenarios()}
        assert studies == {"uniqueness", "nanotargeting", "workload_impact", "fdvt_risk"}

    def test_get_unknown_raises_with_available_names(self):
        with pytest.raises(ConfigurationError, match="uniqueness-table1"):
            get_scenario("does-not-exist")

    def test_register_duplicate_raises_unless_replaced(self):
        spec = get_scenario("uniqueness-table1")
        with pytest.raises(ConfigurationError):
            register_scenario(spec)
        assert register_scenario(spec, replace=True) == spec

    def test_registry_specs_round_trip(self):
        for spec in list_scenarios():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestStudyParity:
    """Every adapter is bit-identical to its hand-wired direct invocation."""

    def test_uniqueness_matches_direct_model(self):
        spec = uniqueness_spec()
        result = run_scenario(spec)
        simulation = build_cached_simulation(spec.config(), seed=spec.seed)
        _, random_strategy = simulation.strategies()
        report = simulation.uniqueness_model().estimate(
            random_strategy, probabilities=(0.9,)
        )
        assert result.metric("random:n_p@0.9") == report.estimates[0.9].n_p
        assert result.table == (report.table_row(),)

    def test_nanotargeting_matches_direct_experiment(self):
        spec = ScenarioSpec(
            name="test-nano", study="nanotargeting", factor=FACTOR, seed=5
        )
        result = run_scenario(spec)
        simulation = build_cached_simulation(spec.config(), seed=5)
        report = simulation.nanotargeting_experiment(seed=5).run(
            candidates=simulation.panel
        )
        assert result.table == tuple(report.table_rows())
        assert result.metric("success_count") == report.success_count
        assert result.metric("total_cost_eur") == report.total_cost_eur()

    def test_workload_impact_matches_direct_evaluation(self):
        spec = ScenarioSpec(
            name="test-workload",
            study="workload_impact",
            factor=FACTOR,
            seed=9,
            workload_size=120,
        )
        result = run_scenario(spec)
        simulation = build_cached_simulation(spec.config(), seed=9)
        workload = AdvertiserWorkloadGenerator(simulation.catalog).generate(120, seed=9)
        impact = evaluate_workload_impact(
            simulation.campaign_api, workload, [InterestCapRule()]
        )
        assert result.metric("rejected_campaigns") == impact.rejected_campaigns
        assert result.metric("total_campaigns") == impact.total_campaigns

    def test_fdvt_risk_matches_direct_reports(self):
        spec = ScenarioSpec(
            name="test-fdvt", study="fdvt_risk", factor=FACTOR, seed=3, risk_users=8
        )
        result = run_scenario(spec)
        simulation = build_cached_simulation(spec.config(), seed=3)
        extension = FDVTExtension(simulation.uniqueness_api, simulation.catalog)
        reports = extension.build_risk_reports(simulation.panel.users[:8])
        assert result.raw == reports
        assert result.metric("n_users") == len(reports)

    def test_protected_nanotargeting_rejects_campaigns(self):
        spec = ScenarioSpec(
            name="test-protected",
            study="nanotargeting",
            factor=FACTOR,
            seed=5,
            countermeasures=("interest_cap:9", "min_active_audience:1000"),
        )
        result = run_scenario(spec)
        baseline = run_scenario(
            ScenarioSpec(name="test-base", study="nanotargeting", factor=FACTOR, seed=5)
        )
        assert result.metric("rejected_campaigns") > 0
        assert result.metric("success_count") <= baseline.metric("success_count")

    def test_experiment_protocol_stages_compose(self):
        spec = uniqueness_spec()
        experiment = build_experiment(spec)
        units = experiment.plan()
        assert len(units) == 1
        summarized = experiment.summarize(experiment.execute())
        assert summarized == run_scenario(spec)


class TestScenarioDeterminism:
    def test_same_spec_same_result(self):
        spec = uniqueness_spec()
        assert run_scenario(spec) == run_scenario(spec)

    @pytest.mark.parametrize(
        "executor",
        [
            ShardExecutor(),
            pytest.param(
                ShardExecutor(backend="thread", workers=2), marks=pytest.mark.slow
            ),
            pytest.param(
                ShardExecutor(backend="thread", workers=4, shard_size=7),
                marks=pytest.mark.slow,
            ),
        ],
        ids=["serial", "thread-2", "thread-4-small-shards"],
    )
    def test_executor_does_not_change_results(self, executor):
        for spec in (
            uniqueness_spec(),
            ScenarioSpec(
                name="w", study="workload_impact", factor=FACTOR, seed=9, workload_size=60
            ),
            ScenarioSpec(
                name="f", study="fdvt_risk", factor=FACTOR, seed=3, risk_users=6
            ),
        ):
            assert run_scenario(spec, executor=executor) == run_scenario(spec)


class TestSweep:
    def grid(self) -> tuple[ScenarioSpec, ...]:
        base = uniqueness_spec(name="sweep", seed=None, n_bootstrap=20)
        specs = expand_grid(
            base,
            {
                "seed": [1, 2, 3, 4],
                "strategies": [("least_popular",), ("random",)],
            },
        )
        assert len(specs) == 8
        return specs

    def test_grid_naming_and_order(self):
        specs = self.grid()
        assert specs[0].name == "sweep/seed=1/strategies=least_popular"
        assert specs[-1].name == "sweep/seed=4/strategies=random"

    def test_expand_grid_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            expand_grid(uniqueness_spec(), {"n_bootstraps": [1]})
        with pytest.raises(ConfigurationError):
            expand_grid(uniqueness_spec(), {"name": ["a"]})

    def test_sweep_is_bit_identical_across_backends(self):
        specs = self.grid()
        serial = SweepRunner(executor=ShardExecutor(), seed=77).run(specs)
        threaded = SweepRunner(
            executor=ShardExecutor(backend="thread", workers=4, shard_size=1), seed=77
        ).run(specs)
        threaded_coarse = SweepRunner(
            executor=ShardExecutor(backend="thread", workers=2, shard_size=3), seed=77
        ).run(specs)
        assert serial == threaded
        assert serial == threaded_coarse
        assert serial.names == tuple(spec.name for spec in specs)

    def test_sweep_matches_direct_single_runs(self):
        specs = self.grid()[:2]
        runner = SweepRunner(seed=77)
        swept = runner.run(specs)
        for spec in runner.resolve(specs):
            assert swept.get(spec.name) == run_scenario(spec)

    def test_sweep_derives_per_scenario_seeds(self):
        base = uniqueness_spec(name="seedless", seed=None)
        specs = expand_grid(
            base, {"strategies": [("least_popular",), ("random",)]}
        )
        resolved = SweepRunner(seed=77).resolve(specs)
        assert all(spec.seed is not None for spec in resolved)
        # seeds key on the scenario name, so distinct grid rows diverge
        assert resolved[0].seed != resolved[1].seed
        assert SweepRunner(seed=77).resolve(specs) == resolved
        # explicit seeds are preserved (the seed-axis grid pins them)
        pinned = SweepRunner(seed=77).resolve(self.grid()[:2])
        assert [spec.seed for spec in pinned] == [1, 1]

    def test_duplicate_names_rejected(self):
        spec = uniqueness_spec()
        with pytest.raises(ConfigurationError):
            SweepRunner().run([spec, spec])

    def test_empty_sweep(self):
        assert len(SweepRunner().run([])) == 0


class TestResultSet:
    def result(self, name: str) -> ScenarioResult:
        return ScenarioResult(
            scenario=name,
            study="uniqueness",
            seed=1,
            metrics=(("m", 1.0),),
            table=({"m": 1.0},),
            summary=(f"{name} done",),
        )

    def test_add_merge_preserve_order(self):
        left = ResultSet([self.result("a"), self.result("b")])
        right = ResultSet([self.result("c")])
        left.merge(right)
        assert left.names == ("a", "b", "c")
        assert left.get("c") == self.result("c")
        assert "b" in left and "z" not in left

    def test_duplicates_rejected(self):
        results = ResultSet([self.result("a")])
        with pytest.raises(ModelError):
            results.add(self.result("a"))

    def test_sink_protocol(self):
        from repro.exec import Sink, drain

        results = ResultSet()
        assert isinstance(results, Sink)
        merged = drain(
            [ResultSet([self.result("a")]), self.result("b")], results
        )
        assert merged.names == ("a", "b")

    def test_equality_is_order_sensitive(self):
        forward = ResultSet([self.result("a"), self.result("b")])
        backward = ResultSet([self.result("b"), self.result("a")])
        assert forward != backward

    def test_metric_lookup_and_serialisation(self):
        result = self.result("a")
        assert result.metric("m") == 1.0
        with pytest.raises(ModelError):
            result.metric("missing")
        assert result.to_dict()["metrics"] == {"m": 1.0}
        rows = ResultSet([result]).table_rows()
        assert rows == [{"scenario": "a", "study": "uniqueness", "m": 1.0}]
