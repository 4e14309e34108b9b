"""Tests for the Section 8.3 countermeasures and their evaluation."""

from __future__ import annotations

import pytest

from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.campaigns import AdvertiserWorkloadGenerator, WorkloadConfig
from repro.config import ExperimentConfig, PlatformConfig
from repro.core import NanotargetingExperiment
from repro.countermeasures import (
    InterestCapRule,
    MinActiveAudienceRule,
    evaluate_attack_protection,
    evaluate_workload_impact,
    recommended_rules,
    run_protected_experiment,
)
from repro.delivery import DeliveryEngine
from repro.errors import ConfigurationError, ModelError
from repro.simclock import SimClock


class TestInterestCapRule:
    def test_allows_up_to_nine_interests(self):
        rule = InterestCapRule(max_interests=9)
        spec = TargetingSpec.for_interests(list(range(9)))
        assert rule.evaluate(spec, 1e6, 1e6) is None

    def test_rejects_ten_or_more_interests(self):
        rule = InterestCapRule(max_interests=9)
        spec = TargetingSpec.for_interests(list(range(10)))
        assert rule.evaluate(spec, 1e6, 1e6) is not None

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            InterestCapRule(max_interests=0)


class TestMinActiveAudienceRule:
    def test_rejects_tiny_active_audiences(self):
        rule = MinActiveAudienceRule(min_active_users=1_000)
        spec = TargetingSpec.for_interests([1])
        assert rule.evaluate(spec, raw_audience=5e6, active_audience=1.0) is not None

    def test_allows_large_active_audiences(self):
        rule = MinActiveAudienceRule(min_active_users=1_000)
        spec = TargetingSpec.for_interests([1])
        assert rule.evaluate(spec, raw_audience=5e6, active_audience=5e6) is None

    def test_closes_the_custom_audience_loophole(self):
        """A 100-user Custom Audience with one active member must be rejected."""
        rule = MinActiveAudienceRule(min_active_users=1_000)
        spec = TargetingSpec(custom_audience_id="ca_1")
        assert rule.evaluate(spec, raw_audience=100.0, active_audience=1.0) is not None

    def test_limit_below_100_rejected(self):
        with pytest.raises(ConfigurationError):
            MinActiveAudienceRule(min_active_users=50)

    def test_recommended_rules_match_paper(self):
        cap, minimum = recommended_rules()
        assert cap.max_interests == 9
        assert minimum.min_active_users == 1_000


class TestProtectedExperiment:
    @pytest.fixture(scope="class")
    def reports(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=5)
        config = ExperimentConfig(seed=11)
        experiment = NanotargetingExperiment(api, engine, config, seed=11)
        targets = experiment.select_targets(simulation.panel)
        baseline = experiment.run(targets)
        # A fresh account is needed because the baseline run gets suspended.
        protected_api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        protected_experiment = NanotargetingExperiment(
            protected_api, engine, config, seed=11
        )
        protected = run_protected_experiment(
            protected_api, engine, targets, list(recommended_rules()),
            experiment=protected_experiment,
        )
        return baseline, protected, protected_api

    def test_baseline_attack_succeeds(self, reports):
        baseline, _, _ = reports
        assert baseline.success_count >= 5

    def test_countermeasures_block_every_success(self, reports):
        _, protected, _ = reports
        assert protected.success_count == 0

    def test_rejections_are_recorded(self, reports):
        _, protected, _ = reports
        rejected = [r for r in protected.records if r.rejected]
        assert rejected
        assert all(r.outcome is None for r in rejected)

    def test_effectiveness_summary(self, reports):
        baseline, protected, _ = reports
        effectiveness = evaluate_attack_protection(baseline, protected)
        assert effectiveness.attack_reduction == pytest.approx(1.0)
        assert effectiveness.rejected_campaigns > 0

    def test_rules_are_removed_after_the_protected_run(self, reports):
        _, _, protected_api = reports
        assert protected_api.policy.rules == []

    def test_requires_at_least_one_rule(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=5)
        with pytest.raises(ModelError):
            run_protected_experiment(api, engine, [], [])


class TestWorkloadImpact:
    def test_workload_generator_shape(self, catalog):
        generator = AdvertiserWorkloadGenerator(catalog)
        specs = generator.generate(300, seed=1)
        assert len(specs) == 300
        counts = [spec.interest_count for spec in specs]
        assert max(counts) <= len(generator.config.interest_count_weights)
        assert sum(1 for c in counts if c <= 3) > len(counts) / 2

    def test_fraction_above_nine_is_below_one_percent(self):
        config = WorkloadConfig()
        assert config.fraction_above(9) < 0.01

    def test_interest_cap_impact_is_small(self, simulation, catalog):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        generator = AdvertiserWorkloadGenerator(catalog)
        specs = generator.generate(500, seed=2)
        impact = evaluate_workload_impact(api, specs, [InterestCapRule(max_interests=9)])
        assert impact.total_campaigns == 500
        assert impact.rejection_rate < 0.05

    def test_empty_workload_rejected(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        with pytest.raises(ModelError):
            evaluate_workload_impact(api, [], [InterestCapRule()])

    def test_invalid_workload_config_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(interest_count_weights=())
        with pytest.raises(ConfigurationError):
            WorkloadConfig(worldwide_fraction=2.0)
