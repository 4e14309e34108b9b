"""Tests for the audience collector, the uniqueness model and its reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adsapi import AdsManagerAPI
from repro.config import PlatformConfig, UniquenessConfig
from repro.core import (
    AudienceSizeCollector,
    LeastPopularSelection,
    RandomSelection,
    UniquenessModel,
)
from repro.errors import ModelError
from repro.reach import country_codes
from repro.simclock import SimClock


@pytest.fixture(scope="module")
def uniqueness_setup(simulation):
    """A fresh legacy-platform API plus a small uniqueness configuration."""
    api = AdsManagerAPI(
        simulation.reach_model,
        platform=PlatformConfig.legacy_2017(),
        clock=SimClock(),
    )
    config = UniquenessConfig(n_bootstrap=60, seed=101)
    model = UniquenessModel(
        api, simulation.panel, config, locations=country_codes()
    )
    return api, model


class TestAudienceSizeCollector:
    def test_matrix_shape_and_floor(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.legacy_2017(),
            clock=SimClock(),
        )
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=6, locations=country_codes()
        )
        samples = collector.collect(LeastPopularSelection())
        assert samples.matrix.shape == (len(simulation.panel), 6)
        assert samples.floor == 20
        finite = samples.matrix[~np.isnan(samples.matrix)]
        assert (finite >= 20).all()

    def test_max_interests_cannot_exceed_platform_limit(self, simulation):
        api = AdsManagerAPI(simulation.reach_model, platform=PlatformConfig())
        with pytest.raises(ModelError):
            AudienceSizeCollector(api, simulation.panel, max_interests=30)

class TestUniquenessModel:
    def test_reports_contain_requested_probabilities(self, uniqueness_setup):
        _, model = uniqueness_setup
        report = model.estimate(RandomSelection(seed=1), probabilities=[0.5, 0.9])
        assert report.probabilities == (0.5, 0.9)
        assert report.strategy_name == "random"
        assert report.n_users == len(model.panel)

    def test_np_increases_with_probability(self, uniqueness_setup):
        _, model = uniqueness_setup
        report = model.estimate(RandomSelection(seed=1), probabilities=[0.5, 0.8, 0.9])
        values = [report.estimate_for(p).n_p for p in (0.5, 0.8, 0.9)]
        assert values[0] < values[1] < values[2]

    def test_least_popular_needs_fewer_interests_than_random(self, uniqueness_setup):
        _, model = uniqueness_setup
        lp = model.estimate(LeastPopularSelection(), probabilities=[0.9])
        rnd = model.estimate(RandomSelection(seed=1), probabilities=[0.9])
        assert lp.estimate_for(0.9).n_p < rnd.estimate_for(0.9).n_p

    def test_fit_quality_is_high(self, uniqueness_setup):
        _, model = uniqueness_setup
        report = model.estimate(RandomSelection(seed=1), probabilities=[0.5])
        assert report.estimate_for(0.5).r_squared > 0.85

    def test_confidence_interval_brackets_estimate(self, uniqueness_setup):
        _, model = uniqueness_setup
        estimate = model.estimate(
            RandomSelection(seed=1), probabilities=[0.5]
        ).estimate_for(0.5)
        ci = estimate.confidence_interval
        assert ci.low <= estimate.n_p * 1.15
        assert ci.high >= estimate.n_p * 0.85

    def test_collection_is_cached_per_strategy(self, uniqueness_setup):
        api, model = uniqueness_setup
        strategy = RandomSelection(seed=1)
        before = api.call_stats().reach_estimates
        model.collect(strategy)
        after_first = api.call_stats().reach_estimates
        model.collect(strategy)
        assert api.call_stats().reach_estimates == after_first
        assert after_first >= before

    def test_vas_curves_are_monotone(self, uniqueness_setup):
        _, model = uniqueness_setup
        report = model.estimate(RandomSelection(seed=1), probabilities=[0.5])
        curve = report.vas_curves[0.5]
        finite = curve[~np.isnan(curve)]
        assert all(finite[i] + 1e-9 >= finite[i + 1] for i in range(len(finite) - 1))

    def test_table_row_and_summary(self, uniqueness_setup):
        _, model = uniqueness_setup
        report = model.estimate(LeastPopularSelection(), probabilities=[0.5, 0.9])
        row = report.table_row()
        assert row["strategy"] == "least_popular"
        assert "P=0.5" in row and "P=0.9 95% CI" in row
        assert len(report.summary_lines()) == 3

    def test_unknown_probability_raises(self, uniqueness_setup):
        _, model = uniqueness_setup
        report = model.estimate(LeastPopularSelection(), probabilities=[0.5])
        with pytest.raises(ModelError):
            report.estimate_for(0.9)

    def test_empty_probability_list_rejected(self, uniqueness_setup):
        _, model = uniqueness_setup
        with pytest.raises(ModelError):
            model.estimate(LeastPopularSelection(), probabilities=[])
