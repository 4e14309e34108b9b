"""Tests for the configuration objects."""

from __future__ import annotations

import pytest

from repro.config import (
    CatalogConfig,
    ExperimentConfig,
    PanelConfig,
    PlatformConfig,
    ReachModelConfig,
    ReproductionConfig,
    UniquenessConfig,
    default_config,
    quick_config,
)
from repro.errors import ConfigurationError


class TestCatalogConfig:
    def test_defaults_match_paper_scale(self):
        config = CatalogConfig()
        assert config.n_interests == 99_000
        assert config.median_audience == pytest.approx(418_530.0)

    def test_rejects_non_positive_interest_count(self):
        with pytest.raises(ConfigurationError):
            CatalogConfig(n_interests=0)

    def test_rejects_median_below_floor(self):
        with pytest.raises(ConfigurationError):
            CatalogConfig(median_audience=10.0, min_audience=20)

    def test_rejects_bad_rare_tail_fraction(self):
        with pytest.raises(ConfigurationError):
            CatalogConfig(rare_tail_fraction=1.5)


class TestReachModelConfig:
    def test_alpha_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            ReachModelConfig(correlation_alpha=0.0)
        with pytest.raises(ConfigurationError):
            ReachModelConfig(correlation_alpha=1.5)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            ReachModelConfig(jitter_log10_sigma=-0.1)


class TestPlatformConfig:
    def test_legacy_2017_has_20_user_floor_and_no_worldwide(self):
        legacy = PlatformConfig.legacy_2017()
        assert legacy.reach_floor == 20
        assert not legacy.allow_worldwide_location

    def test_modern_2020_has_1000_user_floor_and_worldwide(self):
        modern = PlatformConfig.modern_2020()
        assert modern.reach_floor == 1_000
        assert modern.allow_worldwide_location

    def test_interest_limit_is_25(self):
        assert PlatformConfig().max_interests_per_audience == 25

    def test_location_limit_is_50(self):
        assert PlatformConfig().max_locations_per_query == 50

    def test_rejects_zero_floor(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig(reach_floor=0)


class TestPanelConfig:
    def test_defaults_match_section3(self):
        config = PanelConfig()
        assert config.n_users == 2_390
        assert config.n_men + config.n_women + config.n_gender_undisclosed == 2_390

    def test_gender_counts_must_sum(self):
        with pytest.raises(ConfigurationError):
            PanelConfig(n_men=1000, n_women=1000, n_gender_undisclosed=1000)

    def test_age_counts_must_sum(self):
        with pytest.raises(ConfigurationError):
            PanelConfig(n_adolescents=2_390, n_early_adults=1)


class TestUniquenessConfig:
    def test_default_probabilities_match_table1(self):
        assert UniquenessConfig().probabilities == (0.5, 0.8, 0.9, 0.95)

    def test_default_bootstrap_count_matches_paper(self):
        assert UniquenessConfig().n_bootstrap == 10_000

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            UniquenessConfig(probabilities=(0.5, 1.5))


class TestExperimentConfig:
    def test_default_interest_counts_match_section5(self):
        assert ExperimentConfig().interest_counts == (5, 7, 9, 12, 18, 20, 22)

    def test_success_and_failure_groups(self):
        config = ExperimentConfig()
        assert config.success_group == (12, 18, 20, 22)
        assert config.failure_group == (5, 7, 9)

    def test_rejects_empty_interest_counts(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(interest_counts=())


class TestReproductionConfig:
    def test_default_config_is_full_scale(self):
        config = default_config()
        assert config.panel.n_users == 2_390
        assert config.catalog.n_interests == 99_000

    def test_quick_config_preserves_structure(self):
        config = quick_config(factor=20)
        assert isinstance(config, ReproductionConfig)
        assert config.panel.n_users < 2_390
        total_genders = (
            config.panel.n_men
            + config.panel.n_women
            + config.panel.n_gender_undisclosed
        )
        assert total_genders == config.panel.n_users

    def test_quick_config_age_groups_still_sum(self):
        config = quick_config(factor=35)
        total = (
            config.panel.n_adolescents
            + config.panel.n_early_adults
            + config.panel.n_adults
            + config.panel.n_matures
            + config.panel.n_age_undisclosed
        )
        assert total == config.panel.n_users

    def test_scaled_down_rejects_bad_factor(self):
        with pytest.raises(ConfigurationError):
            default_config().scaled_down(0)
