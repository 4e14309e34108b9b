"""Tests for the analytic world-scale reach model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.catalog import Interest, InterestCatalog
from repro.config import CatalogConfig, PlatformConfig, ReachModelConfig
from repro.errors import ConfigurationError
from repro.reach import ReachBackend, StatisticalReachModel, total_user_base
from repro.simclock import SimClock


@pytest.fixture(scope="module")
def model():
    catalog = InterestCatalog.generate(CatalogConfig(n_interests=500, seed=21))
    return StatisticalReachModel(catalog, ReachModelConfig(seed=21))


class TestWorldSize:
    def test_default_world_is_the_50_country_base(self, model):
        assert model.world_size() == pytest.approx(total_user_base())

    def test_location_restriction_shrinks_the_base(self, model):
        assert model.world_size(["ES"]) < model.world_size(["ES", "US"])
        assert model.world_size(["ES", "US"]) < model.world_size()

    def test_custom_world_population(self):
        catalog = InterestCatalog.generate(CatalogConfig(n_interests=50, seed=1))
        model = StatisticalReachModel(catalog, world_population=1_000_000)
        assert model.world_size() == pytest.approx(1_000_000)

    def test_zero_world_population_rejected(self):
        catalog = InterestCatalog.generate(CatalogConfig(n_interests=50, seed=1))
        with pytest.raises(ConfigurationError):
            StatisticalReachModel(catalog, world_population=0)


class TestMarginals:
    def test_marginal_audience_matches_catalog(self, model):
        interest = next(iter(model.catalog))
        assert model.marginal_audience(interest.interest_id) == pytest.approx(
            interest.audience_size, rel=1e-6
        )

    def test_marginal_probability_in_unit_interval(self, model):
        for interest in list(model.catalog)[:20]:
            probability = model.marginal_probability(interest.interest_id)
            assert 0.0 < probability <= 1.0

    def test_marginal_audience_scales_with_location(self, model):
        interest = next(iter(model.catalog))
        worldwide = model.marginal_audience(interest.interest_id)
        spain_only = model.marginal_audience(interest.interest_id, ["ES"])
        assert spain_only < worldwide


class TestIntersections:
    def test_implements_reach_backend_protocol(self, model):
        assert isinstance(model, ReachBackend)

    def test_empty_combination_returns_world(self, model):
        assert model.audience_for([]) == pytest.approx(model.world_size())

    def test_single_interest_close_to_marginal(self, model):
        interest = next(iter(model.catalog))
        audience = model.audience_for([interest.interest_id])
        marginal = model.marginal_audience(interest.interest_id)
        # Jitter is bounded; the single-interest audience stays within 2x.
        assert marginal / 2.0 <= audience <= marginal

    def test_adding_interests_never_grows_the_audience(self, model):
        ids = [interest.interest_id for interest in list(model.catalog)[:10]]
        previous = float("inf")
        for n in range(1, len(ids) + 1):
            audience = model.audience_for(ids[:n])
            assert audience <= previous + 1e-6
            previous = audience

    def test_intersection_below_rarest_marginal(self, model):
        ids = [interest.interest_id for interest in list(model.catalog)[:5]]
        audience = model.audience_for(ids)
        rarest = min(model.marginal_audience(i) for i in ids)
        assert audience <= rarest + 1e-6

    def test_intersection_far_above_independence(self, model):
        """Correlation keeps combinations far larger than independence predicts."""
        ids = [interest.interest_id for interest in list(model.catalog)[:6]]
        audience = model.audience_for(ids)
        world = model.world_size()
        independent = world
        for interest_id in ids:
            independent *= model.marginal_probability(interest_id)
        assert audience > independent

    def test_repeated_queries_are_deterministic(self, model):
        ids = [interest.interest_id for interest in list(model.catalog)[:8]]
        assert model.audience_for(ids) == model.audience_for(ids)

    def test_order_of_interests_does_not_matter(self, model):
        ids = [interest.interest_id for interest in list(model.catalog)[:8]]
        assert model.audience_for(ids) == pytest.approx(
            model.audience_for(list(reversed(ids)))
        )

    def test_or_combination_at_least_as_large_as_any_marginal(self, model):
        ids = [interest.interest_id for interest in list(model.catalog)[:4]]
        union = model.audience_for(ids, combine="or")
        largest = max(model.marginal_audience(i) for i in ids)
        assert union >= largest * 0.5
        assert union >= model.audience_for(ids, combine="and")

    def test_union_probability_as_the_first_query_of_a_fresh_model(self):
        catalog = InterestCatalog.generate(CatalogConfig(n_interests=50, seed=3))
        fresh = StatisticalReachModel(catalog, ReachModelConfig(seed=3))
        probability = fresh.union_probability([1, 2, 3])
        marginals = [fresh.marginal_probability(i) for i in (1, 2, 3)]
        assert max(marginals) <= probability <= sum(marginals)

    def test_or_estimate_as_the_first_query_of_a_fresh_api(self):
        catalog = InterestCatalog.generate(CatalogConfig(n_interests=50, seed=3))
        api = AdsManagerAPI(
            StatisticalReachModel(catalog, ReachModelConfig(seed=3)),
            platform=PlatformConfig(reach_floor=1),
        )
        spec = TargetingSpec.for_interests([1, 2, 3], combine="or")
        assert api.estimate_reach(spec).potential_reach > 0

    def test_unknown_combine_mode_rejected(self, model):
        ids = [next(iter(model.catalog)).interest_id]
        with pytest.raises(ConfigurationError):
            model.audience_for(ids, combine="xor")

    def test_location_restriction_shrinks_combination(self, model):
        ids = [interest.interest_id for interest in list(model.catalog)[:3]]
        assert model.audience_for(ids, ["ES"]) < model.audience_for(ids)


class TestCorrelationAlphaEffect:
    def test_lower_alpha_means_larger_intersections(self):
        catalog = InterestCatalog.generate(CatalogConfig(n_interests=300, seed=3))
        ids = [interest.interest_id for interest in list(catalog)[:10]]
        strong = StatisticalReachModel(
            catalog, ReachModelConfig(correlation_alpha=0.1, jitter_log10_sigma=0.0)
        )
        weak = StatisticalReachModel(
            catalog, ReachModelConfig(correlation_alpha=0.9, jitter_log10_sigma=0.0)
        )
        assert strong.audience_for(ids) > weak.audience_for(ids)

    def test_alpha_one_recovers_independence_up_to_topic_boost(self):
        catalog = InterestCatalog.generate(CatalogConfig(n_interests=300, seed=3))
        model = StatisticalReachModel(
            catalog,
            ReachModelConfig(
                correlation_alpha=1.0, jitter_log10_sigma=0.0, topic_affinity_boost=0.0
            ),
        )
        ids = [interest.interest_id for interest in list(catalog)[:3]]
        independent = model.world_size()
        for interest_id in ids:
            independent *= model.marginal_probability(interest_id)
        assert model.audience_for(ids) == pytest.approx(independent, rel=1e-6)


class TestZeroAudienceInterest:
    """An interest nobody holds makes every AND audience holding it 0."""

    @pytest.fixture()
    def api(self):
        catalog = InterestCatalog(
            [
                Interest(
                    interest_id=index,
                    name=f"interest {index}",
                    topic=("Music", "Sports")[index % 2],
                    audience_size=0 if index == 0 else 1_000 * (index + 1),
                )
                for index in range(5)
            ]
        )
        return AdsManagerAPI(
            StatisticalReachModel(catalog), platform=PlatformConfig(), clock=SimClock()
        )

    def test_audience_for_is_zero(self, api):
        model = api.backend
        assert model.audience_for([0]) == 0.0
        assert model.audience_for([1, 0, 2]) == 0.0
        assert model.audience_for([1, 2]) > 0.0

    def test_estimate_reach_reports_the_floor(self, api):
        estimate = api.estimate_reach(TargetingSpec.for_interests((1, 0)))
        assert estimate.floored and estimate.potential_reach == estimate.floor

    def test_estimate_reach_batch_reports_the_floor(self, api):
        held, unheld = api.estimate_reach_batch(
            [TargetingSpec.for_interests((1,)), TargetingSpec.for_interests((1, 0))]
        )
        assert not held.floored and held.potential_reach > held.floor
        assert unheld.floored and unheld.potential_reach == unheld.floor

    def test_estimate_reach_matrix_floors_every_later_cell(self, api):
        values = api.estimate_reach_matrix(np.array([[1, 0, 2]]), [3])
        floor = api.platform.reach_floor
        single = api.estimate_reach(TargetingSpec.for_interests((1,))).potential_reach
        assert values.tolist() == [[float(single), float(floor), float(floor)]]
