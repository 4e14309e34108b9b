"""Batch/scalar parity for the vectorised reach pipeline.

The batched entry points (``prefix_audiences``, ``audience_for_batch``,
``estimate_reach_batch``, ``fit_vas_many``, the collector) are required to
return **bit-identical** results to their scalar counterparts —
they share the same kernels, including the counter-based jitter stream.
These property-style tests pin that contract, plus the monotonicity
invariants both paths must uphold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, PlatformConfig, ReachModelConfig
from repro.core import (
    AudienceSizeCollector,
    LeastPopularSelection,
    RandomSelection,
    bootstrap_cutpoints,
)
from repro.core.fitting import fit_vas, fit_vas_many
from repro.core.quantiles import AudienceSamples
from repro.errors import InsufficientDataError, ModelError
from repro.reach import StatisticalReachModel, country_codes
from repro.simclock import SimClock

import oracles


@pytest.fixture(scope="module")
def model():
    catalog = InterestCatalog.generate(CatalogConfig(n_interests=600, seed=37))
    return StatisticalReachModel(catalog, ReachModelConfig(seed=37))


@pytest.fixture(scope="module")
def id_pool(model):
    rng = np.random.default_rng(5)
    ids = model.catalog.interest_ids
    return [int(i) for i in rng.choice(ids, size=40, replace=False)]


class TestPrefixKernelParity:
    def test_prefix_audiences_match_scalar_queries(self, model, id_pool):
        for locations in (None, ("US", "ES"), tuple(country_codes())):
            ordered = id_pool[:20]
            batch = model.prefix_audiences(ordered, locations)
            scalar = np.array(
                [
                    model.audience_for(ordered[: k + 1], locations)
                    for k in range(len(ordered))
                ]
            )
            assert np.array_equal(batch, scalar)

    def test_prefix_intersections_match_scalar(self, model, id_pool):
        ordered = id_pool[:15]
        batch = model.prefix_intersection_probabilities(ordered)
        scalar = np.array(
            [model.intersection_probability(ordered[: k + 1]) for k in range(15)]
        )
        assert np.array_equal(batch, scalar)

    def test_prefix_audiences_non_increasing(self, model, id_pool):
        audiences = model.prefix_audiences(id_pool[:25])
        assert np.all(np.diff(audiences) <= 1e-9)
        assert np.all(audiences >= 0.0)

    def test_full_set_value_is_order_independent(self, model, id_pool):
        # Identical order is exactly reproducible; permutations agree to
        # floating-point rounding (the log-sum accumulates in query order,
        # only the jitter seed is exactly order-independent).
        ordered = id_pool[:12]
        assert model.audience_for(ordered) == model.audience_for(ordered)
        backward = model.audience_for(list(reversed(ordered)))
        assert model.audience_for(ordered) == pytest.approx(backward, rel=1e-9)
        from repro.reach.jitter import combination_seed

        forward_seed = combination_seed(np.asarray(ordered), model._jitter_key)
        backward_seed = combination_seed(
            np.asarray(ordered[::-1]), model._jitter_key
        )
        assert forward_seed == backward_seed

    def test_truncated_call_is_a_prefix_of_the_full_call(self, model, id_pool):
        full = model.prefix_audiences(id_pool[:25])
        truncated = model.prefix_audiences(id_pool[:10])
        assert np.array_equal(full[:10], truncated)


class TestAudienceForBatch:
    def test_arbitrary_combinations_match_looped_scalar(self, model, id_pool):
        rng = np.random.default_rng(11)
        combos = [
            tuple(rng.choice(id_pool, size=size, replace=False).tolist())
            for size in (1, 7, 3, 25, 2, 14)
        ]
        for combine in ("and", "or"):
            batch = model.audience_for_batch(combos, ("MX",), combine=combine)
            scalar = [
                model.audience_for(c, ("MX",), combine=combine) for c in combos
            ]
            assert np.array_equal(batch, np.array(scalar))

    def test_prefix_chains_inside_a_batch(self, model, id_pool):
        ordered = id_pool[:9]
        combos = [tuple(ordered[:k]) for k in range(1, 10)]
        combos += [tuple(id_pool[9:12])]  # breaks the chain
        combos += [tuple(id_pool[12:15]), tuple(id_pool[12:16])]  # new chain
        batch = model.audience_for_batch(combos)
        scalar = [model.audience_for(c) for c in combos]
        assert np.array_equal(batch, np.array(scalar))

    def test_protocol_default_matches_statistical_backend(self, id_pool, model):
        from repro.reach.backend import ReachBackend

        combos = [tuple(id_pool[:k]) for k in range(1, 6)]
        fallback = ReachBackend.audience_for_batch(model, combos)
        assert np.array_equal(fallback, model.audience_for_batch(combos))
        fallback_prefix = ReachBackend.prefix_audiences(model, id_pool[:6])
        assert np.array_equal(fallback_prefix, model.prefix_audiences(id_pool[:6]))


class TestEstimateReachBatch:
    @pytest.fixture()
    def api(self, model):
        return AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )

    def test_batch_equals_looped_estimates(self, api, id_pool):
        locations = country_codes()
        specs = [
            TargetingSpec.for_interests(id_pool[:k], locations=locations)
            for k in range(1, 26)
        ]
        batched = api.estimate_reach_batch(specs)
        looped = [api.estimate_reach(spec) for spec in specs]
        assert list(batched) == looped

    def test_floor_respected_on_both_paths(self, api, id_pool):
        locations = ("AR",)
        specs = [
            TargetingSpec.for_interests(id_pool[:k], locations=locations)
            for k in range(1, 26)
        ]
        for estimate in api.estimate_reach_batch(specs):
            assert estimate.potential_reach >= api.platform.reach_floor
        for spec in specs:
            assert api.estimate_reach(spec).potential_reach >= api.platform.reach_floor

    def test_rate_limit_and_counter_accounting_match(self, model, id_pool):
        locations = ("US",)
        specs = [
            TargetingSpec.for_interests(id_pool[:k], locations=locations)
            for k in range(1, 11)
        ]
        batched_api = AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        looped_api = AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        batched_api.estimate_reach_batch(specs)
        for spec in specs:
            looped_api.estimate_reach(spec)
        assert batched_api.call_stats() == looped_api.call_stats()

    def test_empty_batch(self, api):
        assert api.estimate_reach_batch([]) == ()


class TestCollectorParity:
    @pytest.fixture(scope="class")
    def stack(self, simulation):
        def fresh_api():
            return AdsManagerAPI(
                simulation.reach_model,
                platform=PlatformConfig.legacy_2017(),
                clock=SimClock(),
            )

        return simulation, fresh_api

    @pytest.mark.parametrize("strategy_seed", [None, 13])
    def test_batched_and_scalar_matrices_identical(self, stack, strategy_seed):
        simulation, fresh_api = stack
        strategy = (
            LeastPopularSelection()
            if strategy_seed is None
            else RandomSelection(seed=strategy_seed)
        )
        kwargs = dict(max_interests=8, locations=country_codes())
        batched = AudienceSizeCollector(fresh_api(), simulation.panel, **kwargs)
        batched_samples = batched.collect(strategy)
        scalar_samples = oracles.scalar_collect(
            fresh_api(), simulation.panel, strategy, **kwargs
        )
        assert np.array_equal(
            batched_samples.matrix, scalar_samples.matrix, equal_nan=True
        )
        assert batched_samples.user_ids == scalar_samples.user_ids

    def test_collect_for_users_preserves_requested_order(self, stack):
        simulation, fresh_api = stack
        collector = AudienceSizeCollector(
            fresh_api(), simulation.panel, max_interests=4, locations=country_codes()
        )
        wanted = [user.user_id for user in list(simulation.panel)[:6]]
        reversed_ids = list(reversed(wanted))
        samples = collector.collect_for_users(LeastPopularSelection(), reversed_ids)
        assert list(samples.user_ids) == reversed_ids

    def test_collect_for_users_collapses_duplicates(self, stack):
        simulation, fresh_api = stack
        collector = AudienceSizeCollector(
            fresh_api(), simulation.panel, max_interests=4, locations=country_codes()
        )
        first = list(simulation.panel)[0].user_id
        samples = collector.collect_for_users(
            LeastPopularSelection(), [first, first, first]
        )
        assert samples.n_users == 1


class TestFitVasManyParity:
    @pytest.fixture(scope="class")
    def matrix(self) -> np.ndarray:
        rng = np.random.default_rng(23)
        base = 10.0 ** (7.7 - 7.0 * np.log10(np.arange(1, 26) + 1.0))
        rows = base[None, :] * 10.0 ** rng.normal(0.0, 0.5, size=(80, 25))
        rows = np.maximum(rows, 20.0)
        rows[5, 18:] = np.nan  # user with fewer interests
        rows[11, :] = 20.0  # fully floored replicate -> too few points
        return rows

    def test_rows_match_scalar_fits_exactly(self, matrix):
        batch = fit_vas_many(matrix, floor=20)
        for row in range(matrix.shape[0]):
            try:
                fit = fit_vas(matrix[row], floor=20)
            except (InsufficientDataError, ModelError):
                assert np.isnan(batch.cutpoints[row])
                continue
            assert fit.slope_a == batch.slope_a[row]
            assert fit.intercept_b == batch.intercept_b[row]
            assert fit.r_squared == batch.r_squared[row]
            assert fit.n_points == batch.n_points[row]
            assert fit.cutpoint == batch.cutpoints[row]

    def test_single_row_shape(self, matrix):
        batch = fit_vas_many(matrix[0], floor=20)
        assert batch.n_fits == 1

    def test_invalid_floor_rejected(self, matrix):
        with pytest.raises(ModelError):
            fit_vas_many(matrix, floor=0)


class TestMaskedColumnQuantiles:
    def test_matches_nanpercentile_bitwise(self):
        from repro.core.quantiles import masked_column_quantiles

        rng = np.random.default_rng(17)
        for _ in range(25):
            shape = (
                int(rng.integers(1, 5)),
                int(rng.integers(1, 30)),
                int(rng.integers(1, 8)),
            )
            stack = rng.normal(0.0, 50.0, size=shape)
            stack[rng.random(size=shape) < rng.random() * 0.8] = np.nan
            qs = sorted(rng.uniform(1.0, 99.0, size=3))
            ours = masked_column_quantiles(stack, qs)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference = np.stack(
                    [
                        np.nanpercentile(stack[i], qs, axis=0)
                        for i in range(shape[0])
                    ],
                    axis=1,
                ).reshape(len(qs), shape[0], shape[2])
            assert np.array_equal(ours, reference, equal_nan=True)

    def test_rejects_non_3d_input(self):
        from repro.core.quantiles import masked_column_quantiles

        with pytest.raises(ModelError):
            masked_column_quantiles(np.zeros((3, 4)), [50.0])


class TestBootstrapVectorised:
    def test_deterministic_and_chunking_invariant(self):
        rng = np.random.default_rng(3)
        base = 10.0 ** (7.5 - 6.5 * np.log10(np.arange(1, 26) + 1.0))
        matrix = np.maximum(
            base[None, :] * 10.0 ** rng.normal(0.0, 0.4, size=(60, 25)), 20.0
        )
        samples = AudienceSamples(matrix=matrix, floor=20)
        first = bootstrap_cutpoints(samples, [50.0, 90.0], n_bootstrap=50, seed=9)
        second = bootstrap_cutpoints(samples, [50.0, 90.0], n_bootstrap=50, seed=9)
        chunked = bootstrap_cutpoints(
            samples, [50.0, 90.0], n_bootstrap=50, seed=9, chunk_size=7
        )
        for q in (50.0, 90.0):
            assert np.array_equal(first[q], second[q], equal_nan=True)
            assert np.array_equal(first[q], chunked[q], equal_nan=True)
            assert first[q].shape == (50,)
            assert np.isfinite(first[q]).sum() > 40
