"""Parity of the panel-scale collection kernel with the per-user oracles.

The collection engine (vectorised strategy ordering +
``prefix_audiences_panel`` + one merged bill) must produce
**bit-identical** matrices and call stats to the per-user batch and scalar
oracles of ``tests/oracles.py`` — including ragged panels (users with fewer
interests than the matrix width), users without any interests, and
demographic sub-panels.  These tests pin that contract, plus the dedup
semantics of the batched FDVT risk reports that ride the same bulk
endpoint.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, PlatformConfig, ReachModelConfig
from repro.core import (
    AudienceSizeCollector,
    LeastPopularSelection,
    RandomSelection,
    ordered_interest_matrix,
)
from repro.errors import (
    ModelError,
    PanelError,
    RateLimitExceededError,
    TargetingValidationError,
    UnknownInterestError,
)
from repro.fdvt import FDVTExtension, FDVTPanel
from repro.population import SyntheticUser
from repro.reach import StatisticalReachModel, country_codes
from repro.simclock import SimClock

import oracles
from _builders import fresh_legacy_api, fresh_modern_api


@pytest.fixture(scope="module")
def model():
    catalog = InterestCatalog.generate(CatalogConfig(n_interests=600, seed=37))
    return StatisticalReachModel(catalog, ReachModelConfig(seed=37))


@pytest.fixture(scope="module")
def id_pool(model):
    rng = np.random.default_rng(5)
    ids = model.catalog.interest_ids
    return [int(i) for i in rng.choice(ids, size=60, replace=False)]


def _ragged_matrix(id_pool, counts, width):
    matrix = np.full((len(counts), width), -1, dtype=np.int64)
    rng = np.random.default_rng(19)
    for row, count in enumerate(counts):
        matrix[row, :count] = rng.choice(id_pool, size=count, replace=False)
    return matrix


class TestPrefixAudiencesPanel:
    @pytest.mark.parametrize("locations", [None, ("US", "ES"), None])
    def test_rows_bit_identical_to_per_user_kernel(self, model, id_pool, locations):
        counts = np.array([0, 1, 5, 25, 13, 2, 25, 0, 7], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 25)
        panel = model.prefix_audiences_panel(matrix, counts, locations)
        for row, count in enumerate(counts):
            expected = oracles.prefix_audiences(model, matrix[row, :count], locations)
            assert np.array_equal(panel[row, :count], expected)
            assert np.isnan(panel[row, count:]).all()

    def test_matches_scalar_audience_for(self, model, id_pool):
        counts = np.array([4, 9], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 9)
        panel = model.prefix_audiences_panel(matrix, counts, ("MX",))
        for row, count in enumerate(counts):
            for k in range(count):
                scalar = model.audience_for(matrix[row, : k + 1], ("MX",))
                assert panel[row, k] == scalar

    def test_empty_panel_and_empty_rows(self, model):
        empty = model.prefix_audiences_panel(
            np.empty((0, 5), dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert empty.shape == (0, 5)
        all_empty = model.prefix_audiences_panel(
            np.full((3, 4), -1, dtype=np.int64), np.zeros(3, dtype=np.int64)
        )
        assert np.isnan(all_empty).all()

    def test_padding_values_are_ignored(self, model, id_pool):
        counts = np.array([3, 6], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 6)
        garbage = matrix.copy()
        garbage[0, 3:] = 10**9  # unknown id in the padding region
        assert np.array_equal(
            model.prefix_audiences_panel(matrix, counts),
            model.prefix_audiences_panel(garbage, counts),
            equal_nan=True,
        )

    def test_unknown_interest_in_valid_region_raises(self, model, id_pool):
        counts = np.array([3, 3], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 3)
        matrix[0, 2] = 10**9
        matrix[1, 0] = 10**9 + 1
        # The first unknown id in row order is the one reported.
        with pytest.raises(UnknownInterestError) as error:
            model.prefix_audiences_panel(matrix, counts)
        assert error.value.interest_id == 10**9

    def test_protocol_default_matches_vectorised_kernel(self, model, id_pool):
        counts = np.array([0, 8, 3], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 8)
        fallback = oracles.prefix_audiences_loop(model, matrix, counts)
        assert np.array_equal(
            fallback, model.prefix_audiences_panel(matrix, counts), equal_nan=True
        )

    def test_large_call_memory_is_bounded(self, model):
        # The (rows, width, width) same-topic mask is built in row blocks:
        # whole, it alone would take 225 bytes a cell at this width.
        rng = np.random.default_rng(11)
        ids = model.catalog.ids[rng.integers(0, len(model.catalog), size=(20_000, 25))]
        counts = rng.integers(0, 26, size=20_000)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            model.prefix_audiences_panel(ids, counts)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 240 * ids.size

    def test_invalid_shapes_rejected(self, model, id_pool):
        with pytest.raises(Exception):
            model.prefix_audiences_panel(np.zeros(4, dtype=np.int64), [4])
        with pytest.raises(Exception):
            model.prefix_audiences_panel(
                np.zeros((2, 4), dtype=np.int64), np.array([5, 0])
            )


class TestEstimateReachMatrix:
    @pytest.fixture()
    def api(self, model):
        return AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )

    def test_cells_match_batched_specs(self, api, id_pool):
        locations = country_codes()
        counts = np.array([5, 0, 12], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 12)
        values = api.estimate_reach_matrix(matrix, counts, locations=locations)
        for row, count in enumerate(counts):
            if count == 0:
                assert np.isnan(values[row]).all()
                continue
            specs = oracles.prefix_chain(
                matrix[row, :count], locations=locations
            )
            estimates = api.estimate_reach_batch(specs)
            assert np.array_equal(
                values[row, :count],
                np.array([float(e.potential_reach) for e in estimates]),
            )

    def test_floor_respected(self, api, id_pool):
        counts = np.full(4, 20, dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 20)
        values = api.estimate_reach_matrix(matrix, counts, locations=("AR",))
        assert (values[~np.isnan(values)] >= api.platform.reach_floor).all()

    def test_call_stats_match_scalar_loop(self, model, id_pool):
        counts = np.array([7, 3, 0, 25], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 25)
        locations = ("US", "BR")
        bulk_api = AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        loop_api = AdsManagerAPI(
            model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        bulk_api.estimate_reach_matrix(matrix, counts, locations=locations)
        for row, count in enumerate(counts):
            for k in range(1, count + 1):
                loop_api.estimate_reach(
                    TargetingSpec.for_interests(matrix[row, :k], locations=locations)
                )
        assert bulk_api.call_stats() == loop_api.call_stats()

    def test_rate_limit_without_auto_wait_raises(self, model, id_pool):
        api = AdsManagerAPI(
            model,
            platform=PlatformConfig.legacy_2017(),
            clock=SimClock(),
            auto_wait=False,
        )
        counts = np.full(10, 25, dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 25)
        with pytest.raises(RateLimitExceededError):
            api.estimate_reach_matrix(matrix, counts, locations=("US",))
        assert api.call_stats().reach_estimates == 0
        # The scalar loop aborts on its first failed acquire, having
        # recorded exactly one rate-limit event; the bulk path matches.
        assert api.call_stats().rate_limited == 1

    @pytest.mark.parametrize("locations", [(), None, ("WW",)])
    def test_worldwide_location_spellings_match_spec_path(
        self, model, id_pool, locations
    ):
        api = AdsManagerAPI(
            model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        counts = np.array([4], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 4)
        values = api.estimate_reach_matrix(matrix, counts, locations=locations)
        for k in range(4):
            spec = TargetingSpec.for_interests(matrix[0, : k + 1], locations=locations)
            assert values[0, k] == float(api.estimate_reach(spec).potential_reach)

    def test_validation_failures(self, api, id_pool):
        counts = np.array([3], dtype=np.int64)
        matrix = _ragged_matrix(id_pool, counts, 3)
        with pytest.raises(TargetingValidationError):
            api.estimate_reach_matrix(matrix, counts)  # worldwide not allowed (2017)
        with pytest.raises(TargetingValidationError):
            api.estimate_reach_matrix(matrix, np.array([5]), locations=("US",))
        duplicated = matrix.copy()
        duplicated[0, 2] = duplicated[0, 0]
        with pytest.raises(TargetingValidationError):
            api.estimate_reach_matrix(duplicated, counts, locations=("US",))
        negative = matrix.copy()
        negative[0, 1] = -7
        with pytest.raises(TargetingValidationError):
            api.estimate_reach_matrix(negative, counts, locations=("US",))
        wide = np.zeros((1, 30), dtype=np.int64)
        with pytest.raises(TargetingValidationError):
            api.estimate_reach_matrix(wide, np.array([30]), locations=("US",))


class TestPrefixChainSpecs:
    def test_chain_matches_individual_constructors(self, id_pool):
        chain = oracles.prefix_chain(id_pool[:6], locations=("US", "ES"))
        assert len(chain) == 6
        for k, spec in enumerate(chain, start=1):
            assert spec == TargetingSpec.for_interests(
                id_pool[:k], locations=("US", "ES")
            )

    def test_chain_validates_the_longest_spec(self, id_pool):
        with pytest.raises(TargetingValidationError):
            oracles.prefix_chain([id_pool[0], id_pool[0]])
        assert oracles.prefix_chain([]) == ()


class TestCollectorThreeTierParity:
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
    def test_all_tiers_bit_identical(self, stack, strategy_seed):
        simulation, fresh_api = stack
        strategy = (
            LeastPopularSelection()
            if strategy_seed is None
            else RandomSelection(seed=strategy_seed)
        )
        kwargs = dict(max_interests=8, locations=country_codes())
        api = fresh_api()
        samples = AudienceSizeCollector(api, simulation.panel, **kwargs).collect(
            strategy
        )
        for oracle in (oracles.batched_collect, oracles.scalar_collect):
            oracle_api = fresh_api()
            expected = oracle(oracle_api, simulation.panel, strategy, **kwargs)
            assert np.array_equal(samples.matrix, expected.matrix, equal_nan=True)
            assert samples.user_ids == expected.user_ids
            assert api.call_stats() == oracle_api.call_stats()

    def test_ragged_panel_with_empty_user(self, stack):
        simulation, fresh_api = stack
        catalog = simulation.catalog
        pool = [int(i) for i in catalog.interest_ids[:40]]
        users = [
            SyntheticUser(user_id=1, country="US", interest_ids=tuple(pool[:25])),
            SyntheticUser(user_id=2, country="ES", interest_ids=()),
            SyntheticUser(user_id=3, country="MX", interest_ids=tuple(pool[25:28])),
            SyntheticUser(user_id=4, country="AR", interest_ids=tuple(pool[28:29])),
        ]
        panel = FDVTPanel(users, catalog)
        kwargs = dict(max_interests=10, locations=country_codes())
        samples = AudienceSizeCollector(fresh_api(), panel, **kwargs).collect(
            LeastPopularSelection()
        )
        assert np.isnan(samples.matrix[1]).all()
        for oracle in (oracles.batched_collect, oracles.scalar_collect):
            expected = oracle(fresh_api(), panel, LeastPopularSelection(), **kwargs)
            assert np.array_equal(samples.matrix, expected.matrix, equal_nan=True)

class TestOrderedInterestMatrix:
    def test_matches_scalar_ordering_for_both_strategies(self, simulation):
        users = simulation.panel.users
        for strategy in (LeastPopularSelection(), RandomSelection(seed=3)):
            matrix, counts = ordered_interest_matrix(
                strategy, users, simulation.catalog, 6
            )
            assert matrix.shape[1] <= 6
            for row, user in enumerate(users):
                expected = strategy.order_interests(user, simulation.catalog, 6)
                assert counts[row] == len(expected)
                assert tuple(matrix[row, : counts[row]]) == expected
                assert (matrix[row, counts[row] :] == -1).all()

    def test_unknown_interest_raises(self, simulation):
        users = (
            SyntheticUser(user_id=1, country="US", interest_ids=(10**9,)),
        )
        with pytest.raises(UnknownInterestError):
            ordered_interest_matrix(
                LeastPopularSelection(), users, simulation.catalog, 5
            )

    def test_invalid_max_interests(self, simulation):
        with pytest.raises(ModelError):
            ordered_interest_matrix(
                LeastPopularSelection(), simulation.panel.users, simulation.catalog, 0
            )


class TestBatchedRiskReports:
    @pytest.fixture()
    def modern_api(self, simulation):
        return AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )

    @pytest.fixture()
    def users(self, simulation):
        candidates = sorted(simulation.panel.users, key=lambda u: u.interest_count)
        return [u for u in candidates if u.interest_count >= 5][:4]

    def test_reports_identical_to_scalar_path(self, simulation, modern_api, users):
        # Small panellists on the 2020 API, then the three largest on the
        # 2017 API (floor 20): they share interests, and the interests
        # reported at the floor tie on audience, so the id tie-break
        # decides their order.
        large = sorted(simulation.panel.users, key=lambda u: u.interest_count)[-3:]
        cases = [
            (modern_api, fresh_modern_api, users),
            (fresh_legacy_api(simulation), fresh_legacy_api, large),
        ]
        for api, fresh_api, group in cases:
            batched = FDVTExtension(api, simulation.catalog).build_risk_reports(group)
            scalar_extension = FDVTExtension(fresh_api(simulation), simulation.catalog)
            assert len(batched) == len(group)
            for user, report in zip(group, batched):
                assert report == scalar_extension.build_risk_report(user)
        assert set(large[0].interest_ids) & set(large[1].interest_ids)
        at_floor = [e for e in batched[0].entries if e.audience_size == 20]
        assert len(at_floor) >= 2

    def test_unique_interests_queried_once(self, simulation, modern_api, users):
        extension = FDVTExtension(modern_api, simulation.catalog)
        extension.build_risk_reports(users)
        unique = {i for user in users for i in user.interest_ids}
        assert modern_api.call_stats().reach_estimates == len(unique)

    def test_empty_user_rejected_before_any_query(self, simulation, modern_api):
        extension = FDVTExtension(modern_api, simulation.catalog)
        users = [
            simulation.panel.users[0],
            SyntheticUser(user_id=10**6, country="US", interest_ids=()),
        ]
        with pytest.raises(PanelError):
            extension.build_risk_reports(users)
        assert modern_api.call_stats().reach_estimates == 0

    def test_no_users_yields_no_reports(self, simulation, modern_api):
        extension = FDVTExtension(modern_api, simulation.catalog)
        assert extension.build_risk_reports([]) == ()
