"""Columnar population/panel parity suite.

Pins the contract of the columnar store: the CSR-backed
:class:`~repro.population.columnar.PanelColumns` store, the sharded
builders (:meth:`PopulationBuilder.build`, :meth:`PanelBuilder.build`) and
the array-native query/collection paths are *bit-identical* to the
per-user object oracles of ``tests/oracles.py`` — same users, same
audience counts, same collection matrices, same ``CallStats``, same
bootstrap cutpoints — for every execution backend and shard size.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import build_panel
from repro.adsapi import AdsManagerAPI
from repro.config import PanelConfig, PlatformConfig, PopulationConfig, UniquenessConfig
from repro.core import (
    AudienceAccumulator,
    AudienceSizeCollector,
    LeastPopularSelection,
    RandomSelection,
    bootstrap_cutpoints,
)
from repro.errors import PanelError, PopulationError
from repro.exec import ShardExecutor, drain
from repro.fdvt import FDVTPanel, PanelBuilder
from repro.population import (
    AGE_UNDISCLOSED,
    AgeGroup,
    Gender,
    InterestAssigner,
    PanelColumns,
    Population,
    PopulationBuilder,
    SyntheticUser,
    classify_age_codes,
)
from repro.reach import country_codes
from repro.scenarios import RunManifest, ScenarioSpec, SweepRunner
from repro.simclock import SimClock

import oracles


def _users_for_columns() -> list[SyntheticUser]:
    return [
        SyntheticUser(1, "US", Gender.MALE, 25, (3, 1, 2)),
        SyntheticUser(7, "FR", Gender.FEMALE, None, (2,)),
        SyntheticUser(4, "US", Gender.UNDISCLOSED, 70, ()),
        SyntheticUser(9, "AR", Gender.FEMALE, 13, (5, 4, 1)),
    ]


class TestPanelColumns:
    def test_round_trip_is_exact(self):
        users = _users_for_columns()
        columns = PanelColumns.from_users(users)
        assert columns.to_users() == tuple(users)
        assert len(columns) == 4
        assert columns.nnz == 7
        assert columns.interest_counts().tolist() == [3, 1, 0, 3]

    def test_user_at_materialises_single_rows(self):
        users = _users_for_columns()
        columns = PanelColumns.from_users(users)
        assert columns.user_at(1) == users[1]
        assert columns.user_at(1).age is None
        assert columns.user_at(2).interest_ids == ()

    def test_take_mask_and_indices(self):
        columns = PanelColumns.from_users(_users_for_columns())
        mask = np.array([True, False, False, True])
        picked = columns.take(mask)
        assert picked.to_users() == (columns.user_at(0), columns.user_at(3))
        reordered = columns.take(np.array([3, 0]))
        assert reordered.to_users() == (columns.user_at(3), columns.user_at(0))

    def test_validation_rejects_broken_layouts(self):
        columns = PanelColumns.from_users(_users_for_columns())
        with pytest.raises(PopulationError, match="indptr"):
            PanelColumns(
                user_ids=columns.user_ids,
                country_codes=columns.country_codes,
                country_index=columns.country_index,
                gender_index=columns.gender_index,
                ages=columns.ages,
                indptr=columns.indptr[:-1],
                interest_ids=columns.interest_ids,
            )
        with pytest.raises(PopulationError, match="unique"):
            PanelColumns(
                user_ids=np.zeros_like(columns.user_ids),
                country_codes=columns.country_codes,
                country_index=columns.country_index,
                gender_index=columns.gender_index,
                ages=columns.ages,
                indptr=columns.indptr,
                interest_ids=columns.interest_ids,
            )

    def test_classify_age_codes_matches_scalar(self):
        ages = np.array([13, 19, 20, 39, 40, 64, 65, 90, 91, AGE_UNDISCLOSED])
        codes = classify_age_codes(ages)
        assert codes.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 3, 4]
        with pytest.raises(PopulationError):
            classify_age_codes(np.array([12]))

    def test_memory_is_column_scale(self):
        columns = PanelColumns.from_users(_users_for_columns())
        # 13 bytes/user + 4 bytes/occurrence (+ int64 indptr entry).
        assert columns.nbytes == 4 * (8 + 2 + 1 + 2 + 8) + 8 + 7 * 4


@pytest.fixture(scope="module")
def population_builder(tiny_catalog) -> PopulationBuilder:
    config = PopulationConfig(
        n_agents=150,
        median_interests_per_user=25.0,
        max_interests_per_user=120,
        scale_factor=3.5,
    )
    return PopulationBuilder(tiny_catalog, config)


@pytest.fixture(scope="module")
def object_population(population_builder) -> Population:
    return oracles.reference_population(population_builder, seed=17)


@pytest.fixture(scope="module")
def columnar_population(population_builder) -> Population:
    return population_builder.build(seed=17)


class TestPopulationParity:
    def test_users_bit_identical(self, object_population, columnar_population):
        assert columnar_population.users == object_population.users

    def test_audience_queries_match(self, object_population, columnar_population):
        probe = object_population.users[0].interest_ids[:3]
        for combine in ("and", "or"):
            assert object_population.matching_user_ids(
                probe, combine=combine
            ) == columnar_population.matching_user_ids(probe, combine=combine)
            assert object_population.agent_count(
                probe, combine=combine
            ) == columnar_population.agent_count(probe, combine=combine)
        assert object_population.audience_size(probe) == columnar_population.audience_size(probe)
        assert (
            object_population.interest_audiences()
            == columnar_population.interest_audiences()
        )
        assert object_population.countries == columnar_population.countries

    def test_demographic_filters_match(self, object_population, columnar_population):
        assert object_population.matching_user_ids(
            genders=(Gender.FEMALE,), age_groups=(AgeGroup.EARLY_ADULTHOOD,)
        ) == columnar_population.matching_user_ids(
            genders=(Gender.FEMALE,), age_groups=(AgeGroup.EARLY_ADULTHOOD,)
        )
        country = object_population.users[0].country
        assert (
            object_population.by_country(country).users
            == columnar_population.by_country(country).users
        )
        assert (
            object_population.by_gender(Gender.MALE).users
            == columnar_population.by_gender(Gender.MALE).users
        )

    def test_location_filter_matches(self, object_population, columnar_population):
        country = object_population.users[3].country
        probe = object_population.users[3].interest_ids[:1]
        assert object_population.matching_user_ids(
            probe, (country,)
        ) == columnar_population.matching_user_ids(probe, (country,))
        # Unknown locations match nobody, worldwide matches everybody.
        assert columnar_population.matching_user_ids(probe, ("XX",)) == set()
        assert object_population.matching_user_ids(
            probe, ("worldwide",)
        ) == columnar_population.matching_user_ids(probe, ("worldwide",))

    def test_subset_and_get_match(self, object_population, columnar_population):
        wanted = [u.user_id for u in object_population.users[:7]]
        assert (
            object_population.subset(wanted).users
            == columnar_population.subset(wanted).users
        )
        uid = wanted[3]
        assert columnar_population.get(uid) == object_population.get(uid)
        assert uid in columnar_population
        with pytest.raises(PopulationError, match="unknown user id"):
            columnar_population.get(10**9)

    def test_columnar_queries_stay_lazy(self, population_builder):
        population = population_builder.build(seed=23)
        probe = (1, 2, 3)
        population.matching_user_ids(probe)
        population.agent_count(probe, combine="or")
        population.interest_audiences()
        population.by_gender(Gender.MALE)
        assert population._users is None  # queries never touched objects
        assert len(population.users) == 150
        assert population._users is not None

    def test_backend_and_shard_size_invariance(self, population_builder):
        reference = population_builder.build(seed=31).columns
        for backend, workers, shard_size in (
            ("serial", 1, 7),
            ("thread", 3, 64),
            ("thread", 2, 1),
        ):
            executor = ShardExecutor(
                backend=backend, workers=workers, shard_size=shard_size
            )
            produced = population_builder.build(seed=31, executor=executor).columns
            assert produced.content_equals(reference)


@pytest.fixture(scope="module")
def panel_builder(tiny_catalog) -> PanelBuilder:
    config = PanelConfig(
        n_users=90,
        n_men=60,
        n_women=24,
        n_gender_undisclosed=6,
        n_adolescents=12,
        n_early_adults=48,
        n_adults=21,
        n_matures=3,
        n_age_undisclosed=6,
        median_interests_per_user=40.0,
        max_interests_per_user=200,
        seed=13,
    )
    return PanelBuilder(tiny_catalog, config, assigner=InterestAssigner(tiny_catalog))


@pytest.fixture(scope="module")
def object_panel(panel_builder) -> FDVTPanel:
    return oracles.reference_panel(panel_builder, seed=13)


@pytest.fixture(scope="module")
def columnar_panel(panel_builder) -> FDVTPanel:
    return panel_builder.build(seed=13)


class TestPanelParity:
    def test_users_bit_identical(self, object_panel, columnar_panel):
        assert columnar_panel.users == object_panel.users

    def test_statistics_match(self, object_panel, columnar_panel):
        assert np.array_equal(
            object_panel.interests_per_user(), columnar_panel.interests_per_user()
        )
        assert np.array_equal(
            object_panel.unique_interest_ids(), columnar_panel.unique_interest_ids()
        )
        assert (
            object_panel.total_interest_occurrences()
            == columnar_panel.total_interest_occurrences()
        )
        assert object_panel.country_counts() == columnar_panel.country_counts()

    def test_demographic_subsets_match(self, object_panel, columnar_panel):
        assert (
            object_panel.by_gender(Gender.FEMALE).users
            == columnar_panel.by_gender(Gender.FEMALE).users
        )
        assert (
            object_panel.by_age_group(AgeGroup.ADOLESCENCE).users
            == columnar_panel.by_age_group(AgeGroup.ADOLESCENCE).users
        )
        country = object_panel.users[0].country
        assert (
            object_panel.by_country(country).users
            == columnar_panel.by_country(country).users
        )
        with pytest.raises(PanelError):
            columnar_panel.by_country("XX")

    def test_get_matches_without_materialising(self, panel_builder):
        panel = panel_builder.build(seed=41)
        user = panel.get(5)
        assert user.user_id == 5
        assert panel._users is None
        with pytest.raises(PanelError, match="unknown panel user id"):
            panel.get(10**9)

    def test_backend_and_shard_size_invariance(self, panel_builder, object_panel):
        reference = object_panel.users
        for backend, workers, shard_size in (("serial", 1, 11), ("thread", 4, 32)):
            executor = ShardExecutor(
                backend=backend, workers=workers, shard_size=shard_size
            )
            produced = panel_builder.build(seed=13, executor=executor)
            assert produced.users == reference


@pytest.mark.parametrize("builder_name", ["population_builder", "panel_builder"])
def test_generator_seed_builds_like_the_integer_it_draws(request, builder_name):
    builder = request.getfixturevalue(builder_name)
    drawn = int(np.random.default_rng(3).integers(0, 2**62))
    from_generator = builder.build(seed=np.random.default_rng(3)).columns
    assert from_generator.content_equals(builder.build(seed=drawn).columns)


def _stats_tuple(api: AdsManagerAPI):
    return (api.call_stats(), api.rate_limiter.available_tokens)


@pytest.fixture(scope="module")
def parity_reach_model(tiny_catalog):
    from repro.config import ReachModelConfig
    from repro.reach import StatisticalReachModel

    return StatisticalReachModel(tiny_catalog, ReachModelConfig())


class TestCollectionParity:
    """Collection matrices and CallStats against the oracles, across backends."""

    def _api(self, parity_reach_model) -> AdsManagerAPI:
        return AdsManagerAPI(
            parity_reach_model,
            platform=PlatformConfig.legacy_2017(),
            clock=SimClock(),
        )

    def _collect(self, parity_reach_model, panel, strategy, **kwargs):
        api = self._api(parity_reach_model)
        collector = AudienceSizeCollector(
            api, panel, max_interests=10, locations=country_codes()
        )
        if kwargs.get("stream"):
            samples = drain(
                collector.collect_stream(strategy), AudienceAccumulator()
            ).to_samples()
        else:
            samples = collector.collect(strategy, executor=kwargs.get("executor"))
        return samples, _stats_tuple(api)

    @pytest.mark.parametrize("strategy_name", ["least_popular", "random"])
    def test_matrices_and_call_stats_match(
        self, parity_reach_model, object_panel, columnar_panel, strategy_name
    ):
        strategy = (
            LeastPopularSelection()
            if strategy_name == "least_popular"
            else RandomSelection(seed=99)
        )
        api = self._api(parity_reach_model)
        reference = oracles.batched_collect(
            api,
            object_panel,
            strategy,
            max_interests=10,
            locations=country_codes(),
        )
        reference_stats = _stats_tuple(api)
        for panel, kwargs in (
            (object_panel, {}),
            (columnar_panel, {}),
            (columnar_panel, {"executor": ShardExecutor(shard_size=17)}),
            (
                columnar_panel,
                {"executor": ShardExecutor(backend="thread", workers=3, shard_size=31)},
            ),
            (columnar_panel, {"stream": True}),
        ):
            samples, stats = self._collect(
                parity_reach_model, panel, strategy, **kwargs
            )
            assert np.array_equal(samples.matrix, reference.matrix, equal_nan=True)
            assert samples.user_ids == reference.user_ids
            assert stats[0] == reference_stats[0]
            # Rate-limiter refill is clock-granular; tolerate float jitter.
            assert stats[1] == pytest.approx(reference_stats[1], abs=1e-3)

    @pytest.mark.parametrize("strategy_name", ["least_popular", "random"])
    def test_panel_from_user_dicts_collects_like_the_built_panel(
        self, parity_reach_model, panel_builder, strategy_name
    ):
        strategy = (
            LeastPopularSelection()
            if strategy_name == "least_popular"
            else RandomSelection(seed=99)
        )
        built = panel_builder.build(seed=13)
        rebuilt = FDVTPanel.from_dicts(built.to_dicts(), built.catalog)
        outcomes = []
        for panel in (built, rebuilt):
            api = self._api(parity_reach_model)
            samples = AudienceSizeCollector(
                api, panel, max_interests=10, locations=country_codes()
            ).collect(strategy, executor=ShardExecutor(shard_size=17))
            outcomes.append((samples, api.call_stats(), api.clock.now()))
        (expected, expected_stats, expected_clock), (got, stats, clock) = outcomes
        assert np.array_equal(got.matrix, expected.matrix, equal_nan=True)
        assert got.user_ids == expected.user_ids
        assert stats == expected_stats
        assert clock == expected_clock

    def test_collect_for_users_matches(
        self, parity_reach_model, object_panel, columnar_panel
    ):
        strategy = LeastPopularSelection()
        wanted = [u.user_id for u in object_panel.users[10:30]] + [10**9, 10]
        reference = AudienceSizeCollector(
            self._api(parity_reach_model),
            object_panel,
            max_interests=10,
            locations=country_codes(),
        ).collect_for_users(strategy, wanted)
        columnar = AudienceSizeCollector(
            self._api(parity_reach_model),
            columnar_panel,
            max_interests=10,
            locations=country_codes(),
        ).collect_for_users(strategy, wanted)
        assert np.array_equal(columnar.matrix, reference.matrix, equal_nan=True)
        assert columnar.user_ids == reference.user_ids

    def test_bootstrap_cutpoints_match(
        self, parity_reach_model, object_panel, columnar_panel
    ):
        strategy = RandomSelection(seed=5)
        reference, _ = self._collect(parity_reach_model, object_panel, strategy)
        streamed, _ = self._collect(
            parity_reach_model, columnar_panel, strategy, stream=True
        )
        expected = bootstrap_cutpoints(
            reference, (50.0, 90.0), n_bootstrap=60, seed=3
        )
        produced = bootstrap_cutpoints(
            streamed, (50.0, 90.0), n_bootstrap=60, seed=3
        )
        for q in (50.0, 90.0):
            assert np.array_equal(expected[q], produced[q], equal_nan=True)

    @pytest.mark.slow
    def test_process_backend_matches(
        self, parity_reach_model, object_panel, columnar_panel
    ):
        strategy = LeastPopularSelection()
        reference, reference_stats = self._collect(
            parity_reach_model, object_panel, strategy
        )
        executor = ShardExecutor(backend="process", workers=2, shard_size=31)
        samples, stats = self._collect(
            parity_reach_model, columnar_panel, strategy, executor=executor
        )
        assert np.array_equal(samples.matrix, reference.matrix, equal_nan=True)
        assert stats == reference_stats


@pytest.mark.slow
def test_process_backend_generation_matches(tiny_catalog):
    """Process workers rebuild the assigner from its spec — same columns."""
    from repro.config import CatalogConfig
    from repro.population import AssignerSpec

    config = PopulationConfig(
        n_agents=60, median_interests_per_user=15.0, max_interests_per_user=60
    )
    spec = AssignerSpec(
        catalog_config=CatalogConfig(n_interests=300, n_topics=6, seed=7),
        catalog_seed=7,
    )
    assigner = InterestAssigner(tiny_catalog, spec=spec)
    builder = PopulationBuilder(tiny_catalog, config, assigner=assigner)
    reference = builder.build(seed=29).columns
    executor = ShardExecutor(backend="process", workers=2, shard_size=16)
    produced = builder.build(seed=29, executor=executor).columns
    assert produced.content_equals(reference)


class TestPipelineLayout:
    def test_build_panel_layouts_bit_identical(self, simulation_factory):
        # The pipeline's columnar panel against the oracle's object panel.
        simulation = simulation_factory()
        columnar = build_panel(
            simulation.config, seed=None, catalog=simulation.catalog
        )
        objects = oracles.reference_build_panel(
            simulation.config, seed=None, catalog=simulation.catalog
        )
        assert columnar.users == objects.users


class TestSweepLayoutNote:
    """Manifests carry no panel-layout note; old manifests that do resume."""

    def _grid(self):
        return [
            ScenarioSpec(
                name="layout-note",
                study="uniqueness",
                factor=120,
                seed=5,
                probabilities=(0.9,),
                n_bootstrap=20,
            )
        ]

    def test_manifest_carries_no_layout_note(self):
        report = SweepRunner().run_report(self._grid())
        assert "panel_layout" not in report.manifest.notes

    @pytest.mark.parametrize("layout", ["columnar", "objects"])
    def test_old_layout_notes_resume(self, layout):
        report = SweepRunner().run_report(self._grid())
        old = RunManifest(
            report.manifest.completed(),
            notes={**report.manifest.notes, "panel_layout": layout},
        )
        resumed = SweepRunner().run_report(self._grid(), resume=old)
        assert all(entry.resumed for entry in resumed.manifest.completed())
        assert resumed.results == report.results
        assert "panel_layout" not in resumed.manifest.notes

    def test_legacy_manifest_without_note_resumes(self):
        report = SweepRunner().run_report(self._grid())
        legacy = RunManifest(report.manifest.completed(), notes=report.manifest.notes)
        resumed = SweepRunner().run_report(self._grid(), resume=legacy)
        assert all(entry.resumed for entry in resumed.manifest.completed())
        assert resumed.results == report.results


@pytest.mark.slow
def test_moderate_scale_columnar_end_to_end(tiny_catalog):
    """Scalable end-to-end smoke: build -> collect (sharded) -> bootstrap.

    Runs at a moderate default; set ``REPRO_SCALE_USERS=1000000`` to drive
    the full million-user acceptance (the bench script's scale stage is
    the instrumented version with the memory gates).
    """
    from repro.config import ReachModelConfig
    from repro.reach import StatisticalReachModel

    n_users = int(os.environ.get("REPRO_SCALE_USERS", "3000"))
    config = PanelConfig(
        n_users=n_users,
        n_men=n_users - 2 * (n_users // 5) - n_users // 10,
        n_women=2 * (n_users // 5),
        n_gender_undisclosed=n_users // 10,
        n_adolescents=n_users // 10,
        n_early_adults=n_users - 3 * (n_users // 10),
        n_adults=n_users // 10,
        n_matures=n_users // 10,
        n_age_undisclosed=0,
        median_interests_per_user=10.0,
        max_interests_per_user=60,
        seed=19,
    )
    panel = PanelBuilder(tiny_catalog, config).build(
        seed=19, executor=ShardExecutor(backend="thread", workers=2, shard_size=512)
    )
    assert panel._users is None and len(panel) == n_users
    api = AdsManagerAPI(
        StatisticalReachModel(tiny_catalog, ReachModelConfig()),
        platform=PlatformConfig.legacy_2017(),
        clock=SimClock(),
    )
    collector = AudienceSizeCollector(
        api, panel, max_interests=10, locations=country_codes()
    )
    store = drain(
        collector.collect_stream(
            LeastPopularSelection(), executor=ShardExecutor(shard_size=1024)
        ),
        AudienceAccumulator(),
    )
    assert store.n_users == n_users
    cutpoints = bootstrap_cutpoints(store, (50.0,), n_bootstrap=30, seed=11)
    assert np.isfinite(cutpoints[50.0]).any() or np.isnan(cutpoints[50.0]).all()
