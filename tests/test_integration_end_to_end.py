"""End-to-end integration tests across subsystems.

These tests reproduce, at reduced scale, the qualitative results of the
paper: the ordering of Table 1, the shape of Table 2, the consistency of the
analytic reach model with exact counting, and the Section 6 defence loop (removing risky interests
makes the user harder to nanotarget).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_simulation, quick_config
from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.config import PlatformConfig, UniquenessConfig
from repro.core import LeastPopularSelection, RandomSelection, UniquenessModel
from repro.reach import country_codes
from repro.simclock import SimClock

import oracles


class TestUniquenessToNanotargetingConsistency:
    """The Section 4 model predictions must be consistent with Section 5 outcomes."""

    @pytest.fixture(scope="class")
    def stack(self):
        simulation = build_simulation(quick_config(factor=50))
        model = UniquenessModel(
            simulation.uniqueness_api,
            simulation.panel,
            UniquenessConfig(n_bootstrap=40, seed=7),
            locations=country_codes(),
        )
        experiment = simulation.nanotargeting_experiment(seed=7)
        report = experiment.run(candidates=simulation.panel)
        return simulation, model, report

    def test_table1_ordering(self, stack):
        _, model, _ = stack
        lp = model.estimate(LeastPopularSelection(), probabilities=[0.5, 0.9])
        rnd = model.estimate(RandomSelection(seed=7), probabilities=[0.5, 0.9])
        # LP needs far fewer interests than random, and both grow with P.
        assert lp.estimate_for(0.9).n_p < rnd.estimate_for(0.9).n_p
        assert lp.estimate_for(0.5).n_p < lp.estimate_for(0.9).n_p
        assert rnd.estimate_for(0.5).n_p < rnd.estimate_for(0.9).n_p

    def test_table2_success_concentrates_in_high_interest_campaigns(self, stack):
        _, _, report = stack
        successes_high = sum(
            1 for r in report.successful_records if r.n_interests >= 18
        )
        successes_low = sum(
            1 for r in report.successful_records if r.n_interests <= 9
        )
        assert successes_high >= 4
        # At the reduced test scale a rare low-interest success can happen;
        # the bulk of successes must still sit in the 18+ interest campaigns.
        assert successes_low <= 2
        assert successes_high > successes_low

    def test_more_interests_means_smaller_audiences(self, stack):
        _, _, report = stack
        by_count: dict[int, list[float]] = {}
        for record in report.records:
            by_count.setdefault(record.n_interests, []).append(
                record.outcome.raw_audience
            )
        means = {n: float(np.mean(values)) for n, values in by_count.items()}
        assert means[5] > means[12] > means[22]

    def test_nanotargeting_is_cheap(self, stack):
        _, _, report = stack
        assert report.successful_cost_eur() < 1.0


class TestBackendConsistency:
    """The analytic model and exact counting over agents share their semantics."""

    @pytest.fixture(scope="class")
    def backends(self, simulation):
        agents = oracles.reference_population(
            simulation.catalog,
            n_agents=400,
            median_interests=60.0,
            max_interests=300,
            seed=3,
        )
        scale = simulation.reach_model.world_size() / 400
        return simulation.reach_model, oracles.ExactCountBackend(agents, scale)

    def test_world_sizes_match_by_construction(self, backends):
        analytic, agents = backends
        assert agents.world_size() == pytest.approx(analytic.world_size(), rel=1e-6)

    def test_both_backends_shrink_with_more_interests(self, backends, panel):
        analytic, agents = backends
        user = max(panel.users, key=lambda u: u.interest_count)
        for backend in (analytic, agents):
            single = backend.audience_for(user.interest_ids[:1])
            double = backend.audience_for(user.interest_ids[:2])
            assert double <= single

    def test_popular_interests_have_large_audiences_in_both(self, backends, catalog):
        analytic, agents = backends
        popular = catalog.most_popular(1)[0].interest_id
        rare = catalog.rarest(1)[0].interest_id
        assert analytic.audience_for([popular]) > analytic.audience_for([rare])
        assert agents.audience_for([popular]) >= agents.audience_for([rare])

    def test_ads_api_works_with_either_backend(self, backends, catalog):
        _, agents = backends

        def fresh_api():
            return AdsManagerAPI(
                agents, platform=PlatformConfig.modern_2020(), clock=SimClock()
            )

        api = fresh_api()
        popular = catalog.most_popular(1)[0].interest_id
        estimate = api.estimate_reach(TargetingSpec.for_interests([popular]))
        assert estimate.potential_reach >= api.platform.reach_floor

        # The agent backend has no vectorised kernel: the bulk and batch
        # endpoints run on the oracle's per-cell prefix_audiences_panel loop.
        interests = max(
            agents.columns.to_users(), key=lambda u: u.interest_count
        ).interest_ids
        rows = [interests[:6], (), interests[6:8], interests[8:13]]
        ids = np.full((len(rows), 6), -1, dtype=np.int64)
        for index, row in enumerate(rows):
            ids[index, : len(row)] = row
        cell_api, matrix_api = fresh_api(), fresh_api()
        matrix = matrix_api.estimate_reach_matrix(ids, [len(row) for row in rows])
        for index, row in enumerate(rows):
            cells = [
                cell_api.estimate_reach(TargetingSpec.for_interests(row[:k])).potential_reach
                for k in range(1, len(row) + 1)
            ]
            assert matrix[index, : len(row)].tolist() == cells
        assert matrix_api.call_stats() == cell_api.call_stats()

        chain = oracles.prefix_chain(interests[:10])
        cell_api, batch_api = fresh_api(), fresh_api()
        batched = batch_api.estimate_reach_batch(chain)
        assert list(batched) == [cell_api.estimate_reach(spec) for spec in chain]
        assert batch_api.call_stats() == cell_api.call_stats()
        assert len({e.potential_reach for e in batched}) > 1


class TestFDVTDefenceLoop:
    """Section 6: removing risky interests makes the user harder to single out."""

    def test_removing_risky_interests_grows_the_rarest_audience(self, simulation):
        extension = simulation.fdvt_extension()
        user = max(simulation.panel.users, key=lambda u: u.interest_count)
        # Work on a trimmed copy of the user to keep API traffic manageable.
        trimmed = type(user)(
            user_id=user.user_id,
            country=user.country,
            gender=user.gender,
            age=user.age,
            interest_ids=user.interest_ids[:40],
        )
        report = extension.build_risk_report(trimmed)
        protected_user, protected_report = extension.remove_risky_interests(
            trimmed, report
        )
        if not report.entries_at_risk():
            pytest.skip("no red interests in this synthetic profile")
        original_rarest = report.entries[0].audience_size
        remaining = protected_report.active_entries
        assert remaining, "removal should not empty the profile"
        assert remaining[0].audience_size >= original_rarest
        assert protected_user.interest_count < trimmed.interest_count

    def test_risk_report_is_consistent_with_catalog_popularity(self, simulation):
        extension = simulation.fdvt_extension()
        user = min(
            (u for u in simulation.panel.users if u.interest_count >= 10),
            key=lambda u: u.interest_count,
        )
        report = extension.build_risk_report(user)
        catalog_sizes = np.array(
            [simulation.catalog.audience_size(e.interest_id) for e in report.entries],
            dtype=float,
        )
        # The report is sorted by the API-reported audience, which carries the
        # reach model's (bounded) jitter; the catalog popularity must still be
        # strongly aligned with that order.
        ranks = np.arange(catalog_sizes.size)
        correlation = np.corrcoef(ranks, np.log10(catalog_sizes))[0, 1]
        assert correlation > 0.9
        assert catalog_sizes[0] <= catalog_sizes[-1]
