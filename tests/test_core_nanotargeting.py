"""Tests for the nanotargeting experiment (Section 5 / Table 2)."""

from __future__ import annotations

from dataclasses import replace

import pytest

import oracles
from _builders import build_cached_simulation, fresh_modern_api
from repro import quick_config
from repro.adsapi import AdsManagerAPI
from repro.config import ExperimentConfig, PlatformConfig
from repro.core import NanotargetingExperiment, SuccessValidation
from repro.delivery import ClickLog, DeliveryEngine
from repro.errors import ModelError
from repro.fdvt import FDVTPanel
from repro.population import PanelColumns
from repro.simclock import SimClock


def _refuse_to_users(self):
    raise AssertionError("the whole panel was decoded into user objects")


@pytest.fixture(scope="module")
def experiment_report(simulation):
    """One full experiment run shared by the assertions below."""
    api = AdsManagerAPI(
        simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
    )
    engine = DeliveryEngine(simulation.catalog, seed=13)
    experiment = NanotargetingExperiment(
        api, engine, ExperimentConfig(seed=77), click_log=ClickLog(), seed=77
    )
    report = experiment.run(candidates=simulation.panel)
    return api, experiment, report


class TestExperimentPlanning:
    def test_selects_three_targets_with_enough_interests(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        targets = experiment.select_targets(simulation.panel)
        assert len(targets) == 3
        assert all(user.interest_count >= 22 for user in targets)

    def test_select_targets_fails_without_candidates(self, simulation, monkeypatch):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        # Two eligible panellists and four cut below 22 interests are too
        # few for three targets; the error matches the user-list rule's.
        eligible = [u for u in simulation.panel.users if u.interest_count >= 22]
        short = [replace(u, interest_ids=u.interest_ids[:21]) for u in eligible[2:6]]
        candidates = eligible[:2] + short
        with pytest.raises(ModelError) as expected:
            oracles.select_targets_reference(experiment, candidates)
        monkeypatch.setattr(PanelColumns, "to_users", _refuse_to_users)
        with pytest.raises(ModelError, match="only 2 candidates") as raised:
            experiment.select_targets(simulation.panel.subset(candidates))
        assert str(raised.value) == str(expected.value)

    def test_interest_sets_are_nested(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        target = max(simulation.panel.users, key=lambda u: u.interest_count)
        sets = experiment.plan_interest_sets(target)
        assert set(sets) == {5, 7, 9, 12, 18, 20, 22}
        assert set(sets[5]) <= set(sets[12]) <= set(sets[22])
        assert set(sets[22]) <= set(target.interest_ids)

    def test_campaign_objects_follow_the_paper_setup(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        target = max(simulation.panel.users, key=lambda u: u.interest_count)
        campaign = experiment.build_campaign(target, "User 1", target.interest_ids[:12])
        assert campaign.spec.is_worldwide
        assert campaign.interest_count == 12
        assert campaign.schedule.total_active_hours == pytest.approx(33.0)
        assert campaign.daily_budget_eur == pytest.approx(10.0)

    def test_run_requires_targets_or_candidates(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        engine = DeliveryEngine(simulation.catalog, seed=1)
        experiment = NanotargetingExperiment(api, engine, ExperimentConfig(seed=3))
        with pytest.raises(ModelError):
            experiment.run()


class TestSelectTargetsMatchesOracle:
    """The panel rule picks exactly the users the user-list rule picked,
    decoding only the chosen rows."""

    @pytest.mark.parametrize("factor, seed", [(50, 1), (80, 7), (20, 3)])
    def test_same_targets_as_user_list_rule(self, factor, seed, monkeypatch):
        simulation = build_cached_simulation(quick_config(factor=factor), seed=seed)
        users = simulation.panel.users
        # Two panellists in three cut below 22 interests, so the eligible
        # rows are not the panel's rows.
        thinned = FDVTPanel(
            [
                replace(user, interest_ids=user.interest_ids[:10]) if row % 3 else user
                for row, user in enumerate(users)
            ],
            simulation.catalog,
        )
        cases = []
        for panel in (simulation.panel, thinned):
            for experiment_seed in (3, 77):
                experiment = NanotargetingExperiment(
                    fresh_modern_api(simulation),
                    DeliveryEngine(simulation.catalog, seed=1),
                    ExperimentConfig(seed=experiment_seed),
                )
                expected = oracles.select_targets_reference(experiment, panel.users)
                # A fresh view with no decoded users behind it.
                view = FDVTPanel.from_columns(panel.columns, simulation.catalog)
                cases.append((experiment, view, expected))
        monkeypatch.setattr(PanelColumns, "to_users", _refuse_to_users)
        for experiment, view, expected in cases:
            assert experiment.select_targets(view) == expected


class TestExperimentResults:
    def test_21_campaigns_are_run(self, experiment_report):
        _, _, report = experiment_report
        assert report.n_campaigns == 21

    def test_success_requires_all_three_conditions(self):
        assert SuccessValidation(True, True, True).nanotargeted
        assert not SuccessValidation(False, True, True).nanotargeted
        assert not SuccessValidation(True, False, True).nanotargeted
        assert not SuccessValidation(True, True, False).nanotargeted

    def test_high_interest_campaigns_succeed_more_often(self, experiment_report):
        _, _, report = experiment_report
        rates = report.success_rate_by_interests()
        low = (rates[5] + rates[7]) / 2
        high = (rates[20] + rates[22]) / 2
        assert high > low
        assert high >= 0.5

    def test_five_interest_campaigns_never_nanotarget(self, experiment_report):
        _, _, report = experiment_report
        assert report.success_rate_by_interests()[5] == 0.0

    def test_successful_campaigns_reach_exactly_one_user(self, experiment_report):
        _, _, report = experiment_report
        for record in report.successful_records:
            assert record.outcome.metrics.reached == 1
            assert record.outcome.metrics.seen

    def test_successful_campaigns_are_cheap(self, experiment_report):
        _, _, report = experiment_report
        assert report.successful_cost_eur() <= 1.0
        assert report.total_cost_eur() >= report.successful_cost_eur()

    def test_reactive_account_suspension_happens_after_the_experiment(
        self, experiment_report
    ):
        api, _, report = experiment_report
        if report.success_count > 0:
            assert report.account_suspended
            assert not api.account.is_active
            # The suspension is reactive: it happens after the campaigns end.
            assert api.account.suspended_at_hours > 136.0

    def test_table_rows_have_the_paper_columns(self, experiment_report):
        _, _, report = experiment_report
        rows = report.table_rows()
        assert len(rows) == 21
        expected_keys = {
            "target", "interests", "seen", "reached", "impressions",
            "tfi", "cost", "clicks", "unique_click_ips", "nanotargeted",
        }
        assert expected_keys <= set(rows[0])

    def test_records_for_target_groups_seven_campaigns(self, experiment_report):
        _, _, report = experiment_report
        assert len(report.records_for_target("User 1")) == 7

    def test_click_log_only_has_target_clicks_for_successes(self, experiment_report):
        _, experiment, report = experiment_report
        for record in report.successful_records:
            entries = experiment.click_log.entries_for(record.campaign.campaign_id)
            assert entries
            assert all(entry.is_target for entry in entries)
