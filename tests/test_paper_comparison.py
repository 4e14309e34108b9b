"""Tests for the paper reference data and the comparison helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import compare_table1, compare_table2
from repro.core import fit_vas
from repro.core.bootstrap import ConfidenceInterval
from repro.core.results import NPEstimate, UniquenessReport
from repro.errors import ModelError
from repro.paperdata import (
    PAPER_DEMOGRAPHICS_N09,
    PAPER_INTEREST_AUDIENCE_PERCENTILES,
    PAPER_INTERESTS_PER_USER,
    PAPER_TABLE1,
    PAPER_TABLE1_CI,
    PAPER_TABLE2_SUMMARY,
    ReferenceCheck,
)


def _report_from_cutpoints(cutpoints: dict[float, float]) -> UniquenessReport:
    estimates = {}
    for probability, cutpoint in cutpoints.items():
        slope = 6.0
        intercept = slope * np.log10(cutpoint + 1.0)
        vas = 10 ** (intercept - slope * np.log10(np.arange(1, 26) + 1.0))
        fit = fit_vas(np.maximum(vas, 1.0), floor=1)
        estimates[probability] = NPEstimate(
            probability=probability,
            n_p=fit.cutpoint,
            confidence_interval=ConfidenceInterval(
                low=fit.cutpoint * 0.95, high=fit.cutpoint * 1.05, level=0.95
            ),
            r_squared=fit.r_squared,
            fit=fit,
        )
    return UniquenessReport(
        strategy_name="synthetic",
        estimates=estimates,
        vas_curves={p: np.array([]) for p in cutpoints},
        n_users=100,
        floor=20,
    )


class TestPaperData:
    def test_table1_values_are_consistent_with_their_cis(self):
        for strategy, values in PAPER_TABLE1.items():
            for probability, value in values.items():
                low, high = PAPER_TABLE1_CI[strategy][probability]
                assert low <= value <= high

    def test_table1_is_monotone_in_probability(self):
        for values in PAPER_TABLE1.values():
            ordered = [values[p] for p in sorted(values)]
            assert ordered == sorted(ordered)

    def test_lp_always_below_random(self):
        for probability in PAPER_TABLE1["least_popular"]:
            assert (
                PAPER_TABLE1["least_popular"][probability]
                < PAPER_TABLE1["random"][probability]
            )

    def test_table2_success_breakdown_sums(self):
        summary = PAPER_TABLE2_SUMMARY
        assert sum(summary["successes_by_interests"].values()) == summary[
            "successful_campaigns"
        ]
        assert summary["n_campaigns"] == summary["n_targets"] * len(
            summary["interest_counts"]
        )

    def test_figure_reference_values(self):
        assert PAPER_INTERESTS_PER_USER["median"] == 426
        assert PAPER_INTEREST_AUDIENCE_PERCENTILES[50] == 418_530
        assert PAPER_DEMOGRAPHICS_N09["country"]["AR"][1] > (
            PAPER_DEMOGRAPHICS_N09["country"]["FR"][1]
        )

    def test_reference_check_ratio_and_tolerance(self):
        check = ReferenceCheck("x", paper_value=10.0, measured_value=20.0, tolerance_ratio=3.0)
        assert check.ratio == pytest.approx(2.0)
        assert check.within_tolerance
        assert "ratio=2.00" in check.describe()
        tight = ReferenceCheck("x", paper_value=10.0, measured_value=40.0, tolerance_ratio=3.0)
        assert not tight.within_tolerance


class TestCompareTable1:
    def test_paper_like_reports_pass_all_shape_checks(self):
        reports = {
            "least_popular": _report_from_cutpoints(PAPER_TABLE1["least_popular"]),
            "random": _report_from_cutpoints(PAPER_TABLE1["random"]),
        }
        comparison = compare_table1(reports)
        assert comparison.shape_holds
        assert all(check.within_tolerance for check in comparison.checks)
        assert len(comparison.summary_lines()) == len(comparison.checks)

    def test_inverted_strategies_are_flagged(self):
        reports = {
            "least_popular": _report_from_cutpoints(PAPER_TABLE1["random"]),
            "random": _report_from_cutpoints(PAPER_TABLE1["least_popular"]),
        }
        comparison = compare_table1(reports)
        assert not comparison.shape_holds
        assert any("least-popular" in finding for finding in comparison.shape_findings)

    def test_missing_strategy_rejected(self):
        reports = {"random": _report_from_cutpoints(PAPER_TABLE1["random"])}
        with pytest.raises(ModelError):
            compare_table1(reports)

    def test_on_simulated_reports(self, simulation):
        from repro.adsapi import AdsManagerAPI
        from repro.config import PlatformConfig, UniquenessConfig
        from repro.core import UniquenessModel
        from repro.reach import country_codes
        from repro.simclock import SimClock

        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        model = UniquenessModel(
            api, simulation.panel, UniquenessConfig(n_bootstrap=20, seed=6),
            locations=country_codes(),
        )
        lp, rnd = simulation.strategies()
        reports = {
            "least_popular": model.estimate(lp, probabilities=[0.5, 0.9]),
            "random": model.estimate(rnd, probabilities=[0.5, 0.9]),
        }
        comparison = compare_table1(reports)
        # The key orderings of the paper must hold on the simulated stack.
        assert not any(
            "needs as many interests" in finding for finding in comparison.shape_findings
        )


class TestCompareTable2:
    def test_on_simulated_experiment(self, simulation):
        experiment = simulation.nanotargeting_experiment(seed=3)
        report = experiment.run(candidates=simulation.panel)
        comparison = compare_table2(report)
        names = {check.name for check in comparison.checks}
        assert "successful campaigns" in names
        assert not any(
            "5-interest" in finding for finding in comparison.shape_findings
        )
        assert not any(
            "high-interest" in finding for finding in comparison.shape_findings
        )
