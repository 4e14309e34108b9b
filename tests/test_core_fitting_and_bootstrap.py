"""Tests for the log-log fit, cutpoint and bootstrap machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AudienceSamples,
    ConfidenceInterval,
    bootstrap_cutpoints,
    fit_vas,
    percentile_interval,
    truncate_at_floor,
)
from repro.core.fitting import LogLogFit
from repro.errors import InsufficientDataError, ModelError


def _synthetic_vas(slope_a: float, intercept_b: float, n: int = 25) -> np.ndarray:
    n_values = np.arange(1, n + 1, dtype=float)
    return 10.0 ** (intercept_b - slope_a * np.log10(n_values + 1.0))


class TestTruncateAtFloor:
    def test_keeps_first_floored_value(self):
        vas = np.array([1000.0, 100.0, 20.0, 20.0, 20.0])
        truncated = truncate_at_floor(vas, floor=20)
        assert list(truncated) == [1000.0, 100.0, 20.0]

    def test_no_floor_keeps_everything(self):
        vas = np.array([1000.0, 100.0, 50.0])
        assert list(truncate_at_floor(vas, floor=20)) == [1000.0, 100.0, 50.0]

    def test_nan_tail_is_trimmed(self):
        vas = np.array([1000.0, 100.0, np.nan, np.nan])
        assert list(truncate_at_floor(vas, floor=20)) == [1000.0, 100.0]


class TestLogLogFit:
    def test_recovers_exact_synthetic_parameters(self):
        vas = _synthetic_vas(slope_a=7.0, intercept_b=7.7)
        fit = fit_vas(vas, floor=1)
        assert fit.slope_a == pytest.approx(7.0, rel=1e-6)
        assert fit.intercept_b == pytest.approx(7.7, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_cutpoint_formula(self):
        fit = LogLogFit(slope_a=7.0, intercept_b=7.7, r_squared=1.0, n_points=20)
        assert fit.cutpoint == pytest.approx(10 ** (7.7 / 7.0) - 1.0)

    def test_paper_like_random_selection_cutpoint(self):
        """A curve shaped like the paper's VAS(50) for random selection."""
        vas = _synthetic_vas(slope_a=7.09, intercept_b=7.75)
        fit = fit_vas(np.maximum(vas, 20.0), floor=20)
        assert 10.0 < fit.cutpoint < 13.5

    def test_cutpoint_increases_with_intercept(self):
        low = fit_vas(_synthetic_vas(5.0, 5.0), floor=1).cutpoint
        high = fit_vas(_synthetic_vas(5.0, 6.0), floor=1).cutpoint
        assert high > low

    def test_predict_matches_input_curve(self):
        vas = _synthetic_vas(4.0, 6.0)
        fit = fit_vas(vas, floor=1)
        assert fit.predict(10) == pytest.approx(vas[9], rel=1e-6)
        predictions = fit.predict_many(np.array([1.0, 5.0, 10.0]))
        assert predictions.shape == (3,)

    def test_floor_truncation_is_conservative_but_close(self):
        vas = np.maximum(_synthetic_vas(7.0, 7.7), 20.0)
        fit_floored = fit_vas(vas, floor=20)
        fit_exact = fit_vas(_synthetic_vas(7.0, 7.7), floor=1)
        assert fit_floored.cutpoint == pytest.approx(fit_exact.cutpoint, rel=0.2)

    def test_robust_to_floor_of_1000(self):
        """The paper claims the method still works with the 1,000-user floor."""
        exact = _synthetic_vas(7.09, 7.75)
        fit_20 = fit_vas(np.maximum(exact, 20.0), floor=20)
        fit_1000 = fit_vas(np.maximum(exact, 1000.0), floor=1000)
        assert fit_1000.cutpoint == pytest.approx(fit_20.cutpoint, rel=0.25)

    def test_noisy_curve_has_r_squared_below_one(self):
        rng = np.random.default_rng(1)
        vas = _synthetic_vas(6.0, 7.0) * 10 ** rng.normal(0, 0.15, size=25)
        fit = fit_vas(np.maximum(vas, 20.0), floor=20)
        assert 0.5 < fit.r_squared < 1.0

    def test_too_few_points_raise(self):
        with pytest.raises(InsufficientDataError):
            fit_vas(np.array([15.0]), floor=20)

    def test_non_positive_values_rejected(self):
        with pytest.raises(ModelError):
            fit_vas(np.array([100.0, 0.0, 10.0]), floor=1)

    def test_invalid_floor_rejected(self):
        with pytest.raises(ModelError):
            fit_vas(_synthetic_vas(5, 6), floor=0)

    def test_negative_prediction_input_rejected(self):
        fit = fit_vas(_synthetic_vas(5.0, 6.0), floor=1)
        with pytest.raises(ModelError):
            fit.predict(-1)

    def test_fit_requires_two_points_at_construction(self):
        with pytest.raises(ModelError):
            LogLogFit(slope_a=1.0, intercept_b=1.0, r_squared=1.0, n_points=1)


class TestConfidenceIntervals:
    def test_percentile_interval_contains_centre(self):
        values = np.random.default_rng(0).normal(10.0, 1.0, size=2_000)
        interval = percentile_interval(values, level=0.95)
        assert interval.contains(10.0)
        assert interval.width < 5.0

    def test_interval_width_grows_with_level(self):
        values = np.random.default_rng(1).normal(0.0, 1.0, size=2_000)
        narrow = percentile_interval(values, level=0.5)
        wide = percentile_interval(values, level=0.99)
        assert wide.width > narrow.width

    def test_nan_values_are_ignored(self):
        values = [1.0, 2.0, float("nan"), 3.0]
        interval = percentile_interval(values, level=0.9)
        assert 1.0 <= interval.low <= interval.high <= 3.0

    def test_all_nan_rejected(self):
        with pytest.raises(ModelError):
            percentile_interval([float("nan")], level=0.9)

    def test_invalid_level_rejected(self):
        with pytest.raises(ModelError):
            ConfidenceInterval(low=0.0, high=1.0, level=1.5)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ModelError):
            ConfidenceInterval(low=2.0, high=1.0, level=0.95)


class TestBootstrapCutpoints:
    @pytest.fixture()
    def samples(self) -> AudienceSamples:
        rng = np.random.default_rng(7)
        n_users, max_n = 150, 25
        base = _synthetic_vas(7.0, 7.7, max_n)
        matrix = base[None, :] * 10 ** rng.normal(0.0, 0.4, size=(n_users, max_n))
        matrix = np.maximum(matrix, 20.0)
        return AudienceSamples(matrix=matrix, floor=20)

    def test_distribution_centres_near_point_estimate(self, samples):
        point = fit_vas(samples.vas(50.0), samples.floor).cutpoint
        distributions = bootstrap_cutpoints(
            samples, [50.0], n_bootstrap=200, seed=1
        )
        interval = percentile_interval(distributions[50.0], level=0.95)
        assert interval.contains(point)

    def test_multiple_quantiles_returned(self, samples):
        distributions = bootstrap_cutpoints(
            samples, [50.0, 90.0], n_bootstrap=50, seed=2
        )
        assert set(distributions) == {50.0, 90.0}
        assert distributions[50.0].shape == (50,)

    def test_higher_quantile_gives_higher_cutpoint(self, samples):
        distributions = bootstrap_cutpoints(
            samples, [50.0, 90.0], n_bootstrap=100, seed=3
        )
        assert np.nanmedian(distributions[90.0]) > np.nanmedian(distributions[50.0])

    def test_zero_bootstrap_rejected(self, samples):
        with pytest.raises(ModelError):
            bootstrap_cutpoints(samples, [50.0], n_bootstrap=0, seed=1)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_non_positive_chunk_size_rejected(self, samples, chunk_size):
        with pytest.raises(ModelError, match="chunk_size must be >= 1"):
            bootstrap_cutpoints(
                samples, [50.0], n_bootstrap=10, seed=1, chunk_size=chunk_size
            )

    @pytest.mark.parametrize("q_percent", [0.0, 100.0, -5.0, 150.0])
    def test_out_of_range_quantile_rejected(self, samples, q_percent):
        with pytest.raises(ModelError, match=r"within \(0, 100\)"):
            bootstrap_cutpoints(samples, [50.0, q_percent], n_bootstrap=10, seed=1)

    def test_no_quantile_rejected(self, samples):
        with pytest.raises(ModelError, match="at least one quantile"):
            bootstrap_cutpoints(samples, [], n_bootstrap=3, seed=1)

    def test_deterministic_given_seed(self, samples):
        first = bootstrap_cutpoints(samples, [50.0], n_bootstrap=30, seed=9)
        second = bootstrap_cutpoints(samples, [50.0], n_bootstrap=30, seed=9)
        assert np.allclose(first[50.0], second[50.0], equal_nan=True)
