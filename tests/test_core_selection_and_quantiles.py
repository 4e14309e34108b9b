"""Tests for interest-selection strategies and the AS/VAS quantile machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AudienceSamples,
    LeastPopularSelection,
    RandomSelection,
    nested_subsets,
    probability_to_percentile,
)
from repro.errors import InsufficientDataError, ModelError


class TestLeastPopularSelection:
    def test_orders_by_ascending_audience(self, panel, catalog):
        user = max(panel.users, key=lambda u: u.interest_count)
        ordered = LeastPopularSelection().order_interests(user, catalog, 25)
        audiences = [catalog.audience_size(i) for i in ordered]
        assert audiences == sorted(audiences)

    def test_respects_max_interests(self, panel, catalog):
        user = max(panel.users, key=lambda u: u.interest_count)
        assert len(LeastPopularSelection().order_interests(user, catalog, 10)) == 10

    def test_short_profiles_return_everything(self, panel, catalog):
        user = min(panel.users, key=lambda u: u.interest_count)
        ordered = LeastPopularSelection().order_interests(user, catalog, 25)
        assert len(ordered) == min(25, user.interest_count)

    def test_invalid_max_rejected(self, panel, catalog):
        with pytest.raises(ModelError):
            LeastPopularSelection().order_interests(panel.users[0], catalog, 0)


class TestRandomSelection:
    def test_returns_subset_of_user_interests(self, panel, catalog):
        user = max(panel.users, key=lambda u: u.interest_count)
        ordered = RandomSelection(seed=1).order_interests(user, catalog, 25)
        assert set(ordered) <= set(user.interest_ids)
        assert len(set(ordered)) == len(ordered)

    def test_deterministic_per_seed_and_user(self, panel, catalog):
        user = panel.users[0]
        first = RandomSelection(seed=5).order_interests(user, catalog, 25)
        second = RandomSelection(seed=5).order_interests(user, catalog, 25)
        assert first == second

    def test_different_seeds_give_different_orderings(self, panel, catalog):
        user = max(panel.users, key=lambda u: u.interest_count)
        first = RandomSelection(seed=1).order_interests(user, catalog, 25)
        second = RandomSelection(seed=2).order_interests(user, catalog, 25)
        assert first != second

    def test_selection_is_not_sorted_by_popularity(self, panel, catalog):
        user = max(panel.users, key=lambda u: u.interest_count)
        ordered = RandomSelection(seed=3).order_interests(user, catalog, 25)
        audiences = [catalog.audience_size(i) for i in ordered]
        assert audiences != sorted(audiences)


class TestNestedSubsets:
    def test_prefix_property(self):
        ordered = list(range(100, 122))
        subsets = nested_subsets(ordered, [5, 7, 9, 12, 18, 20, 22])
        assert set(subsets[5]) <= set(subsets[7]) <= set(subsets[12]) <= set(subsets[22])
        assert subsets[22] == tuple(ordered)

    def test_sizes_match(self):
        subsets = nested_subsets(list(range(30)), [3, 10])
        assert len(subsets[3]) == 3
        assert len(subsets[10]) == 10

    def test_oversized_request_rejected(self):
        with pytest.raises(ModelError):
            nested_subsets([1, 2, 3], [5])

    def test_duplicates_rejected(self):
        with pytest.raises(ModelError):
            nested_subsets([1, 1, 2], [2])


def _samples() -> AudienceSamples:
    matrix = np.array(
        [
            [1000.0, 400.0, 100.0, 20.0, 20.0],
            [2000.0, 300.0, 80.0, 25.0, 20.0],
            [500.0, 200.0, 60.0, 20.0, np.nan],
            [1500.0, 350.0, np.nan, np.nan, np.nan],
        ]
    )
    return AudienceSamples(matrix=matrix, floor=20, user_ids=(1, 2, 3, 4))


class TestAudienceSamples:
    def test_shape_accessors(self):
        samples = _samples()
        assert samples.n_users == 4
        assert samples.max_interests == 5

    def test_nan_rows_are_dropped_per_column(self):
        samples = _samples()
        assert samples.sample_count(1) == 4
        assert samples.sample_count(3) == 3
        assert samples.sample_count(5) == 2

    def test_quantiles_are_monotone_in_n(self):
        samples = _samples()
        vas = samples.vas(50.0)
        assert vas.shape == (5,)
        assert all(vas[i] >= vas[i + 1] for i in range(4))

    def test_vas_many_matches_individual_calls(self):
        samples = _samples()
        combined = samples.vas_many([50.0, 90.0])
        assert np.allclose(combined[0], samples.vas(50.0), equal_nan=True)
        assert np.allclose(combined[1], samples.vas(90.0), equal_nan=True)

    def test_subset_rows(self):
        samples = _samples()
        subset = samples.subset_rows([0, 2])
        assert subset.n_users == 2
        assert subset.user_ids == (1, 3)

    def test_empty_subset_rejected(self):
        with pytest.raises(InsufficientDataError):
            _samples().subset_rows([])

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ModelError):
            _samples().vas(0.0)
        with pytest.raises(ModelError):
            _samples().vas_many([50.0, 101.0])

    def test_invalid_n_rejected(self):
        with pytest.raises(ModelError):
            _samples().samples_for(0)
        with pytest.raises(ModelError):
            _samples().samples_for(6)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ModelError):
            AudienceSamples(matrix=np.zeros((0, 3)), floor=20)
        with pytest.raises(ModelError):
            AudienceSamples(matrix=np.zeros(5), floor=20)
        with pytest.raises(ModelError):
            AudienceSamples(matrix=np.ones((2, 2)), floor=0)


class TestProbabilityToPercentile:
    def test_maps_probability_to_percent(self):
        assert probability_to_percentile(0.5) == 50.0
        assert probability_to_percentile(0.95) == 95.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ModelError):
            probability_to_percentile(0.0)
        with pytest.raises(ModelError):
            probability_to_percentile(1.0)
