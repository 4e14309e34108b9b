"""Tests for synthetic users: demographics, interest counts and assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import InterestCatalog
from repro.config import CatalogConfig
from repro.errors import PopulationError
from repro.population import (
    AgeGroup,
    Gender,
    InterestAssigner,
    InterestCountModel,
    SyntheticUser,
    classify_age,
    sample_age,
)


@pytest.fixture(scope="module")
def small_catalog():
    return InterestCatalog.generate(CatalogConfig(n_interests=400, n_topics=8, seed=9))


class TestDemographics:
    def test_classify_age_boundaries(self):
        assert classify_age(13) is AgeGroup.ADOLESCENCE
        assert classify_age(19) is AgeGroup.ADOLESCENCE
        assert classify_age(20) is AgeGroup.EARLY_ADULTHOOD
        assert classify_age(39) is AgeGroup.EARLY_ADULTHOOD
        assert classify_age(40) is AgeGroup.ADULTHOOD
        assert classify_age(64) is AgeGroup.ADULTHOOD
        assert classify_age(65) is AgeGroup.MATURITY
        assert classify_age(None) is AgeGroup.UNDISCLOSED

    def test_classify_age_rejects_children(self):
        with pytest.raises(PopulationError):
            classify_age(10)

    def test_sample_age_within_group_bounds(self):
        for group in (AgeGroup.ADOLESCENCE, AgeGroup.EARLY_ADULTHOOD, AgeGroup.ADULTHOOD):
            age = sample_age(group, seed=1)
            assert classify_age(age) is group

    def test_sample_age_undisclosed_is_none(self):
        assert sample_age(AgeGroup.UNDISCLOSED, seed=1) is None


class TestSyntheticUser:
    def test_age_group_property(self):
        user = SyntheticUser(1, "ES", Gender.MALE, 25, (1, 2, 3))
        assert user.age_group is AgeGroup.EARLY_ADULTHOOD

    def test_interest_helpers(self):
        user = SyntheticUser(1, "ES", interest_ids=(1, 2, 3))
        assert user.interest_count == 3
        assert user.has_interest(2)
        assert user.matches_all([1, 3])
        assert not user.matches_all([1, 9])
        assert user.matches_any([9, 3])
        assert not user.matches_any([7, 8])

    def test_without_interest(self):
        user = SyntheticUser(1, "ES", interest_ids=(1, 2, 3))
        trimmed = user.without_interest(2)
        assert trimmed.interest_ids == (1, 3)
        assert user.without_interest(99) is user

    def test_duplicate_interests_rejected(self):
        with pytest.raises(PopulationError):
            SyntheticUser(1, "ES", interest_ids=(1, 1))

    def test_underage_rejected(self):
        with pytest.raises(PopulationError):
            SyntheticUser(1, "ES", age=10)

    def test_round_trip_serialisation(self):
        user = SyntheticUser(4, "FR", Gender.FEMALE, 33, (5, 9, 2))
        assert SyntheticUser.from_dict(user.to_dict()) == user


class TestInterestCountModel:
    def test_bounds_respected(self):
        model = InterestCountModel(median=100, minimum=1, maximum=500)
        counts = model.sample(2_000, seed=1)
        assert counts.min() >= 1
        assert counts.max() <= 500

    def test_median_close_to_configuration(self):
        model = InterestCountModel(median=426, minimum=1, maximum=8950)
        counts = model.sample(5_000, seed=2)
        assert 250 < np.median(counts) < 700

    def test_clipped_to_catalog(self):
        model = InterestCountModel(median=426, maximum=8950)
        clipped = model.clipped_to_catalog(100)
        assert clipped.maximum == 100
        assert clipped.median <= 50


def assign_one(assigner, n, seed, *, preferred=(0, 1, 2), bias=0.5):
    """One ``assign_rows`` row on ``default_rng(seed)``; returns its ids."""
    flat, counts = assigner.assign_rows(
        np.array([n]),
        [np.random.default_rng(seed)],
        preferred_topics=[np.array(preferred, dtype=np.int64)],
        popularity_biases=[bias],
    )
    assert counts.tolist() == [flat.size]
    return flat


class TestInterestAssigner:
    def test_assigns_requested_number_of_unique_interests(self, small_catalog):
        interests = assign_one(InterestAssigner(small_catalog), 50, 1)
        assert len(interests) == 50
        assert len(set(interests.tolist())) == 50

    def test_never_exceeds_catalog_size(self, small_catalog):
        interests = assign_one(InterestAssigner(small_catalog), 10_000, 1)
        assert len(interests) == len(small_catalog)
        assert set(interests.tolist()) == set(small_catalog.ids.tolist())

    def test_zero_interests(self, small_catalog):
        assert assign_one(InterestAssigner(small_catalog), 0, 1).size == 0

    def test_deterministic_given_seed(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        np.testing.assert_array_equal(
            assign_one(assigner, 30, 9), assign_one(assigner, 30, 9)
        )

    def test_preferred_topics_are_overrepresented(self, small_catalog):
        assigner = InterestAssigner(small_catalog, topic_affinity_boost=12.0)
        interests = assign_one(assigner, 80, 3, preferred=(0,))
        preferred = assigner.topics[0]
        topics = [small_catalog.get(i).topic for i in interests.tolist()]
        share = topics.count(preferred) / len(topics)
        baseline = len(small_catalog.by_topic(preferred)) / len(small_catalog)
        assert share > baseline * 2

    def test_popularity_bias_shifts_audience_profile(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        flat = assign_one(assigner, 60, 4, bias=0.0)
        steep = assign_one(assigner, 60, 4, bias=1.2)
        flat_median = np.median(small_catalog.audience_sizes(flat.tolist()))
        steep_median = np.median(small_catalog.audience_sizes(steep.tolist()))
        assert steep_median >= flat_median

    def test_unknown_preferred_topic_rejected(self, small_catalog):
        assigner = InterestAssigner(small_catalog)
        with pytest.raises(PopulationError, match="unknown preferred topic"):
            assign_one(assigner, 10, 1, preferred=(len(assigner.topics),))

    def test_invalid_boost_rejected(self, small_catalog):
        with pytest.raises(PopulationError):
            InterestAssigner(small_catalog, topic_affinity_boost=0.5)
