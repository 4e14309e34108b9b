"""Property-based tests on the reach model and exact-counting semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, ReachModelConfig
from repro.population import PanelColumns, SyntheticUser
from repro.reach import StatisticalReachModel

import oracles

SETTINGS = settings(max_examples=40, deadline=None)

_CATALOG = InterestCatalog.generate(CatalogConfig(n_interests=120, n_topics=6, seed=31))
_MODEL = StatisticalReachModel(_CATALOG, ReachModelConfig(seed=31))
_IDS = [int(i) for i in _CATALOG.interest_ids]


def _subset(indices: list[int]) -> list[int]:
    return sorted({_IDS[i % len(_IDS)] for i in indices})


class TestReachModelProperties:
    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12))
    def test_audience_is_positive_and_bounded_by_world(self, indices):
        interests = _subset(indices)
        audience = _MODEL.audience_for(interests)
        assert 0.0 <= audience <= _MODEL.world_size()

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=12))
    def test_removing_an_interest_never_shrinks_the_audience(self, indices):
        interests = _subset(indices)
        if len(interests) < 2:
            return
        full = _MODEL.audience_for(interests)
        without_last = _MODEL.audience_for(interests[:-1])
        assert without_last + 1e-9 >= full

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12))
    def test_and_never_exceeds_or(self, indices):
        interests = _subset(indices)
        narrowed = _MODEL.audience_for(interests, combine="and")
        widened = _MODEL.audience_for(interests, combine="or")
        assert narrowed <= widened + 1e-6

    @SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=10),
        st.permutations(["ES", "FR", "US"]),
    )
    def test_location_subsets_shrink_audiences(self, indices, countries):
        interests = _subset(indices)
        one_country = _MODEL.audience_for(interests, countries[:1])
        all_three = _MODEL.audience_for(interests, countries)
        worldwide = _MODEL.audience_for(interests)
        assert one_country <= all_three + 1e-6
        assert all_three <= worldwide + 1e-6


class TestExactCountingProperties:
    @SETTINGS
    @given(
        profiles=st.lists(
            st.lists(st.integers(min_value=0, max_value=119), min_size=1, max_size=15),
            min_size=2,
            max_size=25,
        )
    )
    def test_population_counts_match_brute_force(self, profiles):
        users = [
            SyntheticUser(
                user_id=index,
                country="ES",
                interest_ids=tuple(sorted(set(profile))),
            )
            for index, profile in enumerate(profiles)
        ]
        backend = oracles.ExactCountBackend(PanelColumns.from_users(users), 1.0)
        probe = tuple(sorted(set(profiles[0])))[:3]
        expected_and = sum(1 for user in users if user.matches_all(probe))
        expected_or = sum(1 for user in users if user.matches_any(probe))
        assert backend.audience_for(probe) == expected_and
        assert backend.audience_for(probe, combine="or") == expected_or

    @SETTINGS
    @given(
        profiles=st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=10),
            min_size=2,
            max_size=20,
        ),
        scale=st.floats(min_value=1.0, max_value=10_000.0),
    )
    def test_scaling_is_linear(self, profiles, scale):
        users = [
            SyntheticUser(
                user_id=index, country="ES", interest_ids=tuple(sorted(set(profile)))
            )
            for index, profile in enumerate(profiles)
        ]
        columns = PanelColumns.from_users(users)
        probe = tuple(sorted(set(profiles[0])))[:2]
        count = oracles.ExactCountBackend(columns, 1.0).audience_for(probe)
        assert oracles.ExactCountBackend(columns, scale).audience_for(
            probe
        ) == pytest.approx(count * scale)
