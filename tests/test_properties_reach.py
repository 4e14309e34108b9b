"""Property-based tests on the reach model and exact-counting semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Interest, InterestCatalog
from repro.config import CatalogConfig, ReachModelConfig
from repro.population import PanelColumns, SyntheticUser
from repro.reach import StatisticalReachModel, lognormal_jitter

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


#: World base of the kernel cases: audiences above it have marginal 1.0.
_WORLD = 50_000.0
#: Audience values that tie often across topics, with 0 (nobody holds the
#: interest) and values at and above the world base.
_TIED_AUDIENCES = (0, 7, 120, 120, 4_000, 4_000, 49_999, 50_000, 80_000)


@st.composite
def kernel_cases(draw):
    """A small catalog, a model config, a location list and a ragged id matrix."""
    n_interests = draw(st.integers(min_value=25, max_value=40))
    if draw(st.booleans()):
        ids = list(range(n_interests))
    else:  # sparse: distinct ids from 1 up, so the last id is never n - 1
        ids = sorted(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=10 * n_interests),
                    min_size=n_interests,
                    max_size=n_interests,
                )
            )
        )
    audience = st.one_of(
        st.sampled_from(_TIED_AUDIENCES), st.integers(min_value=0, max_value=100_000)
    )
    topic = st.sampled_from(("Music", "Sports", "Travel"))
    catalog = InterestCatalog(
        [
            Interest(
                interest_id=interest_id,
                name=f"interest {interest_id}",
                topic=draw(topic),
                audience_size=draw(audience),
            )
            for interest_id in ids
        ]
    )
    config = ReachModelConfig(
        correlation_alpha=draw(
            st.one_of(
                st.sampled_from((0.185, 1.0)),
                st.floats(min_value=0.01, max_value=1.0),
            )
        ),
        jitter_log10_sigma=draw(st.sampled_from((0.0, 0.06, 0.3))),
        topic_affinity_boost=draw(st.sampled_from((0.0, 0.35, 3.0))),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )
    locations = draw(st.sampled_from((None, ("US",), ("ES", "FR", "US"))))
    width = draw(st.integers(min_value=1, max_value=25))
    n_rows = draw(st.integers(min_value=1, max_value=6))
    counts = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=width),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        dtype=np.int64,
    )
    matrix = np.full((n_rows, width), -1, dtype=np.int64)
    for row in range(n_rows):
        matrix[row] = draw(st.permutations(ids))[:width]
    return catalog, config, locations, matrix, counts


class TestPrefixKernelMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_every_row_is_bit_identical_to_the_oracle(self, case):
        catalog, config, locations, matrix, counts = case
        model = StatisticalReachModel(catalog, config, world_population=_WORLD)
        panel = model.prefix_audiences_panel(matrix, counts, locations)
        for row, count in enumerate(counts):
            expected = oracles.prefix_audiences(model, matrix[row, :count], locations)
            assert panel[row, :count].tobytes() == expected.tobytes()
            assert np.isnan(panel[row, count:]).all()

    @SETTINGS
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40
        ),
        rows=st.integers(min_value=1, max_value=4),
        sigma=st.sampled_from((0.0, 0.06, 0.3, 1.5)),
    )
    def test_lognormal_jitter_matches_the_oracle_copy(self, seeds, rows, sigma):
        flat = np.asarray(seeds * rows, dtype=np.uint64)
        expected = oracles.jitter_factors(flat, sigma)
        assert lognormal_jitter(flat, sigma).tobytes() == expected.tobytes()
        matrix = flat.reshape(rows, len(seeds))
        assert (
            lognormal_jitter(matrix, sigma).tobytes()
            == expected.reshape(matrix.shape).tobytes()
        )


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
