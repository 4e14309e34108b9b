"""Tests for the interest catalog subsystem."""

from __future__ import annotations

import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.catalog import (
    Interest,
    InterestCatalog,
    PopularityModel,
    TOPICS,
    interest_name,
    topic_for_index,
    validate_topic,
)
from repro.config import CatalogConfig
from repro.errors import CatalogError, ConfigurationError, UnknownInterestError


class TestInterest:
    def test_valid_interest(self):
        interest = Interest(1, "Italian food", "Food and drink", 100_000)
        assert interest.audience_size == 100_000

    def test_rejects_negative_id(self):
        with pytest.raises(CatalogError):
            Interest(-1, "x", "Food and drink", 10)

    def test_rejects_negative_audience(self):
        with pytest.raises(CatalogError):
            Interest(1, "x", "Food and drink", -5)

    def test_rejects_empty_name_or_topic(self):
        with pytest.raises(CatalogError):
            Interest(1, "", "Food and drink", 10)
        with pytest.raises(CatalogError):
            Interest(1, "x", "", 10)

    def test_rarer_comparison(self):
        rare = Interest(1, "a", "People", 50)
        popular = Interest(2, "b", "People", 5_000)
        assert rare.is_rarer_than(popular)
        assert not popular.is_rarer_than(rare)

    def test_round_trip_serialisation(self):
        interest = Interest(7, "Vintage cameras", "Hobbies and activities", 12_345)
        assert Interest.from_dict(interest.to_dict()) == interest

    def test_from_dict_accepts_integral_values_only(self):
        record = {"interest_id": 7, "name": "x", "topic": "People", "audience_size": 50}
        assert Interest.from_dict({**record, "interest_id": 7.0}).interest_id == 7
        assert Interest.from_dict({**record, "audience_size": "50"}).audience_size == 50
        for field, bad in [
            ("interest_id", 1.7),
            ("interest_id", "abc"),
            ("interest_id", None),
            ("audience_size", 2.5),
            ("audience_size", float("inf")),
            ("audience_size", float("nan")),
        ]:
            with pytest.raises(CatalogError, match=f"{field} must be an integer"):
                Interest.from_dict({**record, field: bad})


class TestTaxonomy:
    def test_topics_are_unique(self):
        assert len(set(TOPICS)) == len(TOPICS)

    def test_topic_for_index_round_robin(self):
        assert topic_for_index(0) == TOPICS[0]
        assert topic_for_index(len(TOPICS)) == TOPICS[0]

    def test_topic_for_index_respects_n_topics(self):
        assert topic_for_index(5, n_topics=3) == TOPICS[5 % 3]

    def test_topic_for_index_rejects_negative(self):
        with pytest.raises(CatalogError):
            topic_for_index(-1)

    def test_interest_name_is_deterministic(self):
        assert interest_name(3, "Music") == interest_name(3, "Music")

    def test_validate_topic(self):
        assert validate_topic("Music") == "Music"
        with pytest.raises(CatalogError):
            validate_topic("Not a topic")


class TestPopularityModel:
    def test_samples_respect_bounds(self):
        model = PopularityModel(min_audience=20, max_audience=10**7)
        samples = model.sample(5_000, seed=3)
        assert samples.min() >= 20
        assert samples.max() <= 10**7

    def test_sample_count_and_dtype(self):
        samples = PopularityModel().sample(100, seed=1)
        assert samples.shape == (100,)
        assert samples.dtype == np.int64

    def test_empty_sample(self):
        assert PopularityModel().sample(0, seed=1).size == 0

    def test_negative_sample_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PopularityModel().sample(-1)

    def test_median_roughly_matches_configuration(self):
        model = PopularityModel(median_audience=400_000, rare_tail_fraction=0.0)
        samples = model.sample(20_000, seed=5)
        median = np.median(samples)
        assert 200_000 < median < 800_000

    def test_quantile_is_monotone(self):
        model = PopularityModel()
        assert model.quantile(0.25) < model.quantile(0.5) < model.quantile(0.75)

    def test_from_config_caps_at_world_fraction(self):
        config = CatalogConfig(max_audience_fraction=0.1)
        model = PopularityModel.from_config(config, world_population=1_000_000)
        assert model.max_audience == 100_000

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PopularityModel(median_audience=-1)
        with pytest.raises(ConfigurationError):
            PopularityModel(log10_sigma=0)
        with pytest.raises(ConfigurationError):
            PopularityModel(max_audience=10, min_audience=20)


class TestInterestCatalog:
    def test_generation_size(self, tiny_catalog):
        assert len(tiny_catalog) == 300

    def test_generation_is_deterministic(self):
        config = CatalogConfig(n_interests=200, seed=13)
        first = InterestCatalog.generate(config, seed=13)
        second = InterestCatalog.generate(config, seed=13)
        assert first.to_dicts() == second.to_dicts()

    def test_different_seeds_differ(self):
        config = CatalogConfig(n_interests=200)
        first = InterestCatalog.generate(config, seed=1)
        second = InterestCatalog.generate(config, seed=2)
        assert first.to_dicts() != second.to_dicts()

    def test_get_unknown_interest_raises(self, tiny_catalog):
        with pytest.raises(UnknownInterestError):
            tiny_catalog.get(10**9)

    def test_contains_and_iteration(self, tiny_catalog):
        ids = [interest.interest_id for interest in tiny_catalog]
        assert len(ids) == len(tiny_catalog)
        assert ids[0] in tiny_catalog

    def test_audience_sizes_vector(self, tiny_catalog):
        ids = tiny_catalog.interest_ids[:10]
        sizes = tiny_catalog.audience_sizes(ids)
        assert sizes.shape == (10,)
        assert (sizes > 0).all()

    def test_rarest_and_most_popular_are_ordered(self, tiny_catalog):
        rarest = tiny_catalog.rarest(5)
        popular = tiny_catalog.most_popular(5)
        assert all(
            rarest[i].audience_size <= rarest[i + 1].audience_size for i in range(4)
        )
        assert all(
            popular[i].audience_size >= popular[i + 1].audience_size for i in range(4)
        )
        assert rarest[0].audience_size <= popular[-1].audience_size

    def test_by_topic_partitions_catalog(self, tiny_catalog):
        total = sum(len(tiny_catalog.by_topic(topic)) for topic in tiny_catalog.topics())
        assert total == len(tiny_catalog)

    def test_sample_ids_without_replacement_unique(self, tiny_catalog):
        sampled = tiny_catalog.sample_ids(50, seed=3)
        assert len(set(int(i) for i in sampled)) == 50

    def test_sample_ids_rejects_oversampling(self, tiny_catalog):
        with pytest.raises(CatalogError):
            tiny_catalog.sample_ids(len(tiny_catalog) + 1, seed=1)

    def test_sample_ids_with_weights_validation(self, tiny_catalog):
        with pytest.raises(CatalogError):
            tiny_catalog.sample_ids(5, seed=1, weights=np.ones(3))
        for bad in (-1.0, np.nan, np.inf):
            weights = np.ones(len(tiny_catalog))
            weights[3] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CatalogError, match="finite and non-negative"):
                    tiny_catalog.sample_ids(5, seed=1, weights=weights)

    def test_duplicate_ids_rejected(self):
        interest = Interest(1, "a", "Music", 10)
        with pytest.raises(CatalogError):
            InterestCatalog([interest, interest])

    def test_empty_catalog_rejected(self):
        with pytest.raises(CatalogError):
            InterestCatalog([])

    def test_round_trip_serialisation(self, tiny_catalog):
        rebuilt = InterestCatalog.from_dicts(tiny_catalog.to_dicts())
        assert rebuilt.to_dicts() == tiny_catalog.to_dicts()

    def test_audience_percentiles_are_monotone(self, tiny_catalog):
        p25, p50, p75 = tiny_catalog.audience_percentiles([25, 50, 75])
        assert p25 <= p50 <= p75


class TestFullScaleCatalogCalibration:
    """The full-scale catalog must reproduce the Figure 2 quartiles."""

    @pytest.fixture(scope="class")
    def full_catalog(self):
        return InterestCatalog.generate(CatalogConfig(n_interests=30_000, seed=5))

    def test_quartiles_match_paper_order_of_magnitude(self, full_catalog):
        p25, p50, p75 = full_catalog.audience_percentiles([25, 50, 75])
        # Paper (Figure 2): 113,193 / 418,530 / 1,719,925.
        assert 3e4 < p25 < 4e5
        assert 1.5e5 < p50 < 1.2e6
        assert 6e5 < p75 < 5e6

    def test_contains_rare_interests(self, full_catalog):
        rarest = full_catalog.rarest(10)
        assert rarest[0].audience_size < 5_000


class TestColumns:
    """``InterestCatalog.from_columns``: validation and canonical topic order."""

    COLUMNS = dict(
        ids=[2, 5, 9, 11],
        audiences=[50, 20, 50, 7],
        topic_codes=[2, 0, 1, 3],
        topic_table=("Zeta", "Music", "Alpha", "People", "Unused"),
        names=["a", "b", "c", "d"],
    )

    def build(self, **changes):
        return InterestCatalog.from_columns(**{**self.COLUMNS, **changes})

    def test_topic_table_is_renumbered_canonically(self):
        catalog = self.build()
        # Taxonomy topics in TOPICS order, then the rest by first
        # appearance in id order; the unused entry is dropped.
        assert catalog.topic_table == ("People", "Music", "Alpha", "Zeta")
        assert catalog.topics() == ("People", "Music")
        assert catalog.topic_codes.tolist() == [2, 3, 1, 0]
        assert [i.interest_id for i in catalog.by_topic("Alpha")] == [2]
        assert catalog.by_topic("Unused") == ()
        assert catalog.get(5) == Interest(5, "b", "Zeta", 20)

    def test_columns_are_read_only(self):
        catalog = self.build()
        for column in (catalog.ids, catalog.audiences, catalog.topic_codes):
            with pytest.raises(ValueError):
                column[0] = 1
        assert catalog.interest_ids.flags.writeable
        assert catalog.all_audience_sizes().flags.writeable

    def test_concurrent_first_gets_build_equal_objects(self):
        # Objects are memoised without a lock: racing first gets may build
        # one object twice, but every caller must see an equal, complete one.
        catalog = InterestCatalog.generate(CatalogConfig(n_interests=2_000, seed=3))
        ids = catalog.interest_ids.tolist()
        results: list = [None] * 8

        def fetch(slot: int) -> None:
            results[slot] = [catalog.get(i).to_dict() for i in ids]

        threads = [threading.Thread(target=fetch, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == catalog.to_dicts() for result in results)
        assert [interest.to_dict() for interest in catalog] == catalog.to_dicts()

    def test_pickle_round_trip_keeps_content_and_read_only_columns(self):
        catalog = self.build()
        restored = pickle.loads(pickle.dumps(catalog))
        assert restored.to_dicts() == catalog.to_dicts()
        assert restored.topic_table == catalog.topic_table
        assert not restored.ids.flags.writeable
        assert not restored.popularity_rank.flags.writeable

    def test_popularity_rank_orders_audience_then_id(self):
        assert self.build().popularity_rank.tolist() == [2, 1, 3, 0]

    @pytest.mark.parametrize(
        "changes",
        [
            {"ids": [2, 2, 9, 11]},
            {"ids": [5, 2, 9, 11]},
            {"ids": [-1, 5, 9, 11]},
            {"ids": [2.0, 5.0, 9.0, 11.0]},
            {"audiences": [50, -20, 50, 7]},
            {"audiences": [50, 20, 50]},
            {"names": ["a", "", "c", "d"]},
            {"names": ["a", "b", "c", 4]},
            {"topic_codes": [2, 0, 1, 5]},
            {"topic_codes": [2, 0, -1, 3]},
            {"topic_table": ("Zeta", "Music", "Zeta", "People")},
            {"topic_table": ("Zeta", "Music", "", "People")},
            {"ids": [], "audiences": [], "topic_codes": [], "names": []},
        ],
    )
    def test_invalid_columns_are_rejected(self, changes):
        with pytest.raises(CatalogError):
            self.build(**changes)
