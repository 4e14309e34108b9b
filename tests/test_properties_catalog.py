"""Property-based parity of the columnar catalog with the object catalog.

``InterestCatalog`` stores id-sorted columns, a cached popularity order and
a per-topic CSR, and builds ``Interest`` objects only on demand.
``oracles.ObjectCatalog`` is the same catalog as one object per id,
re-sorted and re-scanned on every query.  Every query is compared exactly:
values, order, tie order and key semantics — for catalogs built from
objects, for their codec round trips (whose objects are all built on
demand) and for least-popular ordering, against the ``lexsort`` oracle.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import TOPICS, Interest, InterestCatalog
from repro.config import CatalogConfig
from repro.core import LeastPopularSelection
from repro.core.selection import ordered_interest_matrix_columns
from repro.errors import UnknownInterestError
from repro.io.artifacts import CATALOG_CODEC
from repro.population import SyntheticUser
from repro.population.columnar import PanelColumns

import oracles

SETTINGS = settings(max_examples=150, deadline=None)

#: Taxonomy topics (out of TOPICS order) plus topics outside the taxonomy.
TOPIC_POOL = (TOPICS[5], TOPICS[0], TOPICS[23], "Zeitgeist", "Ünïcode tópic", "趣味")

UNKNOWN_TOPIC = "Not a topic"


@st.composite
def interest_lists(draw) -> list[Interest]:
    """Interests in shuffled order: dense or sparse ids, audience ties."""
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=5))
        ids = list(range(start, start + n))
    else:
        ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=2**31 - 1),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    audiences = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0, 20, 20, 1_000]),
                st.integers(min_value=0, max_value=2**40),
            ),
            min_size=n,
            max_size=n,
        )
    )
    topics = draw(st.lists(st.sampled_from(TOPIC_POOL), min_size=n, max_size=n))
    names = draw(
        st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
            min_size=n,
            max_size=n,
        )
    )
    order = draw(st.permutations(range(n)))
    return [Interest(ids[i], names[i], topics[i], audiences[i]) for i in order]


def round_trip(catalog: InterestCatalog) -> InterestCatalog:
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "artifact.catalog.npz"
        CATALOG_CODEC.encode(catalog, path)
        return CATALOG_CODEC.decode(path)


def outcome(call):
    """``("ok", value)`` or ``("raises", type, message)``."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raises", type(exc), str(exc))


def assert_same_catalog(catalog: InterestCatalog, reference: oracles.ObjectCatalog):
    n = len(reference)
    assert len(catalog) == n
    assert list(catalog) == list(reference)
    assert json.dumps(catalog.to_dicts()) == json.dumps(reference.to_dicts())
    for method in ("most_popular", "rarest"):
        for size in (0, 1, n, n + 3):
            assert getattr(catalog, method)(size) == getattr(reference, method)(size)
    assert catalog.topics() == reference.topics()
    for topic in TOPIC_POOL + (UNKNOWN_TOPIC,):
        assert catalog.by_topic(topic) == reference.by_topic(topic)
    for name in ("interest_ids", "all_audience_sizes"):
        value = getattr(catalog, name)
        value = value() if callable(value) else value
        expected = getattr(reference, name)
        expected = expected() if callable(expected) else expected
        assert value.dtype == expected.dtype
        assert np.array_equal(value, expected)
    ids = reference.interest_ids
    some = ids[::2].tolist()
    assert np.array_equal(catalog.audience_sizes(some), reference.audience_sizes(some))
    assert catalog.audience_sizes(some).dtype == np.int64
    assert outcome(lambda: catalog.audience_sizes([*some, -1])) == outcome(
        lambda: reference.audience_sizes([*some, -1])
    )
    first = int(ids[0])
    missing = int(ids.max()) + 1
    for key in (first, np.int64(first), float(first), first + 0.5, missing, "x", None):
        assert (key in catalog) == (key in reference), key
        assert outcome(lambda: catalog.get(key)) == outcome(lambda: reference.get(key))
        assert outcome(lambda: catalog.audience_size(key)) == outcome(
            lambda: reference.audience_size(key)
        )


@SETTINGS
@given(interest_lists())
def test_columnar_catalog_matches_the_object_catalog(interests):
    catalog = InterestCatalog(interests)
    reference = oracles.ObjectCatalog(interests)
    assert_same_catalog(catalog, reference)
    decoded = round_trip(catalog)
    assert_same_catalog(decoded, reference)
    for name in ("ids", "audiences", "topic_codes"):
        assert getattr(decoded, name).dtype == getattr(catalog, name).dtype
        assert np.array_equal(getattr(decoded, name), getattr(catalog, name))
    assert decoded.topic_table == catalog.topic_table
    assert decoded.names == catalog.names
    assert InterestCatalog.from_dicts(reference.to_dicts()).to_dicts() == catalog.to_dicts()


@SETTINGS
@given(interest_lists(), st.data())
def test_least_popular_order_matches_the_lexsort(interests, data):
    catalog = InterestCatalog(interests)
    reference = oracles.ObjectCatalog(interests)
    ids = catalog.interest_ids.tolist()
    users = [
        SyntheticUser(
            user_id=row,
            country="ES",
            interest_ids=tuple(
                data.draw(st.lists(st.sampled_from(ids), max_size=len(ids), unique=True))
            ),
        )
        for row in range(data.draw(st.integers(min_value=1, max_value=8)))
    ]
    columns = PanelColumns.from_users(users)
    max_interests = data.draw(st.integers(min_value=1, max_value=len(ids) + 2))
    start = data.draw(st.integers(min_value=0, max_value=len(users)))
    stop = data.draw(st.integers(min_value=start, max_value=len(users)))
    matrix, counts = ordered_interest_matrix_columns(
        LeastPopularSelection(), columns, catalog, max_interests, start, stop
    )
    expected_matrix, expected_counts = oracles.least_popular_reference(
        columns, reference, max_interests, start, stop
    )
    assert np.array_equal(matrix, expected_matrix)
    assert np.array_equal(counts, expected_counts)


@SETTINGS
@given(interest_lists())
def test_least_popular_order_reports_the_first_unknown_id(interests):
    catalog = InterestCatalog(interests)
    low, high = sorted(set(range(len(catalog) + 2)) - set(catalog.ids.tolist()))[:2]
    columns = PanelColumns.from_users(
        [
            SyntheticUser(user_id=0, country="ES", interest_ids=(int(catalog.ids[0]),)),
            SyntheticUser(user_id=1, country="ES", interest_ids=(high, low)),
        ]
    )
    with pytest.raises(UnknownInterestError, match=f"unknown interest id: {high}$"):
        ordered_interest_matrix_columns(LeastPopularSelection(), columns, catalog, 5)


@SETTINGS
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_generate_matches_the_object_generator(n_interests, n_topics, seed):
    config = CatalogConfig(n_interests=n_interests, n_topics=n_topics)
    catalog = InterestCatalog.generate(config, seed=seed)
    reference = oracles.ObjectCatalog.generate(config, seed=seed)
    assert_same_catalog(catalog, reference)
