"""Property-based parity of the interest-row rules' two forms.

``repro.adsapi.validation`` states the rules once — at most 25 ids, every
id non-negative, no id twice, checked in that order — in two forms:
``validate_interest_row`` for one row in plain Python (``validate_spec``
and the reach service's admission) and the vectorised matrix form behind
``AdsManagerAPI.validate_reach_matrix``.  On one row both must give the
same verdict, error type and message; on a matrix the bulk endpoint must
raise the first rule that any row breaks and never read the padding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adsapi import AdsManagerAPI
from repro.adsapi.validation import validate_interest_row
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig, PlatformConfig
from repro.errors import TargetingValidationError
from repro.reach import StatisticalReachModel

SETTINGS = settings(max_examples=200, deadline=None)

PLATFORM = PlatformConfig.modern_2020()
_API = AdsManagerAPI(
    StatisticalReachModel(
        InterestCatalog.generate(CatalogConfig(n_interests=50, n_topics=4, seed=3))
    ),
    platform=PLATFORM,
)

ROWS = st.lists(st.integers(min_value=-3, max_value=40), min_size=0, max_size=30)


def outcome(call):
    """``("ok",)`` or ``("raises", type, message)``."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raises", type(exc), str(exc))
    return ("ok",)


def rejection(message: str) -> tuple:
    return ("raises", TargetingValidationError, message)


@SETTINGS
@given(ROWS)
def test_one_row_gets_the_same_verdict_from_both_forms(row):
    matrix = np.asarray(row, dtype=np.int64).reshape(1, len(row))
    plain = outcome(lambda: validate_interest_row(row, PLATFORM))
    bulk = outcome(lambda: _API.validate_reach_matrix(matrix, [len(row)]))
    assert plain == bulk


@SETTINGS
@given(
    st.lists(ROWS, min_size=1, max_size=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-3, max_value=40),
)
def test_a_matrix_raises_the_first_rule_any_row_breaks(rows, extra_width, pad):
    counts = [len(row) for row in rows]
    ids = np.full((len(rows), max(counts) + extra_width), pad, dtype=np.int64)
    for index, row in enumerate(rows):
        ids[index, : len(row)] = row
    if max(counts) > 25:
        expected = rejection(
            f"at most 25 interests are allowed in an audience, got {max(counts)}"
        )
    elif any(interest_id < 0 for row in rows for interest_id in row):
        expected = rejection("interest ids must be non-negative")
    elif any(len(set(row)) != len(row) for row in rows):
        expected = rejection("interests must not contain duplicates")
    else:
        expected = ("ok",)
    assert outcome(lambda: _API.validate_reach_matrix(ids, counts)) == expected
