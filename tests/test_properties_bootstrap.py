"""Property-based parity of the bootstrap kernel with the resampling reference.

``bootstrap_cutpoints`` sorts each column once, finds every replicate's
order statistics with a two-level rank search over per-user draw counts
(block totals, then the hit blocks) and stops at the first column where
every row has floored.  ``oracles.bootstrap_cutpoints_reference`` gathers
each resample, sorts the stack and fits every column.  The route parity
tests elsewhere compare production routes with each other; these pin every
route to the reference, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AudienceAccumulator, AudienceSamples, bootstrap_cutpoints
from repro.exec import ShardExecutor

import oracles

SETTINGS = settings(max_examples=120, deadline=None)

QUANTILES = st.lists(
    st.one_of(
        st.sampled_from([0.5, 25.0, 50.0, 80.0, 90.0, 95.0, 99.5]),
        st.floats(min_value=0.5, max_value=99.5),
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


#: Panel sizes around the rank search's 16-row blocks: exact multiples of
#: a block and one user past one.
BLOCK_EDGES = [16, 17, 32, 33, 48, 49, 64, 65, 96, 97]


@st.composite
def sample_stores(draw) -> AudienceSamples:
    """Panels of up to 97 users with ragged NaN tails, empty users and floor ties.

    Rows hold a user's leading valid samples (prefix-shaped, as collection
    produces them); a ragged user may have none, columns past the longest
    row are all ``NaN``, and a panel that is not ragged has every column
    full, so block-edge panel sizes give block-edge columns.  Values mix
    exact ties drawn from a small pool (floor ties, values within and just
    outside the floor tolerance) with distinct audiences; when ``lifted``,
    every value sits above the floor so no row ever floors.
    """
    floor = draw(st.sampled_from([1, 20]))
    n_users = draw(
        st.one_of(st.integers(min_value=1, max_value=40), st.sampled_from(BLOCK_EDGES))
    )
    width = draw(st.integers(min_value=1, max_value=8))
    special = [floor, floor + 1e-10, floor + 1e-8, floor + 1.0, 2.0 * floor, 1e3]
    pool = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.sampled_from(special), st.floats(min_value=floor, max_value=1e6)
                ),
                min_size=1,
                max_size=8,
            )
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tied = rng.random((n_users, width)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    matrix = np.where(
        tied,
        pool[rng.integers(0, pool.size, size=(n_users, width))],
        rng.uniform(floor, 1e6, size=(n_users, width)),
    )
    if draw(st.booleans()):  # VAS-shaped: audiences shrink as N grows
        matrix = -np.sort(-matrix, axis=1)
    if draw(st.booleans()):  # lifted: no value reaches the floor
        matrix = matrix + 2.0 * floor
    if draw(st.booleans()):  # ragged
        row_counts = rng.integers(0, width + 1, size=n_users)
        matrix[np.arange(width)[None, :] >= row_counts[:, None]] = np.nan
    return AudienceSamples(matrix=matrix, floor=floor)


def paper_shaped_samples() -> AudienceSamples:
    """600 users x 25 columns of VAS-shaped audiences with a reporting floor.

    Each user's audience falls by a log-normal factor per added interest
    and is reported at the floor of 20 once it drops below it; users hold
    5 to 25 interests, so the tail columns thin out.
    """
    rng = np.random.default_rng(23)
    steps = rng.lognormal(mean=0.9, sigma=0.6, size=(600, 25))
    audiences = 2e6 * rng.uniform(0.2, 1.0, size=(600, 1)) / np.cumprod(steps, axis=1)
    matrix = np.maximum(np.rint(audiences), 20.0)
    row_counts = rng.integers(5, 26, size=600)
    matrix[np.arange(25)[None, :] >= row_counts[:, None]] = np.nan
    return AudienceSamples(matrix=matrix, floor=20)


def _store_and_executor(samples: AudienceSamples, route: str):
    if route == "streamed":
        return AudienceAccumulator().update(samples).finalize(), None
    if route == "thread":
        return samples, ShardExecutor(backend="thread", workers=2)
    return samples, None


class TestBootstrapMatchesReference:
    @SETTINGS
    @given(
        samples=sample_stores(),
        q_percents=QUANTILES,
        n_bootstrap=st.integers(min_value=1, max_value=30),
        chunk_size=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        route=st.sampled_from(["dense", "streamed", "thread"]),
    )
    # Two draws of two users put the median halfway between them, where
    # NumPy's two interpolation branches round these values differently.
    @example(
        samples=AudienceSamples(
            matrix=np.array([[259549.646589872, 1.0], [830631.6106403178, 1.0]]),
            floor=1,
        ),
        q_percents=[50.0],
        n_bootstrap=8,
        chunk_size=3,
        seed=5,
        route="dense",
    )
    def test_cutpoints_bit_identical(
        self, samples, q_percents, n_bootstrap, chunk_size, seed, route
    ):
        expected = oracles.bootstrap_cutpoints_reference(
            samples,
            q_percents,
            n_bootstrap=n_bootstrap,
            seed=seed,
            chunk_size=chunk_size,
        )
        store, executor = _store_and_executor(samples, route)
        produced = bootstrap_cutpoints(
            store,
            q_percents,
            n_bootstrap=n_bootstrap,
            seed=seed,
            chunk_size=chunk_size,
            executor=executor,
        )
        assert list(produced) == list(expected)
        for q in expected:
            assert np.array_equal(produced[q], expected[q], equal_nan=True)

    @pytest.mark.parametrize("route", ["dense", "streamed", "thread"])
    def test_paper_shaped_panel_bit_identical(self, route):
        samples = paper_shaped_samples()
        expected = oracles.bootstrap_cutpoints_reference(
            samples, [50.0, 80.0, 90.0, 95.0], n_bootstrap=250, seed=4, chunk_size=97
        )
        store, executor = _store_and_executor(samples, route)
        produced = bootstrap_cutpoints(
            store,
            [50.0, 80.0, 90.0, 95.0],
            n_bootstrap=250,
            seed=4,
            chunk_size=97,
            executor=executor,
        )
        assert list(produced) == list(expected)
        for q in expected:
            assert np.array_equal(produced[q], expected[q], equal_nan=True)
