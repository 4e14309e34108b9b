"""Property-based parity of the bootstrap kernel with the resampling reference.

``bootstrap_cutpoints`` sorts each column once, reads every replicate's
order statistics off running draw counts and stops at the first column
where every row has floored.  ``oracles.bootstrap_cutpoints_reference``
gathers each resample, sorts the stack and fits every column.  The route
parity tests elsewhere compare production routes with each other; these
pin every route to the reference, bit for bit.
"""

from __future__ import annotations

import numpy as np
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


@st.composite
def sample_stores(draw) -> AudienceSamples:
    """Small panels with ragged NaN tails, empty users and floor ties.

    Rows hold a user's leading valid samples (prefix-shaped, as collection
    produces them); a user may have none, and columns past the longest row
    are all ``NaN``.  Values mix exact floor ties, values within and just
    outside the floor tolerance, and a spread of larger audiences; when
    ``lifted``, every value sits above the floor so no row ever floors.
    """
    floor = draw(st.sampled_from([1, 20]))
    n_users = draw(st.integers(min_value=1, max_value=40))
    width = draw(st.integers(min_value=1, max_value=8))
    row_counts = np.array(
        draw(st.lists(st.integers(0, width), min_size=n_users, max_size=n_users))
    )
    special = [floor, floor + 1e-10, floor + 1e-8, floor + 1.0, 2.0 * floor, 1e3]
    cells = draw(
        st.lists(
            st.one_of(
                st.sampled_from(special), st.floats(min_value=floor, max_value=1e6)
            ),
            min_size=n_users * width,
            max_size=n_users * width,
        )
    )
    matrix = np.array(cells, dtype=float).reshape(n_users, width)
    if draw(st.booleans()):  # VAS-shaped: audiences shrink as N grows
        matrix = -np.sort(-matrix, axis=1)
    if draw(st.booleans()):  # lifted: no value reaches the floor
        matrix = matrix + 2.0 * floor
    matrix[np.arange(width)[None, :] >= row_counts[:, None]] = np.nan
    return AudienceSamples(matrix=matrix, floor=floor)


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
        store = samples
        executor = None
        if route == "streamed":
            store = AudienceAccumulator().update(samples).finalize()
        elif route == "thread":
            executor = ShardExecutor(backend="thread", workers=2)
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
