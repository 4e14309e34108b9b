"""Parity suite for the batched interest-assignment kernel.

Pins :meth:`InterestAssigner.assign_rows` — the kernel behind
:func:`run_interest_shard` — against the per-user oracle
``oracles.ReferenceAssigner`` bit for bit:

* **row parity** — ``assign_rows`` reproduces ``ReferenceAssigner.assign``
  row by row for ragged and zero counts, clipped counts, empty preference
  arrays and shared or per-row biases;
* **shard parity** — :func:`run_interest_shard` matches
  ``oracles.run_interest_shard_reference`` (jittered biases, in-stream age
  draws) and is invariant to how a row range is split into shards; a
  property test sweeps generated catalogs, counts, biases and splits;
* **validation** — anything but one stream, one array of distinct topic
  indices and one finite bias per row raises
  :class:`~repro.errors.PopulationError` before a stream is touched;
* **bounded state** — the per-assigner bias-table cache and the
  per-process spec memos stay LRU-bounded under adversarial key streams
  (the long-lived-process leak this suite exists to prevent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import derive_generator
from repro.cache import SpecMemo
from repro.catalog import TOPICS, Interest, InterestCatalog
from repro.config import CatalogConfig, quick_config
from repro.errors import ConfigurationError, PopulationError
from repro.exec import clear_spec_memo as clear_exec_spec_memo
from repro.population import (
    AssignerSpec,
    InterestAssigner,
    InterestShardTask,
    clear_spec_memo,
    resolve_assigner,
    run_interest_shard,
)
from repro.pipeline import build_catalog, build_panel
from repro.population.assignment import BIAS_TABLE_CACHE_SIZE

import oracles
from oracles import ReferenceAssigner, run_interest_shard_reference

TOPICS_PER_USER = 3

#: Ragged counts: zeros, singletons, mid-sized rows, one row clipped to the
#: catalog (forcing the rejection tail and the deterministic top-up).
RAGGED_COUNTS = np.array([0, 1, 3, 12, 37, 4, 0, 25, 7, 999, 5, 2], dtype=np.int64)

#: Every bias the panel's jitter draw can produce: 2 decimals in [0.1, 0.95].
JITTER_GRID = np.round(np.arange(0.10, 0.96, 0.01), 2)


@pytest.fixture(scope="module")
def catalog():
    return InterestCatalog.generate(CatalogConfig(n_interests=400, n_topics=8, seed=9))


@pytest.fixture(scope="module")
def assigner(catalog):
    return InterestAssigner(catalog)


def kernel_rows(
    assigner, counts, seed, key, *, biases=None, n_preferred=TOPICS_PER_USER
):
    """Run ``assign_rows`` on per-row derived streams (stages 3–4 only)."""
    streams, preferred = [], []
    for row in range(len(counts)):
        rng = derive_generator(seed, key, row)
        if n_preferred:
            preferred.append(assigner.sample_preferred_topic_indices(n_preferred, rng))
        else:
            preferred.append(np.zeros(0, dtype=np.int64))
        streams.append(rng)
    return assigner.assign_rows(
        counts,
        streams,
        preferred_topics=preferred,
        popularity_biases=np.full(len(counts), 0.5) if biases is None else biases,
    )


def reference_rows(
    assigner, counts, seed, key, *, biases=None, n_preferred=TOPICS_PER_USER
):
    """One ``ReferenceAssigner.assign`` call per row on the row's own stream."""
    reference = ReferenceAssigner.of(assigner)
    flat: list[int] = []
    lens: list[int] = []
    for row, n in enumerate(counts):
        rng = derive_generator(seed, key, row)
        names = (
            reference.sample_preferred_topics(n_preferred, rng) if n_preferred else ()
        )
        bias = 0.5 if biases is None else biases[row]
        ids = reference.assign(
            int(n), rng, preferred_topics=names, popularity_bias=bias
        )
        lens.append(len(ids))
        flat.extend(ids)
    return np.array(flat, dtype=np.int64), np.array(lens, dtype=np.int64)


def assert_rows_equal(kernel, reference):
    flat_k, counts_k = kernel
    flat_r, counts_r = reference
    np.testing.assert_array_equal(counts_k, counts_r)
    np.testing.assert_array_equal(flat_k, flat_r)


def one_row(assigner, n, seed, *, preferred=(0,), bias=0.5):
    """``assign_rows`` for a single row; returns its ids."""
    flat, _ = assigner.assign_rows(
        np.array([n]),
        [derive_generator(seed, "user", 0)],
        preferred_topics=[np.array(preferred, dtype=np.int64)],
        popularity_biases=[bias],
    )
    return flat


class TestRowParity:
    """assign_rows vs the per-row reference on identical streams."""

    @pytest.mark.parametrize("key", ["user", "panel-user"])
    def test_ragged_counts_both_seed_keys(self, assigner, key):
        assert_rows_equal(
            kernel_rows(assigner, RAGGED_COUNTS, 71, key),
            reference_rows(assigner, RAGGED_COUNTS, 71, key),
        )

    def test_seed_keys_are_distinct_streams(self, assigner):
        flat_user, _ = kernel_rows(assigner, RAGGED_COUNTS, 71, "user")
        flat_panel, _ = kernel_rows(assigner, RAGGED_COUNTS, 71, "panel-user")
        assert not np.array_equal(flat_user, flat_panel)

    def test_counts_clip_to_the_catalog(self, assigner, catalog):
        _, row_counts = kernel_rows(assigner, RAGGED_COUNTS, 71, "user")
        np.testing.assert_array_equal(
            row_counts, np.minimum(RAGGED_COUNTS, len(catalog))
        )

    def test_per_row_biases_including_duplicates(self, assigner):
        # Repeated values share cached tables; distinct values search
        # distinct tables in one round; a negative bias clamps to 0.
        counts = np.array([9, 14, 6, 11, 9, 16, 3, 8], dtype=np.int64)
        biases = [0.5, 0.3, 0.77, 1.2, 0.3, -0.2, 0.51, 0.9]
        assert_rows_equal(
            kernel_rows(assigner, counts, 37, "user", biases=biases),
            reference_rows(assigner, counts, 37, "user", biases=biases),
        )

    def test_single_shared_bias(self, assigner):
        counts = np.array([7, 5, 21, 9], dtype=np.int64)
        biases = [0.45, 0.45, 0.45, 0.45]
        assert_rows_equal(
            kernel_rows(assigner, counts, 41, "user", biases=biases),
            reference_rows(assigner, counts, 41, "user", biases=biases),
        )

    def test_jitter_grid_biases(self, assigner):
        # All 86 biases the panel's jitter can draw, in one call.
        counts = np.tile(np.array([3, 40, 11]), 30)[: JITTER_GRID.size]
        biases = JITTER_GRID[np.random.default_rng(3).permutation(JITTER_GRID.size)]
        assert_rows_equal(
            kernel_rows(assigner, counts, 43, "panel-user", biases=biases),
            reference_rows(assigner, counts, 43, "panel-user", biases=biases),
        )

    def test_no_preferred_topics(self, assigner):
        counts = np.array([6, 0, 13], dtype=np.int64)
        assert_rows_equal(
            kernel_rows(assigner, counts, 3, "user", n_preferred=0),
            reference_rows(assigner, counts, 3, "user", n_preferred=0),
        )

    def test_empty_shard(self, assigner):
        flat, lens = assigner.assign_rows(
            np.zeros(0, dtype=np.int64), [], preferred_topics=[], popularity_biases=[]
        )
        assert flat.size == 0
        assert lens.size == 0

    def test_all_zero_counts(self, assigner):
        counts = np.zeros(5, dtype=np.int64)
        flat, lens = kernel_rows(assigner, counts, 1, "user")
        assert flat.size == 0
        np.testing.assert_array_equal(lens, counts)


class TestShardParity:
    """run_interest_shard vs its reference, and shard-split invariance."""

    def _panel_task(self, assigner, start, stop, counts):
        rng = np.random.default_rng(77)
        ages = rng.integers(0, 5, counts.size).astype(np.int16)
        return InterestShardTask(
            assigner=assigner,
            base_seed=202,
            start=start,
            stop=stop,
            counts=counts[start:stop],
            age_group_index=ages[start:stop],
            base_bias=np.full(stop - start, 0.5),
            bias_jitter=0.1,
        )

    def test_kernel_matches_reference(self, assigner):
        counts = np.tile(RAGGED_COUNTS, 3)
        task = self._panel_task(assigner, 0, counts.size, counts)
        flat_k, lens_k, ages_k = run_interest_shard(task)
        flat_r, lens_r, ages_r = run_interest_shard_reference(task)
        np.testing.assert_array_equal(flat_k, flat_r)
        np.testing.assert_array_equal(lens_k, lens_r)
        np.testing.assert_array_equal(ages_k, ages_r)

    @pytest.mark.parametrize("splits", [[36], [1, 7, 20, 36], [12, 24, 36]])
    def test_shard_splits_concatenate_identically(self, assigner, splits):
        counts = np.tile(RAGGED_COUNTS, 3)
        whole = run_interest_shard_reference(
            self._panel_task(assigner, 0, counts.size, counts)
        )
        pieces = []
        start = 0
        for stop in splits:
            pieces.append(
                run_interest_shard(self._panel_task(assigner, start, stop, counts))
            )
            start = stop
        np.testing.assert_array_equal(
            np.concatenate([p[0] for p in pieces]), whole[0]
        )
        np.testing.assert_array_equal(
            np.concatenate([p[1] for p in pieces]), whole[1]
        )
        np.testing.assert_array_equal(
            np.concatenate([p[2] for p in pieces]), whole[2]
        )


@st.composite
def small_catalogs(draw) -> InterestCatalog:
    """2–6 taxonomy topics of uneven sizes, one holding a single interest."""
    n_topics = draw(st.integers(min_value=2, max_value=6))
    topics = draw(st.permutations(TOPICS))[:n_topics]
    sizes = [1] + draw(
        st.lists(
            st.integers(min_value=1, max_value=25),
            min_size=n_topics - 1,
            max_size=n_topics - 1,
        )
    )
    interests = []
    for topic, size in zip(topics, sizes):
        for _ in range(size):
            audience = draw(st.integers(min_value=1, max_value=10**9))
            index = len(interests)
            interests.append(Interest(index, f"i{index}", topic, audience))
    return InterestCatalog(interests)


@st.composite
def shard_cases(draw):
    """A catalog, a row range's counts, biases, jitter and shard splits."""
    catalog = draw(small_catalogs())
    n_rows = draw(st.integers(min_value=1, max_value=14))
    counts = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(catalog) + 3),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        dtype=np.int64,
    )
    per_row = {"min_size": n_rows, "max_size": n_rows}
    bias_mode = draw(st.sampled_from(["one", "distinct", "grid"]))
    if bias_mode == "one":
        base_bias = np.full(n_rows, draw(st.floats(min_value=0.0, max_value=1.5)))
    elif bias_mode == "distinct":
        base_bias = np.array(
            draw(st.lists(st.floats(min_value=-0.5, max_value=1.5), **per_row))
        )
    else:
        grid_index = st.integers(0, JITTER_GRID.size - 1)
        base_bias = JITTER_GRID[np.array(draw(st.lists(grid_index, **per_row)))]
    jitter = draw(st.sampled_from([0.0, 0.1, 0.5]))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n_rows), max_size=4))
    splits = sorted(cuts | {n_rows})
    boost = draw(st.floats(min_value=1.0, max_value=50.0))
    return catalog, counts, base_bias, jitter, splits, boost


class TestShardProperties:
    @settings(max_examples=120, deadline=None)
    @given(case=shard_cases(), base_seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_split_matches_the_reference(self, case, base_seed):
        catalog, counts, base_bias, jitter, splits, boost = case
        assigner = InterestAssigner(catalog, topic_affinity_boost=boost)
        ages = np.arange(counts.size, dtype=np.int16) % 5

        def task(start, stop):
            return InterestShardTask(
                assigner=assigner,
                base_seed=base_seed,
                start=start,
                stop=stop,
                counts=counts[start:stop],
                age_group_index=ages[start:stop],
                base_bias=base_bias[start:stop],
                bias_jitter=jitter,
            )

        whole = run_interest_shard_reference(task(0, counts.size))
        pieces = [
            run_interest_shard(task(a, b)) for a, b in zip([0, *splits], splits)
        ]
        for part in range(3):
            np.testing.assert_array_equal(
                np.concatenate([p[part] for p in pieces]), whole[part]
            )
        np.testing.assert_array_equal(whole[1], np.minimum(counts, len(catalog)))


class TestValidation:
    def test_one_stream_per_row_required(self, assigner):
        with pytest.raises(PopulationError, match="one stream per row"):
            assigner.assign_rows(
                np.array([3, 3]),
                [derive_generator(1, "user", 0)],
                preferred_topics=[np.array([1]), np.array([2])],
                popularity_biases=[0.5, 0.5],
            )

    @pytest.mark.parametrize("stream", [None, 7])
    def test_streams_must_be_generators(self, assigner, stream):
        with pytest.raises(PopulationError, match="numpy Generator"):
            assigner.assign_rows(
                np.array([3]),
                [stream],
                preferred_topics=[np.array([1])],
                popularity_biases=[0.5],
            )

    def test_one_preferred_entry_per_row_required(self, assigner):
        streams = [derive_generator(1, "user", r) for r in range(2)]
        with pytest.raises(PopulationError, match="one preferred-topic entry"):
            assigner.assign_rows(
                np.array([3, 3]),
                streams,
                preferred_topics=[np.array([1])],
                popularity_biases=[0.5, 0.5],
            )

    def test_one_bias_per_row_required(self, assigner):
        streams = [derive_generator(1, "user", r) for r in range(2)]
        with pytest.raises(PopulationError, match="one popularity bias"):
            assigner.assign_rows(
                np.array([3, 3]),
                streams,
                preferred_topics=[np.array([1]), np.array([2])],
                popularity_biases=[0.5],
            )

    def test_negative_counts_rejected(self, assigner):
        with pytest.raises(PopulationError, match="non-negative"):
            assigner.assign_rows(
                np.array([3, -1]),
                [None, None],
                preferred_topics=[np.array([1]), np.array([2])],
                popularity_biases=[0.5, 0.5],
            )

    def test_unknown_topic_name_rejected(self, assigner):
        # Preferences are topic indices; names, known or not, are refused.
        for names in [("no-such-topic",), (assigner.topics[0],)]:
            with pytest.raises(PopulationError, match="integer index array"):
                assigner.assign_rows(
                    np.array([3]),
                    [derive_generator(1, "user", 0)],
                    preferred_topics=[names],
                    popularity_biases=[0.5],
                )

    @pytest.mark.parametrize("bad", [999, -1])
    def test_out_of_range_topic_index_rejected(self, assigner, bad):
        streams = [derive_generator(1, "user", 0)]
        with pytest.raises(PopulationError, match="unknown preferred topic index"):
            assigner.assign_rows(
                np.array([3]),
                streams,
                preferred_topics=[np.array([bad], dtype=np.int64)],
                popularity_biases=[0.5],
            )

    def test_duplicate_preferred_indices_rejected(self, assigner):
        rng = derive_generator(5, "user", 0)
        state = rng.bit_generator.state
        with pytest.raises(PopulationError, match="distinct"):
            assigner.assign_rows(
                np.array([11, 11]),
                [rng, derive_generator(5, "user", 1)],
                preferred_topics=[np.array([2, 2, 5]), np.array([1, 4, 6])],
                popularity_biases=[0.5, 0.5],
            )
        assert rng.bit_generator.state == state  # refused before any draw

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), None, "0.5"]
    )
    def test_non_finite_biases_rejected(self, assigner, bad):
        streams = [derive_generator(1, "user", r) for r in range(2)]
        with pytest.raises(PopulationError, match="finite number"):
            assigner.assign_rows(
                np.array([3, 3]),
                streams,
                preferred_topics=[np.array([1]), np.array([2])],
                popularity_biases=[0.5, bad],
            )

    def test_overflowing_bias_rejected(self, assigner):
        # audience ** 1000 overflows to inf: no finite topic weights.
        with pytest.raises(PopulationError, match="positive finite"):
            one_row(assigner, 3, 1, bias=1000.0)


class TestBoundedCaches:
    """The per-assigner bias-table cache never grows past its bound."""

    def test_bias_tables_bounded_under_adversarial_biases(self, catalog):
        fresh = InterestAssigner(catalog)
        for step in range(BIAS_TABLE_CACHE_SIZE + 150):
            one_row(fresh, 2, step, bias=0.001 * step)
        info = fresh.cache_info()
        assert info["bias_tables"] == BIAS_TABLE_CACHE_SIZE
        assert info["bias_tables_max"] == BIAS_TABLE_CACHE_SIZE

    def test_bias_tables_bounded_through_the_kernel(self, catalog):
        fresh = InterestAssigner(catalog)
        n_rows = BIAS_TABLE_CACHE_SIZE + 40
        counts = np.full(n_rows, 2, dtype=np.int64)
        biases = [0.001 * row for row in range(n_rows)]
        kernel_rows(fresh, counts, 9, "user", biases=biases)
        assert fresh.cache_info()["bias_tables"] <= BIAS_TABLE_CACHE_SIZE

    def test_panel_bias_space_never_evicts(self, catalog):
        # The jitter draw rounds to 2 decimals in [0.1, 0.95]: at most 86
        # distinct biases, comfortably inside the default bound, so the
        # panel path keeps every table resident.
        fresh = InterestAssigner(catalog)
        for step, bias in enumerate(JITTER_GRID):
            one_row(fresh, 2, step, bias=float(bias))
        assert fresh.cache_info()["bias_tables"] == JITTER_GRID.size


@dataclass(frozen=True)
class _FakeSpec:
    token: str

    def fingerprint(self) -> str:
        return f"fake:{self.token}"


class TestSpecMemoBounds:
    """The per-process spec memos are LRU-bounded with a clear() hook."""

    def test_maxsize_is_validated(self):
        with pytest.raises(ConfigurationError):
            SpecMemo(maxsize=0)

    def test_lru_eviction_and_rebuild(self):
        built: list[str] = []

        def build(spec):
            built.append(spec.token)
            return spec.token.upper()

        memo = SpecMemo(maxsize=2)
        a, b, c = _FakeSpec("a"), _FakeSpec("b"), _FakeSpec("c")
        assert memo.get_or_build(a, build) == "A"
        assert memo.get_or_build(b, build) == "B"
        assert memo.get_or_build(a, build) == "A"  # hit: a becomes MRU
        assert memo.get_or_build(c, build) == "C"  # evicts b, the LRU
        assert len(memo) == 2
        assert memo.get_or_build(b, build) == "B"  # miss again: rebuilt
        assert built == ["a", "b", "c", "b"]

    def test_clear_drops_everything(self):
        builds = []
        memo = SpecMemo(maxsize=4)
        spec = _FakeSpec("x")
        memo.get_or_build(spec, lambda s: builds.append(1) or object())
        memo.clear()
        assert len(memo) == 0
        memo.get_or_build(spec, lambda s: builds.append(1) or object())
        assert len(builds) == 2

    def test_resolve_assigner_memoises_per_process(self):
        spec = AssignerSpec(
            catalog_config=CatalogConfig(n_interests=60, n_topics=4, seed=3),
            catalog_seed=3,
        )
        try:
            first = resolve_assigner(spec)
            assert resolve_assigner(spec) is first
            clear_spec_memo()
            assert resolve_assigner(spec) is not first
        finally:
            clear_spec_memo()

    def test_exec_memo_exposes_the_same_hook(self):
        # The reach-model memo in repro.exec mirrors the assigner memo;
        # both clear hooks must be importable and runnable for test
        # isolation (the suite's fixtures call them between sessions).
        clear_exec_spec_memo()


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 202])
def test_sweep_scale_panel_matches_the_reference(seed):
    # The sweep's factor: a small catalog split over many biases, so the
    # (bias, topic) groups are tiny and rows need many rejection rounds.
    config = quick_config(8)
    catalog = build_catalog(config, seed=seed)
    built = build_panel(config, seed=seed, catalog=catalog)
    reference = oracles.reference_build_panel(config, seed=seed, catalog=catalog)
    assert built.columns.content_equals(reference.columns)
