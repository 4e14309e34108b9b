"""Parity suite for the batched interest-assignment kernel.

Pins :meth:`InterestAssigner.assign_rows` — the kernel behind
:func:`run_interest_shard` — against the scalar reference path bit-for-bit:

* **row parity** — ``assign_rows`` reproduces :meth:`InterestAssigner.assign`
  row by row for ragged and zero counts, clipped counts, preferred topics
  given as names or index arrays (including duplicates), default and
  per-row biases, and the multi-bias stacked-search path;
* **shard parity** — :func:`run_interest_shard` matches the per-user
  oracle ``oracles.run_interest_shard_reference`` for population- and
  panel-shaped tasks (jittered biases, in-stream age draws) and is
  invariant to how a row range is split into shards;
* **validation** — the kernel raises the same
  :class:`~repro.errors.PopulationError`\\ s as the scalar path;
* **bounded state** — the per-assigner derived-table caches and the
  per-process spec memos stay LRU-bounded under adversarial key streams
  (the long-lived-process leak this suite exists to prevent).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from repro._rng import derive_generator
from repro.cache import SpecMemo
from repro.catalog import InterestCatalog
from repro.config import CatalogConfig
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
from repro.population.assignment import (
    BIAS_TABLE_CACHE_SIZE,
    TOPIC_SELECTION_CACHE_SIZE,
)

from oracles import run_interest_shard_reference

TOPICS_PER_USER = 3

#: Ragged counts: zeros, singletons, mid-sized rows, one row clipped to the
#: catalog (forcing the rejection tail and the deterministic top-up).
RAGGED_COUNTS = np.array([0, 1, 3, 12, 37, 4, 0, 25, 7, 999, 5, 2], dtype=np.int64)


@pytest.fixture(scope="module")
def catalog():
    return InterestCatalog.generate(CatalogConfig(n_interests=400, n_topics=8, seed=9))


@pytest.fixture(scope="module")
def assigner(catalog):
    return InterestAssigner(catalog)


def kernel_rows(assigner, counts, seed, key, *, as_names=False, biases=None):
    """Run ``assign_rows`` on per-row derived streams (stages 3–4 only)."""
    streams, preferred = [], []
    for row in range(len(counts)):
        rng = derive_generator(seed, key, row)
        indices = assigner.sample_preferred_topic_indices(TOPICS_PER_USER, rng)
        if as_names:
            preferred.append(tuple(assigner.topics[int(i)] for i in indices))
        else:
            preferred.append(indices)
        streams.append(rng)
    return assigner.assign_rows(
        counts, streams, preferred_topics=preferred, popularity_biases=biases
    )


def reference_rows(assigner, counts, seed, key, *, biases=None):
    """One :meth:`assign` call per row on the row's own stream."""
    flat: list[int] = []
    lens: list[int] = []
    for row, n in enumerate(counts):
        rng = derive_generator(seed, key, row)
        names = assigner.sample_preferred_topics(TOPICS_PER_USER, rng)
        bias = None if biases is None else biases[row]
        ids = assigner.assign(
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


class TestRowParity:
    """assign_rows vs per-row assign on identical streams."""

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

    def test_names_and_indices_agree(self, assigner):
        # Topic names route through the cached scalar CDF builder, index
        # arrays through the batched one; the outputs must not differ.
        by_index = kernel_rows(assigner, RAGGED_COUNTS, 13, "user")
        by_name = kernel_rows(assigner, RAGGED_COUNTS, 13, "user", as_names=True)
        assert_rows_equal(by_name, by_index)
        assert_rows_equal(by_index, reference_rows(assigner, RAGGED_COUNTS, 13, "user"))

    def test_per_row_biases_including_duplicates_and_defaults(self, assigner):
        # None entries mean the default bias; repeated values share cached
        # tables; distinct values exercise the stacked multi-bias search.
        counts = np.array([9, 14, 6, 11, 9, 16, 3, 8], dtype=np.int64)
        biases = [None, 0.3, 0.77, 1.2, 0.3, None, 0.51, 0.9]
        assert_rows_equal(
            kernel_rows(assigner, counts, 37, "user", biases=biases),
            reference_rows(assigner, counts, 37, "user", biases=biases),
        )

    def test_single_shared_bias_uses_the_fast_stack(self, assigner):
        counts = np.array([7, 5, 21, 9], dtype=np.int64)
        biases = [0.45, 0.45, 0.45, 0.45]
        assert_rows_equal(
            kernel_rows(assigner, counts, 41, "user", biases=biases),
            reference_rows(assigner, counts, 41, "user", biases=biases),
        )

    def test_duplicate_preferred_indices_match_the_scalar_boost(self, assigner):
        # A duplicated preferred topic is boosted once per occurrence in
        # the scalar path; the kernel must reproduce that, not dedup it.
        counts = np.array([11, 11], dtype=np.int64)
        streams = [derive_generator(5, "user", row) for row in range(2)]
        dup = np.array([2, 2, 5], dtype=np.int64)
        flat, lens = assigner.assign_rows(
            counts, streams, preferred_topics=[dup, np.array([1, 4, 6])]
        )
        names = tuple(assigner.topics[i] for i in (2, 2, 5))
        expected = assigner.assign(
            11, derive_generator(5, "user", 0), preferred_topics=names
        )
        np.testing.assert_array_equal(flat[: lens[0]], np.array(expected))

    def test_no_preferred_topics(self, assigner):
        counts = np.array([6, 0, 13], dtype=np.int64)
        streams = [derive_generator(3, "user", row) for row in range(3)]
        flat, lens = assigner.assign_rows(counts, streams)
        expected_flat: list[int] = []
        for row in range(3):
            expected_flat.extend(
                assigner.assign(int(counts[row]), derive_generator(3, "user", row))
            )
        np.testing.assert_array_equal(flat, np.array(expected_flat, dtype=np.int64))
        np.testing.assert_array_equal(lens, counts)

    def test_empty_shard(self, assigner):
        flat, lens = assigner.assign_rows(np.zeros(0, dtype=np.int64), [])
        assert flat.size == 0
        assert lens.size == 0

    def test_all_zero_counts(self, assigner):
        counts = np.zeros(5, dtype=np.int64)
        streams = [derive_generator(1, "user", row) for row in range(5)]
        flat, lens = assigner.assign_rows(counts, streams)
        assert flat.size == 0
        np.testing.assert_array_equal(lens, counts)


class TestShardParity:
    """run_interest_shard vs its reference, and shard-split invariance."""

    def _population_task(self, assigner, start, stop, counts):
        return InterestShardTask(
            assigner=assigner,
            base_seed=101,
            seed_key="user",
            start=start,
            stop=stop,
            counts=counts[start:stop],
            topics_per_user=TOPICS_PER_USER,
        )

    def _panel_task(self, assigner, start, stop, counts):
        rng = np.random.default_rng(77)
        ages = rng.integers(0, 5, counts.size).astype(np.int16)
        return InterestShardTask(
            assigner=assigner,
            base_seed=202,
            seed_key="panel-user",
            start=start,
            stop=stop,
            counts=counts[start:stop],
            topics_per_user=TOPICS_PER_USER,
            age_group_index=ages[start:stop],
            base_bias=np.full(stop - start, 0.5),
            bias_jitter=0.1,
        )

    @pytest.mark.parametrize("shape", ["_population_task", "_panel_task"])
    def test_kernel_matches_reference(self, assigner, shape):
        counts = np.tile(RAGGED_COUNTS, 3)
        task = getattr(self, shape)(assigner, 0, counts.size, counts)
        flat_k, lens_k, ages_k = run_interest_shard(task)
        flat_r, lens_r, ages_r = run_interest_shard_reference(task)
        np.testing.assert_array_equal(flat_k, flat_r)
        np.testing.assert_array_equal(lens_k, lens_r)
        if ages_r is None:
            assert ages_k is None
        else:
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


class TestValidation:
    def test_one_stream_per_row_required(self, assigner):
        with pytest.raises(PopulationError, match="one stream per row"):
            assigner.assign_rows(np.array([3, 3]), [derive_generator(1, "user", 0)])

    def test_one_preferred_entry_per_row_required(self, assigner):
        streams = [derive_generator(1, "user", r) for r in range(2)]
        with pytest.raises(PopulationError, match="one preferred-topic entry"):
            assigner.assign_rows(
                np.array([3, 3]), streams, preferred_topics=[np.array([1])]
            )

    def test_one_bias_per_row_required(self, assigner):
        streams = [derive_generator(1, "user", r) for r in range(2)]
        with pytest.raises(PopulationError, match="one popularity bias"):
            assigner.assign_rows(np.array([3, 3]), streams, popularity_biases=[0.5])

    def test_negative_counts_rejected(self, assigner):
        with pytest.raises(PopulationError, match="non-negative"):
            assigner.assign_rows(np.array([3, -1]), [None, None])

    def test_unknown_topic_name_rejected(self, assigner):
        streams = [derive_generator(1, "user", 0)]
        with pytest.raises(PopulationError, match="unknown preferred topic"):
            assigner.assign_rows(
                np.array([3]), streams, preferred_topics=[("no-such-topic",)]
            )

    @pytest.mark.parametrize("bad", [999, -1])
    def test_out_of_range_topic_index_rejected(self, assigner, bad):
        # Index arrays take the batched CDF path, which must surface the
        # scalar path's canonical error, not an indexing crash.
        streams = [derive_generator(1, "user", 0)]
        with pytest.raises(PopulationError, match="unknown preferred topic index"):
            assigner.assign_rows(
                np.array([3]),
                streams,
                preferred_topics=[np.array([bad], dtype=np.int64)],
            )


class TestBoundedCaches:
    """The per-assigner derived-table caches never grow past their bounds."""

    def test_bias_tables_bounded_under_adversarial_biases(self, catalog):
        fresh = InterestAssigner(catalog)
        for step in range(BIAS_TABLE_CACHE_SIZE + 150):
            fresh.assign(2, seed=step, popularity_bias=0.001 * step)
        info = fresh.cache_info()
        assert info["bias_tables"] == BIAS_TABLE_CACHE_SIZE
        assert info["bias_tables_max"] == BIAS_TABLE_CACHE_SIZE

    def test_bias_tables_bounded_through_the_kernel(self, catalog):
        fresh = InterestAssigner(catalog)
        n_rows = BIAS_TABLE_CACHE_SIZE + 40
        counts = np.full(n_rows, 2, dtype=np.int64)
        streams = [derive_generator(9, "user", row) for row in range(n_rows)]
        biases = [0.001 * row for row in range(n_rows)]
        fresh.assign_rows(counts, streams, popularity_biases=biases)
        assert fresh.cache_info()["bias_tables"] <= BIAS_TABLE_CACHE_SIZE

    def test_topic_selections_bounded_under_adversarial_keys(self, catalog):
        fresh = InterestAssigner(catalog)
        topics = fresh.topics
        step = 0
        pairs = list(combinations(range(len(topics)), 2))
        while step < TOPIC_SELECTION_CACHE_SIZE + 100:
            i, j = pairs[step % len(pairs)]
            fresh.assign(
                1,
                seed=step,
                preferred_topics=(topics[i], topics[j]),
                popularity_bias=0.4 + 0.01 * (step // len(pairs)),
            )
            step += 1
        info = fresh.cache_info()
        assert info["topic_selections"] == TOPIC_SELECTION_CACHE_SIZE
        assert info["topic_selections_max"] == TOPIC_SELECTION_CACHE_SIZE

    def test_panel_bias_space_never_evicts(self, catalog):
        # The jitter draw rounds to 2 decimals in [0.1, 0.95]: at most 86
        # distinct biases, comfortably inside the default bound, so the
        # panel path keeps every table resident.
        fresh = InterestAssigner(catalog)
        for step, bias in enumerate(np.round(np.arange(0.10, 0.96, 0.01), 2)):
            fresh.assign(2, seed=step, popularity_bias=float(bias))
        assert fresh.cache_info()["bias_tables"] <= 86


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
