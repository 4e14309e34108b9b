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
* **exponential tail** — a row attempt 1 leaves short takes each next
  interest with probability proportional to its per-draw chance ``w``
  among those it lacks (a seeded chi² check), and zero-weight ids, an
  all-zero topic and non-taxonomy topics come last;
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
from repro.population.assignment import BIAS_TABLE_CACHE_SIZE, _tail_positions

import oracles
from oracles import ReferenceAssigner, run_interest_shard_reference

TOPICS_PER_USER = 3

#: Ragged counts: zeros, singletons, mid-sized rows, one row clipped to the
#: catalog (attempt 1 always leaves it short, so its exponential tail runs).
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
    """2–6 taxonomy topics of uneven sizes, one holding a single interest.

    Sometimes a topic outside the taxonomy joins them; ids are a drawn
    permutation, so topics interleave in id order.
    """
    n_topics = draw(st.integers(min_value=2, max_value=6))
    topics = draw(st.permutations(TOPICS))[:n_topics]
    sizes = [1] + draw(
        st.lists(
            st.integers(min_value=1, max_value=25),
            min_size=n_topics - 1,
            max_size=n_topics - 1,
        )
    )
    if draw(st.booleans()):
        topics.append("Outside the taxonomy")
        sizes.append(draw(st.integers(min_value=1, max_value=6)))
    ids = draw(st.permutations(range(sum(sizes))))
    interests = []
    for topic, size in zip(topics, sizes):
        for _ in range(size):
            audience = draw(st.integers(min_value=1, max_value=10**9))
            index = ids[len(interests)]
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


def interleaved_catalog(pairs) -> InterestCatalog:
    """A catalog of ``(topic, audience)`` pairs, ids in list order."""
    return InterestCatalog(
        [
            Interest(index, f"i{index}", topic, audience)
            for index, (topic, audience) in enumerate(pairs)
        ]
    )


T0, T1, T2 = TOPICS[:3]

#: Zero-audience interests in two topics, and ``T1`` all zero: at a bias
#: above 0 every one of them has per-draw chance 0.
ZERO_PAIRS = [
    (T0, 0), (T1, 0), (T0, 500), (T2, 40), (T1, 0), (T0, 0),
    (T2, 9000), (T0, 7), (T1, 0), (T2, 0), (T0, 120), (T2, 3),
]  # fmt: skip

#: Two topics outside the taxonomy, interleaved with each other and with
#: taxonomy ids, so their id order is not their topic-code order.
OTHER, ANOTHER = "Outside the taxonomy", "Also outside"
FOREIGN_PAIRS = [
    (T0, 50), (OTHER, 900), (T1, 8), (ANOTHER, 12), (T0, 3000), (OTHER, 20),
    (T2, 700), (ANOTHER, 300), (T1, 65), (T2, 1), (OTHER, 5), (T0, 44),
]  # fmt: skip


def expected_weights(catalog, preferred, bias, boost) -> dict[int, float]:
    """Each id's chance that one draw lands on it, from the model itself."""
    topics = catalog.topics()
    powered = {t: [i.audience_size**bias for i in catalog.by_topic(t)] for t in topics}
    topic_weights = np.array([sum(powered[t]) for t in topics])
    topic_weights[list(preferred)] *= boost
    topic_chances = topic_weights / topic_weights.sum()
    weights = dict.fromkeys(catalog.interest_ids.tolist(), 0.0)
    for chance, topic in zip(topic_chances, topics):
        total = sum(powered[topic])
        for interest, power in zip(catalog.by_topic(topic), powered[topic]):
            weights[interest.interest_id] = chance * power / total if total else 0.0
    return weights


def kernel_weights(assigner, preferred, bias) -> dict[int, float]:
    """The per-draw chances the kernel's tail ranks one row by."""
    tables = [assigner._bias_tables(bias)]
    slot = np.zeros(1, dtype=np.int64)
    topic_cdfs = assigner._topic_cdfs(
        tables, slot, np.zeros(len(preferred), dtype=np.int64), np.array(preferred)
    )
    weights = assigner._tail_weights(topic_cdfs[0], tables[0])
    return dict(zip(assigner._flat_ids.tolist(), weights.tolist()))


def whole_catalog_rows(assigner, n_rows, seed, *, preferred, bias):
    """Kernel and reference rows asking for every id, on shared streams."""
    n = len(assigner.catalog)
    kernel = assigner.assign_rows(
        np.full(n_rows, n),
        [derive_generator(seed, "user", row) for row in range(n_rows)],
        preferred_topics=[np.array(preferred, dtype=np.int64)] * n_rows,
        popularity_biases=np.full(n_rows, bias),
    )
    reference = ReferenceAssigner.of(assigner)
    names = [assigner.topics[t] for t in preferred]
    rows = [
        reference.assign(
            n,
            derive_generator(seed, "user", row),
            preferred_topics=names,
            popularity_bias=bias,
        )
        for row in range(n_rows)
    ]
    assert_rows_equal(
        kernel, (np.concatenate(rows), np.array([len(r) for r in rows]))
    )
    return kernel[0].reshape(n_rows, n)


def chi2_bound(dof: int, z: float = 4.75) -> float:
    """Wilson–Hilferty upper quantile of chi² (``z = 4.75``: about 1e-6)."""
    return dof * (1 - 2 / (9 * dof) + z * np.sqrt(2 / (9 * dof))) ** 3


class TestExponentialTail:
    """Rows attempt 1 leaves short finish by successive sampling on ``w``."""

    def test_next_picks_are_proportional_to_w_among_the_unheld(self):
        weights = np.array([0.02, 0.31, 0.0, 0.05, 0.17, 0.09, 0.2, 0.01, 0.15])
        held = np.array([1, 6])
        free = np.setdiff1d(np.flatnonzero(weights), held)
        p_first = np.zeros(weights.size)
        p_first[free] = weights[free] / weights[free].sum()
        # The second pick: the first is i with p_first[i], then j with
        # w_j / (W - w_i) among the rest.
        p_second = np.zeros(weights.size)
        for i in free:
            rest = free[free != i]
            p_second[rest] += p_first[i] * weights[rest] / weights[rest].sum()
        rng = np.random.default_rng(20211102)
        n_trials = 20_000
        picks = np.array(
            [_tail_positions(rng, weights, held, 2) for _ in range(n_trials)]
        )
        for column, expected in ((0, p_first), (1, p_second)):
            observed = np.bincount(picks[:, column], minlength=weights.size)
            assert observed[expected == 0].sum() == 0
            cells = expected > 0
            stat = (
                (observed[cells] - n_trials * expected[cells]) ** 2
                / (n_trials * expected[cells])
            ).sum()
            assert stat < chi2_bound(int(cells.sum()) - 1), (column, stat)
        assert not np.isin(picks, held).any()
        assert (picks[:, 0] != picks[:, 1]).all()

    @pytest.mark.parametrize("bias", [0.0, 0.6])
    @pytest.mark.parametrize("pairs", [ZERO_PAIRS, FOREIGN_PAIRS])
    def test_weights_are_the_per_draw_chances(self, pairs, bias):
        catalog = interleaved_catalog(pairs)
        assigner = InterestAssigner(catalog, topic_affinity_boost=3.0)
        got = kernel_weights(assigner, [1], bias)
        want = expected_weights(catalog, [1], bias, 3.0)
        assert sorted(got) == sorted(want)
        for interest_id, weight in want.items():
            assert np.isfinite(got[interest_id])
            assert (got[interest_id] == 0) == (weight == 0), interest_id
            assert got[interest_id] == pytest.approx(weight, rel=1e-12)

    def test_zero_weights_come_last_in_a_whole_catalog_request(self):
        catalog = interleaved_catalog(ZERO_PAIRS)
        assigner = InterestAssigner(catalog, topic_affinity_boost=3.0)
        # T1 is all zero: boosting it leaves it at 0 (no NaN key).
        rows = whole_catalog_rows(assigner, 40, 5, preferred=[1, 2], bias=0.6)
        zero_ids = {i for i, (_, audience) in enumerate(ZERO_PAIRS) if audience == 0}
        n_positive = len(ZERO_PAIRS) - len(zero_ids)
        for row in rows:
            assert sorted(row.tolist()) == list(range(len(ZERO_PAIRS)))
            assert set(row[n_positive:].tolist()) == zero_ids
        # The zero-weight ids still come in varying (exponential) orders.
        assert len({tuple(row[n_positive:]) for row in rows}) > 1

    def test_non_taxonomy_ids_come_last(self):
        catalog = interleaved_catalog(FOREIGN_PAIRS)
        assigner = InterestAssigner(catalog)
        assert OTHER not in assigner.topics and ANOTHER not in assigner.topics
        foreign = {i for i, (topic, _) in enumerate(FOREIGN_PAIRS) if topic not in TOPICS}
        rows = whole_catalog_rows(assigner, 30, 8, preferred=[0], bias=0.5)
        for row in rows:
            assert sorted(row.tolist()) == list(range(len(FOREIGN_PAIRS)))
            assert set(row[-len(foreign) :].tolist()) == foreign
        assert_rows_equal(
            kernel_rows(assigner, np.arange(12), 3, "user"),
            reference_rows(assigner, np.arange(12), 3, "user"),
        )

    def test_bias_zero_weighs_every_interest_of_a_topic_alike(self):
        catalog = interleaved_catalog(ZERO_PAIRS)
        assigner = InterestAssigner(catalog, topic_affinity_boost=3.0)
        # audience ** 0 is 1, zero audiences included: nothing weighs 0,
        # so zero-audience ids are drawn early as often as any other.
        rows = whole_catalog_rows(assigner, 20, 11, preferred=[0], bias=0.0)
        zero_ids = {i for i, (_, audience) in enumerate(ZERO_PAIRS) if audience == 0}
        assert any(set(row[: len(zero_ids)].tolist()) & zero_ids for row in rows)
        counts = np.array([0, 3, 7, 11, 12, 12, 9, 5])
        biases = np.zeros(counts.size)
        assert_rows_equal(
            kernel_rows(assigner, counts, 13, "user", biases=biases),
            reference_rows(assigner, counts, 13, "user", biases=biases),
        )


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
    # (bias, topic) groups are tiny, and a fifth or so of the rows (asking
    # for up to 8,950 of 12,375 interests) finish with the exponential tail.
    config = quick_config(8)
    catalog = build_catalog(config, seed=seed)
    built = build_panel(config, seed=seed, catalog=catalog)
    reference = oracles.reference_build_panel(config, seed=seed, catalog=catalog)
    assert built.columns.content_equals(reference.columns)
