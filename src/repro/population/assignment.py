"""Correlated interest assignment.

Facebook infers a user's interests from their activity, which makes the
interests of one user strongly clustered: a handful of preferred topics
concentrate most of the assignments, and popular interests are assigned far
more often than unpopular ones — but not proportionally to their audience
(otherwise nobody would ever carry a 100-user interest, while the paper's
panel shows every user carries several very rare ones).

The assigner implements a two-stage model:

1. a *topic* is drawn for every assignment, with the user's preferred topics
   boosted by a multiplicative affinity factor;
2. an interest is drawn within the topic with probability proportional to
   ``audience_size ** popularity_bias`` (``popularity_bias < 1`` flattens the
   popularity distribution, guaranteeing a supply of rare interests in every
   profile).

The FDVT panel builder (:class:`~repro.fdvt.panel.PanelBuilder`) draws every
panellist's interests through one kernel, :meth:`InterestAssigner.assign_rows`,
which :func:`~repro.population.generation.run_interest_shard` feeds a shard
of rows at a time.  Each row consumes its own generator in the order of the
stream contract (stage 4 in :mod:`repro.population.generation`); because the
per-row streams are independent, attempt 1 is searched, deduped and
assembled for all rows at once:

* attempt 1: each row searches one uniform block against its topic CDF
  (``searchsorted(cdf, u, side="right")``, the search ``rng.choice(p=...)``
  runs), then draws one within-topic block that the topics take in
  ascending order;
* the within-topic draws are grouped by (bias, topic) with one stable
  argsort of a small-int key, and each group is one ``searchsorted``
  against that topic's CDF at that bias;
* one stable sort keeps each row's first occurrences;
* a row still short finishes in one draw: one exponential ``E`` per flat
  position, and the positions it lacks follow in ascending ``E / w``,
  where ``w`` is the chance one draw of attempt 1 lands there.  Drawing
  with replacement and keeping first occurrences is successive sampling,
  which exponential keys draw exactly in one pass (Efraimidis & Spirakis,
  *Weighted random sampling with a reservoir*, IPL 2006).

The per-user reference the kernel is pinned against bit for bit is
``oracles.ReferenceAssigner`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from .._rng import SeedLike, as_generator
from ..catalog import InterestCatalog
from ..errors import PopulationError

#: Bound on the per-bias tables: each holds the topics' base weights and
#: every topic's within-topic CDF end to end, one float64 per assignable
#: interest.  The panel's jitter draw rounds biases to 2 decimals inside
#: [0.1, 0.95] — at most 86 distinct values — so the default never evicts on
#: the panel path, while adversarial bias streams recycle LRU-first instead
#: of growing ``O(distinct biases × catalog size)`` state forever.
BIAS_TABLE_CACHE_SIZE = 128


def _concat_ranges(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])`` without the loop."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _first_occurrences(
    row_rep: np.ndarray, positions: np.ndarray, n_flat: int
) -> np.ndarray:
    """Indices of each (row, position)'s first draw, in draw order.

    Keying every draw by ``row * n_flat + position`` keeps the rows'
    spaces disjoint, so one stable sort dedups every row at once.
    """
    keys = row_rep * n_flat
    keys += positions
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.empty(order.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    kept = order[first]
    kept.sort()
    return kept


def _tail_positions(
    rng: np.random.Generator, weights: np.ndarray, held: np.ndarray, need: int
) -> np.ndarray:
    """The ``need`` positions a row attempt 1 left short takes next.

    One exponential ``E`` per position: the positions the row lacks follow
    in ascending ``E / w`` among positive weights, then in ascending ``E``
    among zero weights, ties in position order.
    """
    keys = rng.standard_exponential(weights.size)
    positive = weights > 0
    np.divide(keys, weights, out=keys, where=positive)
    free = np.ones(weights.size, dtype=bool)
    free[held] = False
    tail = _smallest(keys, np.flatnonzero(free & positive), need)
    if tail.size < need:
        rest = _smallest(keys, np.flatnonzero(free & ~positive), need - tail.size)
        tail = np.concatenate([tail, rest])
    return tail


def _smallest(keys: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` ascending ``candidates`` of smallest key, in key order.

    Only the keys at or below the ``k``-th smallest are sorted; a stable
    sort keeps ties in position order, as a stable sort of all would.
    """
    values = keys[candidates]
    if k < values.size:
        inside = values <= np.partition(values, k - 1)[k - 1]
        candidates, values = candidates[inside], values[inside]
    return candidates[np.argsort(values, kind="stable")[:k]]


class _BiasTables:
    """What every row drawn at one rounded bias shares.

    ``base_weights`` holds each topic's total ``audience ** bias`` weight;
    ``cdf`` holds every topic's within-topic CDF end to end over the flat
    position space, so topic ``t`` searches
    ``cdf[topic_offsets[t]:topic_offsets[t + 1]]``.
    """

    __slots__ = ("base_weights", "cdf")

    def __init__(self, base_weights: np.ndarray, cdf: np.ndarray) -> None:
        self.base_weights = base_weights
        self.cdf = cdf


class InterestAssigner:
    """Assigns correlated interest sets to synthetic users."""

    def __init__(
        self,
        catalog: InterestCatalog,
        *,
        topic_affinity_boost: float = 4.0,
        spec: object | None = None,
    ) -> None:
        if topic_affinity_boost < 1.0:
            raise PopulationError("topic_affinity_boost must be >= 1")
        #: Optional :class:`~repro.population.generation.AssignerSpec` that
        #: rebuilds this assigner worker-side; lets sharded generation ship
        #: a few config dataclasses across process boundaries instead of
        #: the whole catalog (see ``assigner_shard_payload``).
        self.spec = spec
        self._catalog = catalog
        self._boost = float(topic_affinity_boost)
        self._topics = catalog.topics()
        # Dense position space: the catalog's topic CSR lists the taxonomy
        # topics first (codes 0..len(topics) - 1), each in ascending id
        # order, so its leading slots give every assignable interest
        # exactly one flat position (offset of its topic + local index).
        # The other topics' ids follow in ascending id order: attempt 1
        # never draws them, and the tail ranks them last.
        self._topic_offsets = catalog.topic_offsets[: len(self._topics) + 1]
        n_flat = int(self._topic_offsets[-1])
        flat_positions = catalog.topic_order[:n_flat]
        self._flat_ids = catalog.ids[
            np.concatenate([flat_positions, np.sort(catalog.topic_order[n_flat:])])
        ]
        self._flat_audiences = catalog.audiences[flat_positions].astype(float)
        self._bias_cache: OrderedDict[float, _BiasTables] = OrderedDict()

    @property
    def catalog(self) -> InterestCatalog:
        """The catalog interests are assigned from."""
        return self._catalog

    @property
    def topics(self) -> tuple[str, ...]:
        """Topics available for preference selection."""
        return self._topics

    def cache_info(self) -> dict[str, int]:
        """Size and bound of the per-assigner bias-table cache."""
        return {
            "bias_tables": len(self._bias_cache),
            "bias_tables_max": BIAS_TABLE_CACHE_SIZE,
        }

    # -- public API -----------------------------------------------------------

    def sample_preferred_topic_indices(
        self, n_topics: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Pick ``n_topics`` distinct preferred topic indices for a user."""
        if n_topics < 1:
            raise PopulationError("n_topics must be >= 1")
        rng = as_generator(seed)
        count = min(n_topics, len(self._topics))
        return rng.choice(len(self._topics), size=count, replace=False)

    def assign_rows(
        self,
        counts: Sequence[int] | np.ndarray,
        streams: Sequence[Any],
        *,
        preferred_topics: Sequence[np.ndarray],
        popularity_biases: Sequence[float] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign interests for a whole shard of rows in one batched pass.

        ``streams`` carries one ``Generator`` per row, already advanced past
        the row's age/jitter/preferred-topic draws; ``preferred_topics``
        one 1-D integer array of distinct topic indices per row (what
        :meth:`sample_preferred_topic_indices` draws); ``popularity_biases``
        one finite bias per row, clamped at 0 and rounded to 3 decimals.
        Any other input raises :class:`PopulationError` before a stream is
        touched.

        Returns ``(flat_ids, row_counts)``: the concatenated per-row
        interest ids (``int64``, CSR order) and the per-row lengths, each
        request clipped to the catalog size.  Every row draws exactly what
        the stream contract prescribes, in its order, on its own generator;
        drawing every row's attempt before any row's tail cannot change a
        draw, so attempt 1's searches and dedup run over all rows at once.
        """
        counts_arr = np.asarray(counts, dtype=np.int64)
        n_rows = int(counts_arr.size)
        if len(streams) != n_rows:
            raise PopulationError("one stream per row is required")
        if len(preferred_topics) != n_rows:
            raise PopulationError("one preferred-topic entry per row is required")
        if n_rows and int(counts_arr.min()) < 0:
            raise PopulationError("n_interests must be non-negative")
        if not all(isinstance(rng, np.random.Generator) for rng in streams):
            raise PopulationError("every stream must be a numpy Generator")
        biases = self._checked_biases(popularity_biases, n_rows)
        pref_rows, pref_topics = self._checked_preferences(preferred_topics)

        row_counts = np.minimum(counts_arr, len(self._catalog))
        out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=out_offsets[1:])
        out = np.empty(int(out_offsets[-1]), dtype=np.int64)
        active = np.flatnonzero(row_counts)
        if not active.size:
            return out, row_counts

        # Per active row ("slot"): its bias table and its topic CDF.
        bias_index: dict[float, int] = {}
        bias_of_slot = np.array(
            [
                bias_index.setdefault(round(max(0.0, bias), 3), len(bias_index))
                for bias in biases[active].tolist()
            ],
            dtype=np.int64,
        )
        tables = [self._bias_tables(bias) for bias in bias_index]
        slot_of_row = np.cumsum(row_counts > 0) - 1
        boosted = row_counts[pref_rows] > 0
        topic_cdfs = self._topic_cdfs(
            tables,
            bias_of_slot,
            slot_of_row[pref_rows[boosted]],
            pref_topics[boosted],
        )
        rngs = [streams[row] for row in active.tolist()]
        targets = row_counts[active]
        n_active = active.size

        # Attempt 1 for every row, ``max(n, int(n * 1.25) + 4)`` draws (the
        # product is exact in float64, so the cast truncates as ``int``
        # does), then first-occurrence dedup.
        batch = np.maximum(targets, (targets * 1.25).astype(np.int64) + 4)
        row_rep, positions = self._first_attempt(
            rngs, batch, topic_cdfs, bias_of_slot, tables
        )
        kept_idx = _first_occurrences(row_rep, positions, self._flat_ids.size)
        kept_pos = positions[kept_idx]
        kept_counts = np.bincount(row_rep[kept_idx], minlength=n_active)
        kept_starts = np.zeros(n_active + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=kept_starts[1:])

        # Rows attempt 1 satisfied (the vast majority) fill the output in
        # one gather/scatter, truncated like the reference's ``chosen[:n]``;
        # the rest finish with one exponential-key draw each.
        starts = out_offsets[active]
        satisfied = kept_counts >= targets
        take = np.where(satisfied, targets, 0)
        span = _concat_ranges(take)
        out[np.repeat(starts, take) + span] = self._flat_ids[
            kept_pos[np.repeat(kept_starts[:-1], take) + span]
        ]
        # One short row at a time, so the tail's transient memory is a few
        # catalog-sized vectors whatever the number of short rows.
        for s in np.flatnonzero(~satisfied).tolist():
            held = kept_pos[kept_starts[s] : kept_starts[s + 1]]
            weights = self._tail_weights(topic_cdfs[s], tables[bias_of_slot[s]])
            tail = _tail_positions(rngs[s], weights, held, targets[s] - held.size)
            out[starts[s] : starts[s] + targets[s]] = self._flat_ids[
                np.concatenate([held, tail])
            ]
        return out, row_counts

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _checked_biases(popularity_biases: Any, n_rows: int) -> np.ndarray:
        """The per-row biases as float64, or a :class:`PopulationError`."""
        try:
            biases = np.asarray(popularity_biases)
        except ValueError:
            raise PopulationError("one popularity bias per row is required") from None
        if biases.shape != (n_rows,):
            raise PopulationError("one popularity bias per row is required")
        if biases.dtype.kind not in "fiu" or not np.isfinite(biases).all():
            raise PopulationError("every popularity bias must be a finite number")
        return biases.astype(np.float64)

    def _checked_preferences(
        self, preferred_topics: Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(row, topic)`` of every preferred topic, or a :class:`PopulationError`."""
        n_topics = len(self._topics)
        sizes = np.empty(len(preferred_topics), dtype=np.int64)
        for row, pref in enumerate(preferred_topics):
            if not (
                isinstance(pref, np.ndarray)
                and pref.ndim == 1
                and pref.dtype.kind in "iu"
            ):
                raise PopulationError(
                    "preferred topics must be a 1-D integer index array per row"
                )
            sizes[row] = pref.size
        topics = (
            np.concatenate(preferred_topics, dtype=np.int64)
            if len(preferred_topics)
            else np.zeros(0, dtype=np.int64)
        )
        unknown = (topics < 0) | (topics >= n_topics)
        if unknown.any():
            raise PopulationError(
                f"unknown preferred topic index: {int(topics[unknown][0])}"
            )
        rows = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        cells = np.sort(rows * n_topics + topics)
        if np.any(cells[1:] == cells[:-1]):
            raise PopulationError("preferred topic indices must be distinct")
        return rows, topics

    def _topic_cdfs(
        self,
        tables: list[_BiasTables],
        bias_of_slot: np.ndarray,
        pref_slots: np.ndarray,
        pref_topics: np.ndarray,
    ) -> np.ndarray:
        """Each slot's topic CDF, the one ``rng.choice(p=...)`` builds.

        The reference's per-row ops — copy the base weights, boost the
        preferred topics, normalise, cumsum, renormalise — run along the
        rows of one matrix, which leaves every float as the 1-D
        computation does.
        """
        weights = np.array([t.base_weights for t in tables])[bias_of_slot]
        weights[pref_slots, pref_topics] *= self._boost
        totals = weights.sum(axis=1)
        if not np.all((totals > 0) & np.isfinite(totals)):
            raise PopulationError("topic weights must sum to a positive finite value")
        weights /= totals[:, None]
        cdf = np.cumsum(weights, axis=1)
        cdf /= cdf[:, -1:]
        return cdf

    def _first_attempt(
        self,
        rngs: list[np.random.Generator],
        lens: np.ndarray,
        topic_cdfs: np.ndarray,
        bias_of_row: np.ndarray,
        tables: list[_BiasTables],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Attempt 1 of every row: ``(row of each draw, flat position)``.

        Row ``r`` draws ``lens[r]`` topic uniforms from ``rngs[r]`` and
        searches them against ``topic_cdfs[r]``, then draws ``lens[r]``
        within-topic uniforms.  The reference hands that block out in
        ascending topic order (``np.unique`` of the topic draws, one slice
        per topic), so each row's topics are rebuilt sorted from their
        (row, topic) counts and paired with its uniforms in turn.
        """
        n_rows, n_topics = len(rngs), len(self._topics)
        topic_parts: list[np.ndarray] = []
        uniform_parts: list[np.ndarray] = []
        for rng, topic_cdf, batch in zip(rngs, topic_cdfs, lens.tolist()):
            topic_parts.append(topic_cdf.searchsorted(rng.random(batch), side="right"))
            uniform_parts.append(rng.random(batch))
        row_rep = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
        per_topic = np.bincount(
            row_rep * n_topics + np.concatenate(topic_parts),
            minlength=n_rows * n_topics,
        )
        topics = np.repeat(np.tile(np.arange(n_topics), n_rows), per_topic)
        uniforms = np.concatenate(uniform_parts)

        # Within-topic phase: group the draws by (bias, topic) and search
        # each group against that topic's CDF at that bias; the results
        # scatter back to draw order, so order within a group is free.
        groups = bias_of_row[row_rep] * n_topics + topics
        n_groups = len(tables) * n_topics
        key = groups.astype(np.int16) if n_groups <= 1 << 15 else groups
        order = np.argsort(key, kind="stable")
        bounds = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(np.bincount(groups, minlength=n_groups), out=bounds[1:])
        sorted_uniforms = uniforms[order]
        found = np.empty(uniforms.size, dtype=np.int64)
        offsets = self._topic_offsets.tolist()
        edges = bounds.tolist()
        for group in np.flatnonzero(np.diff(bounds)).tolist():
            bias, topic = divmod(group, n_topics)
            lo, hi = edges[group], edges[group + 1]
            cdf = tables[bias].cdf[offsets[topic] : offsets[topic + 1]]
            found[lo:hi] = cdf.searchsorted(sorted_uniforms[lo:hi], side="right")
        # Every topic CDF ends at exactly 1.0 (its last sum divided by
        # itself), above every uniform, so no search runs past its topic.
        positions = self._topic_offsets[topics]
        positions[order] += found
        return row_rep, positions

    def _tail_weights(self, topic_cdf: np.ndarray, tables: _BiasTables) -> np.ndarray:
        """One row's chance that one draw of attempt 1 lands on each position.

        The position's topic step in the row's topic CDF times its step in
        the topic's within-topic CDF at the row's bias, the CDFs attempt 1
        searches.  Positions outside the taxonomy topics weigh 0, and so
        does an all-zero topic (its within-topic CDF is 0/0).
        """
        offsets = self._topic_offsets
        cdf = tables.cdf
        weights = np.zeros(self._flat_ids.size)
        within = weights[: offsets[-1]]
        np.subtract(cdf[1:], cdf[:-1], out=within[1:])
        within[offsets[:-1]] = cdf[offsets[:-1]]
        within *= np.repeat(np.diff(topic_cdf, prepend=0.0), np.diff(offsets))
        within[np.isnan(within)] = 0.0
        return weights

    def _bias_tables(self, bias: float) -> _BiasTables:
        """Base topic weights and within-topic CDFs for one rounded bias."""
        tables = self._bias_cache.get(bias)
        if tables is None:
            offsets = self._topic_offsets.tolist()
            base_weights = np.empty(len(self._topics), dtype=np.float64)
            cdf = np.empty(self._flat_audiences.size, dtype=np.float64)
            # A bias large enough to overflow the weights leaves them
            # non-finite; the topic-CDF check refuses such rows.
            with np.errstate(over="ignore", invalid="ignore"):
                for topic, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
                    powered = np.power(self._flat_audiences[lo:hi], bias)
                    base_weights[topic] = powered.sum()
                    np.cumsum(powered, out=cdf[lo:hi])
                    cdf[lo:hi] /= cdf[hi - 1]
            tables = _BiasTables(base_weights, cdf)
            self._bias_cache[bias] = tables
            if len(self._bias_cache) > BIAS_TABLE_CACHE_SIZE:
                self._bias_cache.popitem(last=False)
        else:
            self._bias_cache.move_to_end(bias)
        return tables
