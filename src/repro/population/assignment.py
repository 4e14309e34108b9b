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
per-row streams are independent, every round of draws is searched, deduped
and assembled for all of its rows at once:

* per attempt, each row searches one uniform block against its topic CDF
  (``searchsorted(cdf, u, side="right")``, the search ``rng.choice(p=...)``
  runs), then draws one within-topic block that the topics take in
  ascending order;
* the within-topic draws are grouped by (bias, topic) with one stable
  argsort of a small-int key, and each group is one ``searchsorted``
  against that topic's CDF at that bias;
* one stable sort keeps each row's first occurrences; rows still short
  draw further rounds the same way, and a row that exhausts its attempts
  tops up with a shuffle of the ids it lacks.

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

#: Draw attempts per row before the deterministic top-up.
_MAX_ATTEMPTS = 40


def _concat_ranges(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])`` without the loop."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _batch_sizes(needed: np.ndarray) -> np.ndarray:
    """Draws per attempt, ``max(needed, int(needed * 1.25) + 4)`` per row.

    The product is exact in float64 at these magnitudes, so the cast
    truncates exactly as ``int`` does.
    """
    return np.maximum(needed, (needed * 1.25).astype(np.int64) + 4)


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
        self._topic_offsets = catalog.topic_offsets[: len(self._topics) + 1]
        flat_positions = catalog.topic_order[: self._topic_offsets[-1]]
        self._flat_topic_ids = catalog.ids[flat_positions]
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
        drawing every row's attempt ``k`` before any row's attempt ``k + 1``
        cannot change a draw, so each round's searches and dedup run over
        all of its rows at once.
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

        # Round 1 for every row, then first-occurrence dedup.
        slots = np.arange(n_active, dtype=np.int64)
        row_rep, positions = self._draw_round(
            rngs, slots, _batch_sizes(targets), topic_cdfs, bias_of_slot, tables
        )
        kept_idx = _first_occurrences(row_rep, positions, self._flat_topic_ids.size)
        kept_pos = positions[kept_idx]
        kept_counts = np.bincount(row_rep[kept_idx], minlength=n_active)
        kept_starts = np.zeros(n_active + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=kept_starts[1:])

        # Rows round 1 satisfied (the vast majority) fill the output in one
        # gather/scatter, truncated like the reference's ``chosen[:n]``;
        # the rest keep drawing.
        starts = out_offsets[active]
        satisfied = kept_counts >= targets
        take = np.where(satisfied, targets, 0)
        span = _concat_ranges(take)
        out[np.repeat(starts, take) + span] = self._flat_topic_ids[
            kept_pos[np.repeat(kept_starts[:-1], take) + span]
        ]
        pending = np.flatnonzero(~satisfied)
        # Bound the pending × n_flat seen planes; the streams are
        # independent, so chunking the rows cannot change any draw.
        chunk_rows = max(1, 32_000_000 // max(1, self._flat_topic_ids.size))
        for lo in range(0, pending.size, chunk_rows):
            chunk = pending[lo : lo + chunk_rows]
            rows = self._finish_rows(
                [rngs[s] for s in chunk.tolist()],
                targets[chunk],
                [kept_pos[kept_starts[s] : kept_starts[s + 1]] for s in chunk.tolist()],
                topic_cdfs[chunk],
                bias_of_slot[chunk],
                tables,
            )
            for s, row_ids in zip(chunk.tolist(), rows):
                out[starts[s] : starts[s] + targets[s]] = row_ids
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

    def _draw_round(
        self,
        rngs: list[np.random.Generator],
        rows: np.ndarray,
        lens: np.ndarray,
        topic_cdfs: np.ndarray,
        bias_of_row: np.ndarray,
        tables: list[_BiasTables],
    ) -> tuple[np.ndarray, np.ndarray]:
        """One attempt for each of ``rows``: ``(row of each draw, flat position)``.

        Row ``r = rows[i]`` draws ``lens[i]`` topic uniforms from
        ``rngs[r]`` and searches them against ``topic_cdfs[r]``, then draws
        ``lens[i]`` within-topic uniforms.  The reference hands that block
        out in ascending topic order (``np.unique`` of the topic draws, one
        slice per topic), so each row's topics are rebuilt sorted from
        their (row, topic) counts and paired with its uniforms in turn.
        """
        n_topics = len(self._topics)
        topic_parts: list[np.ndarray] = []
        uniform_parts: list[np.ndarray] = []
        for row, batch in zip(rows.tolist(), lens.tolist()):
            rng = rngs[row]
            topic_parts.append(
                topic_cdfs[row].searchsorted(rng.random(batch), side="right")
            )
            uniform_parts.append(rng.random(batch))
        local = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
        per_topic = np.bincount(
            local * n_topics + np.concatenate(topic_parts),
            minlength=rows.size * n_topics,
        )
        topics = np.repeat(np.tile(np.arange(n_topics), rows.size), per_topic)
        uniforms = np.concatenate(uniform_parts)

        # Within-topic phase: group the draws by (bias, topic) and search
        # each group against that topic's CDF at that bias; the results
        # scatter back to draw order, so order within a group is free.
        groups = bias_of_row[rows][local] * n_topics + topics
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
        return np.repeat(rows, lens), positions

    def _finish_rows(
        self,
        rngs: list[np.random.Generator],
        targets: np.ndarray,
        first_round: list[np.ndarray],
        topic_cdfs: np.ndarray,
        bias_of_row: np.ndarray,
        tables: list[_BiasTables],
    ) -> list[np.ndarray]:
        """Attempts 2..40 and the top-up for rows round 1 left short.

        ``first_round`` holds each row's round-1 positions; returns each
        row's ids.  Rounds run like round 1, with the positions a row
        already holds masked out through a per-row ``seen`` plane.
        """
        n_flat = self._flat_topic_ids.size
        n_rows = targets.size
        pieces = [[piece] for piece in first_round]
        chosen = np.array([piece.size for piece in first_round], dtype=np.int64)
        seen = np.zeros((n_rows, n_flat), dtype=bool)
        for i, piece in enumerate(first_round):
            seen[i, piece] = True

        alive = np.flatnonzero(chosen < targets)
        attempts = 1
        while alive.size and attempts < _MAX_ATTEMPTS:
            attempts += 1
            lens = _batch_sizes(targets[alive] - chosen[alive])
            row_rep, positions = self._draw_round(
                rngs, alive, lens, topic_cdfs, bias_of_row, tables
            )
            kept = _first_occurrences(row_rep, positions, n_flat)
            new_pos = positions[kept]
            new_row = row_rep[kept]
            unseen = ~seen[new_row, new_pos]
            new_pos = new_pos[unseen]
            new_row = new_row[unseen]
            seen[new_row, new_pos] = True
            counts_new = np.bincount(new_row, minlength=n_rows)
            splits = np.split(new_pos, np.cumsum(counts_new[alive])[:-1])
            for piece, i in zip(splits, alive.tolist()):
                if piece.size:
                    pieces[i].append(piece)
            chosen += counts_new
            alive = alive[chosen[alive] < targets[alive]]

        rows: list[np.ndarray] = []
        for i, row_pieces in enumerate(pieces):
            row_ids = self._flat_topic_ids[np.concatenate(row_pieces)]
            n = int(targets[i])
            if row_ids.size < n:
                row_ids = self._top_up(row_ids, n, rngs[i])
            rows.append(row_ids[:n])
        return rows

    def _top_up(
        self, chosen_ids: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The exhausted path: the catalog's unchosen ids, shuffled, fill the row.

        ``Generator.shuffle`` permutes an int64 array exactly as it does
        the reference's id list, from the same stream position.
        """
        ids = self._catalog.ids
        remaining = ids[~np.isin(ids, chosen_ids)]
        rng.shuffle(remaining)
        return np.concatenate([chosen_ids, remaining[: n - chosen_ids.size]])

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
