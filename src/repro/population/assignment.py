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

Both the agent-based population and the FDVT panel use this assigner, so the
co-occurrence structure seen by the reach model and by the panel is the same.

Two call shapes expose the model:

* :meth:`InterestAssigner.assign` — one user at a time, the readable
  reference implementation every other path must match bit-for-bit;
* :meth:`InterestAssigner.assign_rows` — the batched kernel behind
  :func:`~repro.population.generation.run_interest_shard`.  Each row still
  consumes its own generator in exactly the reference order (the per-user
  streams are derived independently, so draws cannot merge across rows);
  the speedup comes from hoisting everything *around* the draws out of the
  per-row path: topic-probability CDFs cached per (preferred-topic set,
  rounded bias), within-topic CDFs precomputed per rounded bias, the
  ``rng.choice(p=...)`` validation/cumsum overhead replaced by a cached
  ``searchsorted``, and the rejection rounds' first-occurrence dedup
  vectorised over a dense position space instead of a per-id Python loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from .._rng import SeedLike, as_generator
from ..catalog import InterestCatalog
from ..errors import PopulationError

#: Bound on the per-bias precomputed tables (base topic weights + per-topic
#: CDFs).  The panel's jitter draw rounds biases to 2 decimals inside
#: [0.1, 0.95] — at most 86 distinct values — so the default never evicts on
#: the panel path, while adversarial bias streams recycle LRU-first instead
#: of growing ``O(distinct biases × n_topics)`` state forever.
BIAS_TABLE_CACHE_SIZE = 128

#: Bound on cached topic-selection CDFs keyed by (preferred-topic set,
#: rounded bias).  A miss only costs an O(n_topics) copy + cumsum; the cache
#: just hoists that across rows sharing a key, so a small bound suffices.
TOPIC_SELECTION_CACHE_SIZE = 512


def _concat_ranges(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])`` without the loop."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


class _BiasTables:
    """Per-rounded-bias tables shared by every row drawn at that bias.

    ``cdf_matrix`` stacks the per-topic within-topic CDFs row-per-topic
    (shorter topics padded with 1.0 — never reached, uniforms are < 1), so
    the batched kernel can binary-search all of a row's draws at once;
    ``topic_cdfs`` are views of the same rows for the scalar reference
    path, guaranteeing both paths read the very same floats.
    """

    __slots__ = ("base_weights", "cdf_matrix", "topic_cdfs")

    def __init__(
        self,
        base_weights: np.ndarray,
        cdf_matrix: np.ndarray,
        topic_cdfs: list[np.ndarray],
    ) -> None:
        self.base_weights = base_weights
        self.cdf_matrix = cdf_matrix
        self.topic_cdfs = topic_cdfs


class InterestAssigner:
    """Assigns correlated interest sets to synthetic users."""

    def __init__(
        self,
        catalog: InterestCatalog,
        *,
        topic_affinity_boost: float = 4.0,
        default_popularity_bias: float = 0.5,
        spec: object | None = None,
    ) -> None:
        if topic_affinity_boost < 1.0:
            raise PopulationError("topic_affinity_boost must be >= 1")
        if default_popularity_bias < 0.0:
            raise PopulationError("default_popularity_bias must be >= 0")
        #: Optional :class:`~repro.population.generation.AssignerSpec` that
        #: rebuilds this assigner worker-side; lets sharded generation ship
        #: a few config dataclasses across process boundaries instead of
        #: the whole catalog (see ``assigner_shard_payload``).
        self.spec = spec
        self._catalog = catalog
        self._boost = float(topic_affinity_boost)
        self._default_bias = float(default_popularity_bias)
        self._topics = catalog.topics()
        self._topic_index = {topic: idx for idx, topic in enumerate(self._topics)}
        # Dense position space for the batched kernel: the catalog's topic
        # CSR lists the taxonomy topics first (codes 0..len(topics) - 1),
        # each in ascending id order, so its leading slots give every
        # assignable interest exactly one flat position (offset of its
        # topic + local index), and dedup can run on a boolean mask
        # instead of a set.  The per-topic arrays are slices of it.
        self._topic_offsets = catalog.topic_offsets[: len(self._topics) + 1]
        self._topic_sizes = np.diff(self._topic_offsets)
        flat_positions = catalog.topic_order[: self._topic_offsets[-1]]
        self._flat_topic_ids = catalog.ids[flat_positions]
        flat_audiences = catalog.audiences[flat_positions].astype(float)
        bounds = list(
            zip(self._topic_offsets[:-1].tolist(), self._topic_offsets[1:].tolist())
        )
        self._topic_ids = [self._flat_topic_ids[a:b] for a, b in bounds]
        self._topic_audiences = [flat_audiences[a:b] for a, b in bounds]
        self._max_topic_size = int(self._topic_sizes.max()) if self._topic_ids else 0
        self._search_iters = self._max_topic_size.bit_length()
        self._bias_cache: OrderedDict[float, _BiasTables] = OrderedDict()
        self._selection_cache: OrderedDict[
            tuple[tuple[int, ...], float], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()

    @property
    def catalog(self) -> InterestCatalog:
        """The catalog interests are assigned from."""
        return self._catalog

    @property
    def topics(self) -> tuple[str, ...]:
        """Topics available for preference selection."""
        return self._topics

    def cache_info(self) -> dict[str, int]:
        """Sizes and bounds of the per-assigner derived-table caches."""
        return {
            "bias_tables": len(self._bias_cache),
            "bias_tables_max": BIAS_TABLE_CACHE_SIZE,
            "topic_selections": len(self._selection_cache),
            "topic_selections_max": TOPIC_SELECTION_CACHE_SIZE,
        }

    # -- public API -----------------------------------------------------------

    def sample_preferred_topic_indices(
        self, n_topics: int, seed: SeedLike = None
    ) -> np.ndarray:
        """Pick ``n_topics`` distinct preferred topic *indices* for a user.

        The draw behind :meth:`sample_preferred_topics`; the batched kernel
        uses the raw indices to skip the name round-trip.
        """
        if n_topics < 1:
            raise PopulationError("n_topics must be >= 1")
        rng = as_generator(seed)
        count = min(n_topics, len(self._topics))
        return rng.choice(len(self._topics), size=count, replace=False)

    def sample_preferred_topics(self, n_topics: int, seed: SeedLike = None) -> tuple[str, ...]:
        """Pick ``n_topics`` distinct preferred topics for a user."""
        chosen = self.sample_preferred_topic_indices(n_topics, seed)
        return tuple(self._topics[int(i)] for i in chosen)

    def assign(
        self,
        n_interests: int,
        seed: SeedLike = None,
        *,
        preferred_topics: Sequence[str] | None = None,
        popularity_bias: float | None = None,
    ) -> tuple[int, ...]:
        """Assign ``n_interests`` distinct interests to one user.

        Returns interest ids in assignment order (first occurrence order),
        which downstream selection strategies treat as the order in which an
        attacker might learn them.

        This is the reference implementation of the per-user stream:
        :meth:`assign_rows` must reproduce it bit-for-bit.
        """
        if n_interests < 0:
            raise PopulationError("n_interests must be non-negative")
        rng = as_generator(seed)
        total_available = len(self._catalog)
        n_interests = min(n_interests, total_available)
        if n_interests == 0:
            return ()

        bias = self._default_bias if popularity_bias is None else float(popularity_bias)
        bias = round(max(0.0, bias), 3)
        topic_probs = self._topic_probabilities(preferred_topics, bias)

        chosen: list[int] = []
        seen: set[int] = set()
        attempts = 0
        while len(chosen) < n_interests and attempts < 40:
            attempts += 1
            needed = n_interests - len(chosen)
            batch = max(needed, int(needed * 1.25) + 4)
            topic_draws = rng.choice(len(self._topics), size=batch, p=topic_probs)
            topics, topic_counts = np.unique(topic_draws, return_counts=True)
            # One bulk uniform draw sliced per topic in sorted-topic order:
            # the stream is identical to per-topic ``rng.random(count)``
            # calls (uniform draws are consumed left-to-right), but the
            # Generator overhead is paid once per batch.
            uniforms = rng.random(int(topic_counts.sum()))
            offset = 0
            for topic_idx, count in zip(topics, topic_counts):
                ids = self._draw_within_topic(
                    int(topic_idx), uniforms[offset : offset + int(count)], bias
                )
                offset += int(count)
                for interest_id in ids:
                    interest_id = int(interest_id)
                    if interest_id not in seen:
                        seen.add(interest_id)
                        chosen.append(interest_id)
        if len(chosen) < n_interests:
            # Deterministic top-up from interests not yet assigned.
            remaining = [
                int(i) for i in self._catalog.interest_ids if int(i) not in seen
            ]
            rng.shuffle(remaining)
            chosen.extend(remaining[: n_interests - len(chosen)])
        return tuple(chosen[:n_interests])

    def assign_rows(
        self,
        counts: Sequence[int] | np.ndarray,
        streams: Sequence[Any],
        *,
        preferred_topics: Sequence[Any] | None = None,
        popularity_biases: Sequence[float | None] | np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign interests for a whole shard of rows in one batched pass.

        ``streams`` carries one generator (or seed) per row, already
        advanced past the row's age/jitter/preferred-topic draws;
        ``preferred_topics`` one entry per row (topic-name sequence or the
        index array from :meth:`sample_preferred_topic_indices`, ``None``
        for no boost); ``popularity_biases`` one bias per row (``None``
        entries — or ``None`` for the whole argument — mean the default).

        Returns ``(flat_ids, row_counts)``: the concatenated per-row
        interest ids (``int64``, CSR order) and the per-row lengths.
        Bit-identical to calling :meth:`assign` once per row with the same
        stream — every draw (topic choice, within-topic uniforms, top-up
        shuffle) happens in the same order on the same generator; only the
        bookkeeping between draws is vectorised.

        The batching exploits that the per-row streams are independent:
        drawing every row's attempt ``k`` before any row's attempt
        ``k+1`` cannot change a single draw, so every round's
        within-topic lookups and dedup run over all still-unfinished
        rows at once (see :meth:`_finish_rows_batched` for rounds 2+);
        the deterministic top-up on exhaustion replays per row.
        """
        counts_arr = np.asarray(counts, dtype=np.int64)
        n_rows = int(counts_arr.size)
        if len(streams) != n_rows:
            raise PopulationError("one stream per row is required")
        if preferred_topics is not None and len(preferred_topics) != n_rows:
            raise PopulationError("one preferred-topic entry per row is required")
        if popularity_biases is not None and len(popularity_biases) != n_rows:
            raise PopulationError("one popularity bias per row is required")
        if n_rows and int(counts_arr.min()) < 0:
            raise PopulationError("n_interests must be non-negative")

        total_available = len(self._catalog)
        row_counts = np.minimum(counts_arr, total_available)
        out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=out_offsets[1:])
        out = np.empty(int(out_offsets[-1]), dtype=np.int64)
        flat_ids = self._flat_topic_ids
        n_flat = flat_ids.size

        # Round 1, draw phase — per row, in row order, exactly the
        # reference's first-attempt draws: one uniform block for the topic
        # choice and one for the within-topic lookups.  Nothing between
        # the two blocks consumes the stream, so the per-row work shrinks
        # to the two draws themselves; the topic search, the per-row sort
        # and the topic-CDF construction all run batched below.
        n_topics_count = len(self._topics)
        active_rows: list[int] = []
        active_rngs: list[np.random.Generator] = []
        active_uniforms: list[np.ndarray] = []
        active_bias: list[float] = []
        topic_uniforms: list[np.ndarray] = []
        bias_slots: dict[float, list[int]] = {}
        # Topic-CDF routing: rows whose preferred topics arrive as int
        # index arrays (the shard path) build their CDFs batched per
        # (bias, count) group; everything else — topic names, duplicate
        # indices, no preference — goes through the cached scalar builder.
        fast_groups: dict[tuple[float, int], tuple[list[int], list[np.ndarray]]] = {}
        plain_rows: list[tuple[int, Any, float]] = []
        for row in range(n_rows):
            n = int(row_counts[row])
            if n == 0:
                continue
            rng = as_generator(streams[row])
            raw_bias = None if popularity_biases is None else popularity_biases[row]
            bias = self._default_bias if raw_bias is None else float(raw_bias)
            bias = round(max(0.0, bias), 3)
            batch = max(n, int(n * 1.25) + 4)
            slot = len(active_rows)
            active_rows.append(row)
            active_rngs.append(rng)
            active_bias.append(bias)
            topic_uniforms.append(rng.random(batch))
            active_uniforms.append(rng.random(batch))
            bias_slots.setdefault(bias, []).append(slot)
            pref = None if preferred_topics is None else preferred_topics[row]
            if (
                isinstance(pref, np.ndarray)
                and pref.ndim == 1
                and pref.dtype.kind in "iu"
                and pref.size
            ):
                group = fast_groups.setdefault((bias, int(pref.size)), ([], []))
                group[0].append(slot)
                group[1].append(pref)
            else:
                plain_rows.append((slot, pref, bias))
        if not active_rows:
            return out, row_counts
        n_active = len(active_rows)

        # Topic-CDF matrix, one row per active slot.  Batched groups run
        # the very same elementwise ops the scalar builder runs per row
        # (copy → boost → normalise → cumsum → renormalise), each along
        # its own matrix row, so the floats are bit-identical to
        # ``_topic_selection``'s.
        topic_cdf_rows = np.empty((n_active, n_topics_count), dtype=np.float64)
        for (bias, _), (slots, prefs) in fast_groups.items():
            pref_matrix = np.array(prefs, dtype=np.int64)
            if pref_matrix.min() < 0 or pref_matrix.max() >= n_topics_count:
                for pref in prefs:
                    self._preferred_key(pref)  # raises the canonical error
            if pref_matrix.shape[1] > 1:
                sorted_pref = np.sort(pref_matrix, axis=1)
                dup = (sorted_pref[:, 1:] == sorted_pref[:, :-1]).any(axis=1)
                if dup.any():
                    # A duplicated index boosts its topic once per
                    # occurrence in the scalar path; route such rows
                    # through it verbatim.
                    keep = ~dup
                    for slot, pref in (
                        (s, p) for s, p, d in zip(slots, prefs, dup) if d
                    ):
                        plain_rows.append((slot, pref, bias))
                    slots = [s for s, k in zip(slots, keep) if k]
                    if not slots:
                        continue
                    pref_matrix = pref_matrix[keep]
            weights = np.repeat(
                self._bias_tables(bias).base_weights[None, :], len(slots), axis=0
            )
            weights[np.arange(len(slots))[:, None], pref_matrix] *= self._boost
            totals = weights.sum(axis=1)
            if np.any(totals <= 0):
                raise PopulationError("topic weights must sum to a positive value")
            weights /= totals[:, None]
            cdf = np.cumsum(weights, axis=1)
            cdf /= cdf[:, -1:]
            topic_cdf_rows[slots] = cdf
        for slot, pref, bias in plain_rows:
            topic_cdf_rows[slot] = self._topic_selection(
                self._preferred_key(pref), bias
            )[1]

        # Round 1, topic phase — every row's
        # ``searchsorted(topic_cdf, u, side="right")`` replayed as a
        # comparison count against the row's CDF (the insertion point *is*
        # the number of entries <= u), then each row's draws sorted by one
        # global sort of (slot, draw) keys: slot-major keys keep rows in
        # disjoint contiguous spans, so a flat sort orders every row
        # internally at once.  Sorted order is the exact uniform-to-topic
        # pairing of the reference's ``np.unique`` + slicing, which only
        # consumes per-topic counts.
        batch_lens = np.array([u.size for u in topic_uniforms], dtype=np.int64)
        draw_starts = np.zeros(n_active + 1, dtype=np.int64)
        np.cumsum(batch_lens, out=draw_starts[1:])
        u_cat = (
            topic_uniforms[0] if n_active == 1 else np.concatenate(topic_uniforms)
        )
        slot_rep = np.repeat(np.arange(n_active, dtype=np.int64), batch_lens)
        draw_keys = slot_rep * n_topics_count
        total_draws = int(u_cat.size)
        chunk = max(1, 4_000_000 // max(1, n_topics_count))
        for lo_i in range(0, total_draws, chunk):
            hi_i = min(total_draws, lo_i + chunk)
            draw_keys[lo_i:hi_i] += (
                topic_cdf_rows[slot_rep[lo_i:hi_i]] <= u_cat[lo_i:hi_i, None]
            ).sum(axis=1)
        draw_keys.sort()
        draw_keys -= slot_rep * n_topics_count

        # Round 1, search phase — one batched within-topic lookup for the
        # whole shard: the distinct biases' CDF matrices stack into one
        # 3-D array (a no-copy view when every row shares one bias, the
        # panel-population common case per shard chunk) and the bisection
        # gathers through a per-draw bias index.
        bias_list = list(bias_slots)
        if len(bias_list) == 1:
            cdf_stack = self._bias_tables(bias_list[0]).cdf_matrix[None]
            bias_of_draw = np.zeros(total_draws, dtype=np.int64)
        else:
            cdf_stack = np.stack(
                [self._bias_tables(b).cdf_matrix for b in bias_list]
            )
            bias_index = {b: i for i, b in enumerate(bias_list)}
            bias_of_slot = np.array(
                [bias_index[b] for b in active_bias], dtype=np.int64
            )
            bias_of_draw = np.repeat(bias_of_slot, batch_lens)
        u2_cat = (
            active_uniforms[0]
            if n_active == 1
            else np.concatenate(active_uniforms)
        )
        pos_all = self._bisect_positions_stacked(
            cdf_stack, bias_of_draw, draw_keys, u2_cat
        )

        # Round 1, dedup phase — first-occurrence dedup for every row in
        # one stable sort: keying each position by (row slot, position)
        # makes the rows' spaces disjoint, and re-sorting the surviving
        # indices restores the reference's row-major scan order.
        keys = slot_rep * n_flat
        keys += pos_all
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        kept_idx = order[first]
        kept_idx.sort()
        kept_pos = pos_all[kept_idx]
        kept_counts = np.bincount(
            keys[kept_idx] // n_flat, minlength=n_active
        ).astype(np.int64)
        kept_starts = np.zeros(n_active + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=kept_starts[1:])

        # Assembly — rows satisfied by round 1 (the vast majority) fill
        # the CSR output in one gather/scatter, truncated like the
        # reference's final ``chosen[:n]``; the rest keep drawing in
        # cross-row batched rounds.
        active_targets = row_counts[active_rows]
        active_starts = out_offsets[np.asarray(active_rows, dtype=np.int64)]
        satisfied = kept_counts >= active_targets
        take = np.where(satisfied, active_targets, 0)
        span = _concat_ranges(take)
        out[np.repeat(active_starts, take) + span] = flat_ids[
            kept_pos[np.repeat(kept_starts[:-1], take) + span]
        ]
        pending = np.flatnonzero(~satisfied)
        if pending.size:
            # Bound the pending × n_flat seen masks (a huge catalog with
            # many colliding rows would otherwise allocate freely); the
            # per-row streams are independent, so chunking cannot change
            # any draw.
            chunk_rows = max(1, 32_000_000 // max(1, n_flat))
            for lo in range(0, pending.size, chunk_rows):
                self._finish_rows_batched(
                    pending[lo : lo + chunk_rows],
                    active_rngs,
                    active_bias,
                    active_targets,
                    active_starts,
                    kept_pos,
                    kept_starts,
                    topic_cdf_rows,
                    out,
                )
        return out, row_counts

    # -- internals ------------------------------------------------------------

    def _bisect_positions_stacked(
        self,
        cdf_stack: np.ndarray,
        bias_of_draw: np.ndarray,
        topic_draws: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Dense flat positions for ``(bias, topic, uniform)`` draws, batched.

        A bisection computing exactly
        ``searchsorted(cdf_t, u, side="right")`` (then the reference's
        one-sided clamp) for every draw at once; ``cdf_stack`` stacks the
        per-bias CDF matrices and ``bias_of_draw`` selects each draw's
        matrix.  Comparisons read the very same floats the per-topic path
        reads — no arithmetic touches the CDF values or the uniforms — so
        the result is bit-identical regardless of how biases interleave.
        """
        topic_sizes = self._topic_sizes[topic_draws]
        lo = np.zeros(topic_draws.size, dtype=np.int64)
        hi = topic_sizes.copy()
        for _ in range(self._search_iters):
            active = lo < hi
            mid = (lo + hi) >> 1
            vals = cdf_stack[bias_of_draw, topic_draws, mid]
            go_right = active & (vals <= uniforms)
            shrink = active & ~go_right
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(shrink, mid, hi)
        positions = np.minimum(lo, topic_sizes - 1)
        positions += self._topic_offsets[topic_draws]
        return positions

    def _finish_rows_batched(
        self,
        slots: np.ndarray,
        rngs: list[np.random.Generator],
        biases: list[float],
        targets: np.ndarray,
        starts: np.ndarray,
        kept_pos: np.ndarray,
        kept_starts: np.ndarray,
        topic_cdf_rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Replay attempts 2..40 (and the top-up) for the unfinished rows.

        The same cross-row batching as round 1: every unfinished row's
        attempt ``k`` draws run before any row's attempt ``k+1`` — the
        independent per-row streams make the interleaving unobservable —
        so each round is one comparison-count topic phase, one stacked
        bisection and one global first-occurrence dedup, with positions
        already claimed by a row's earlier attempts masked out via a
        per-row ``seen`` plane.  Each per-row draw sequence mirrors
        :meth:`assign` draw for draw.
        """
        n_flat = self._flat_topic_ids.size
        n_topics_count = len(self._topics)
        n_pending = slots.size
        slot_list = slots.tolist()
        row_rngs = [rngs[s] for s in slot_list]
        row_targets = targets[slots]
        row_cdfs = topic_cdf_rows[slots]
        pieces: list[list[np.ndarray]] = []
        chosen = np.empty(n_pending, dtype=np.int64)
        seen = np.zeros((n_pending, n_flat), dtype=bool)
        for i, s in enumerate(slot_list):
            piece = kept_pos[kept_starts[s] : kept_starts[s + 1]]
            pieces.append([piece])
            chosen[i] = piece.size
            seen[i, piece] = True
        bias_list: list[float] = []
        bias_index: dict[float, int] = {}
        bias_of_row = np.empty(n_pending, dtype=np.int64)
        for i, s in enumerate(slot_list):
            bias = biases[s]
            found = bias_index.get(bias)
            if found is None:
                found = bias_index[bias] = len(bias_list)
                bias_list.append(bias)
            bias_of_row[i] = found
        if len(bias_list) == 1:
            cdf_stack = self._bias_tables(bias_list[0]).cdf_matrix[None]
        else:
            cdf_stack = np.stack(
                [self._bias_tables(b).cdf_matrix for b in bias_list]
            )

        alive = np.flatnonzero(chosen < row_targets)
        attempts = 1
        while alive.size and attempts < 40:
            attempts += 1
            needed = row_targets[alive] - chosen[alive]
            # Same truncation as the reference's int(needed * 1.25): the
            # product is exact in float64 at these magnitudes.
            lens = np.maximum(needed, (needed * 1.25).astype(np.int64) + 4)
            u1_parts: list[np.ndarray] = []
            u2_parts: list[np.ndarray] = []
            for i, batch in zip(alive.tolist(), lens.tolist()):
                rng = row_rngs[i]
                u1_parts.append(rng.random(batch))
                u2_parts.append(rng.random(batch))
            u1 = u1_parts[0] if len(u1_parts) == 1 else np.concatenate(u1_parts)
            u2 = u2_parts[0] if len(u2_parts) == 1 else np.concatenate(u2_parts)
            row_rep = np.repeat(alive, lens)
            draw_keys = row_rep * n_topics_count
            draw_keys += (row_cdfs[row_rep] <= u1[:, None]).sum(axis=1)
            draw_keys.sort()
            draw_keys -= row_rep * n_topics_count
            positions = self._bisect_positions_stacked(
                cdf_stack, bias_of_row[row_rep], draw_keys, u2
            )
            keys = row_rep * n_flat
            keys += positions
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            first = np.empty(order.size, dtype=bool)
            first[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
            kept_idx = order[first]
            kept_idx.sort()
            new_pos = positions[kept_idx]
            new_row = row_rep[kept_idx]
            unseen = ~seen[new_row, new_pos]
            new_pos = new_pos[unseen]
            new_row = new_row[unseen]
            seen[new_row, new_pos] = True
            counts_new = np.bincount(new_row, minlength=n_pending)
            splits = np.split(new_pos, np.cumsum(counts_new[alive])[:-1])
            for piece, i in zip(splits, alive.tolist()):
                if piece.size:
                    pieces[i].append(piece)
            chosen += counts_new
            alive = alive[chosen[alive] < row_targets[alive]]

        for i, s in enumerate(slot_list):
            row_pieces = pieces[i]
            row_positions = (
                row_pieces[0] if len(row_pieces) == 1 else np.concatenate(row_pieces)
            )
            row_ids = self._flat_topic_ids[row_positions]
            n = int(row_targets[i])
            if row_ids.size < n:
                row_ids = self._top_up(row_ids, n, row_rngs[i])
            start = int(starts[s])
            out[start : start + n] = row_ids[:n]

    def _top_up(self, chosen_ids: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Deterministic top-up, replaying :meth:`assign`'s exhausted path."""
        chosen = [int(i) for i in chosen_ids]
        seen = set(chosen)
        remaining = [int(i) for i in self._catalog.interest_ids if int(i) not in seen]
        rng.shuffle(remaining)
        chosen.extend(remaining[: n - len(chosen)])
        return np.array(chosen[:n], dtype=np.int64)

    def _preferred_key(self, preferred_topics: Any) -> tuple[int, ...]:
        """Canonical cache key for a row's preferred topics.

        Sorting is safe: the boost multiplies independent weight entries,
        so application order cannot change the resulting probabilities.
        """
        if preferred_topics is None or len(preferred_topics) == 0:
            return ()
        indices: list[int] = []
        for topic in preferred_topics:
            if isinstance(topic, (int, np.integer)):
                idx = int(topic)
                if not 0 <= idx < len(self._topics):
                    raise PopulationError(f"unknown preferred topic index: {idx}")
            else:
                found = self._topic_index.get(topic)
                if found is None:
                    raise PopulationError(f"unknown preferred topic: {topic!r}")
                idx = found
            indices.append(idx)
        indices.sort()
        return tuple(indices)

    def _topic_probabilities(
        self, preferred_topics: Sequence[str] | None, bias: float
    ) -> np.ndarray:
        return self._topic_selection(self._preferred_key(preferred_topics), bias)[0]

    def _topic_selection(
        self, preferred_key: tuple[int, ...], bias: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(probs, cdf)`` of the topic draw for one (preferred, bias) key.

        ``probs`` feeds the reference path's ``rng.choice(p=...)``; ``cdf``
        is the cumsum numpy's choice builds internally, cached so the
        batched kernel can replay the draw with a bare ``searchsorted``.
        """
        cache_key = (preferred_key, bias)
        entry = self._selection_cache.get(cache_key)
        if entry is None:
            weights = self._bias_tables(bias).base_weights.copy()
            for idx in preferred_key:
                weights[idx] *= self._boost
            total = weights.sum()
            if total <= 0:
                raise PopulationError("topic weights must sum to a positive value")
            probs = weights / total
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            entry = (probs, cdf)
            self._selection_cache[cache_key] = entry
            if len(self._selection_cache) > TOPIC_SELECTION_CACHE_SIZE:
                self._selection_cache.popitem(last=False)
        else:
            self._selection_cache.move_to_end(cache_key)
        return entry

    def _bias_tables(self, bias: float) -> _BiasTables:
        """Base topic weights and per-topic CDFs for one rounded bias."""
        tables = self._bias_cache.get(bias)
        if tables is None:
            base_weights = np.empty(len(self._topics), dtype=float)
            # One padding column past the longest topic keeps the kernel's
            # bisection gathers in bounds when an element has already
            # converged at ``lo == hi == topic size``; the pad value (1.0)
            # is never compared against a live interval.
            cdf_matrix = np.ones(
                (len(self._topics), self._max_topic_size + 1), dtype=np.float64
            )
            topic_cdfs: list[np.ndarray] = []
            for idx, audiences in enumerate(self._topic_audiences):
                powered = np.power(audiences, bias)
                base_weights[idx] = powered.sum()
                if powered.size:
                    cdf = np.cumsum(powered)
                    cdf = cdf / cdf[-1]
                    cdf_matrix[idx, : cdf.size] = cdf
                topic_cdfs.append(cdf_matrix[idx, : powered.size])
            tables = _BiasTables(base_weights, cdf_matrix, topic_cdfs)
            self._bias_cache[bias] = tables
            if len(self._bias_cache) > BIAS_TABLE_CACHE_SIZE:
                self._bias_cache.popitem(last=False)
        else:
            self._bias_cache.move_to_end(bias)
        return tables

    def _draw_within_topic(
        self, topic_idx: int, uniforms: np.ndarray, bias: float
    ) -> np.ndarray:
        ids = self._topic_ids[topic_idx]
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        cdf = self._bias_tables(bias).topic_cdfs[topic_idx]
        positions = np.searchsorted(cdf, uniforms, side="right")
        # Positions are already >= 0; only the top end can overflow (when a
        # uniform lands exactly on cdf[-1] == 1.0), so a one-sided minimum
        # replaces the two-sided clip on the hot path.
        positions = np.minimum(positions, ids.size - 1)
        return ids[positions]
