"""Interest-selection strategies (Section 4.2).

The number of interests that make a user unique depends heavily on *which*
of their interests are combined.  The paper studies two strategies:

* **Least popular (LP)** — the attacker knows the user's full interest list
  and picks the rarest ones first; this yields the theoretical lower bound
  on uniqueness.
* **Random (R)** — the attacker knows a random subset of the user's
  interests, the realistic attack scenario used in the nanotargeting
  experiment.

Both strategies return a single *ordered* list per user whose length-``N``
prefixes are the combinations evaluated for each ``N``; this mirrors the
paper's construction, where interests are added one by one ("we keep adding
the following least popular interests sequentially one by one").

For panel-scale collection, :func:`ordered_interest_matrix_columns` reads
a row range straight out of a
:class:`~repro.population.columnar.PanelColumns` CSR store and resolves
every row's ordered ids into one padded ``(n_rows, width)`` id matrix.
The least-popular strategy orders all rows in a single global sort over
id-indexed catalog popularity arrays; the random strategy shuffles each CSR
row slice with the same per-user-id stream :meth:`RandomSelection.order_interests`
derives; any other strategy falls back to its per-user ``order_interests``.
Every row is bit-identical to the per-user ordering either way.
:func:`ordered_interest_matrix` is the same call for a sequence of user
objects.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .._rng import SeedLike, as_generator, derive_generator, stable_hash
from ..catalog import InterestCatalog
from ..errors import ModelError
from ..population.columnar import PanelColumns
from ..population.user import SyntheticUser


@runtime_checkable
class SelectionStrategy(Protocol):
    """Orders a user's interests for incremental combination."""

    #: Short name used in reports ("least_popular" or "random").
    name: str

    def order_interests(
        self, user: SyntheticUser, catalog: InterestCatalog, max_interests: int
    ) -> tuple[int, ...]:
        """Return up to ``max_interests`` interest ids in combination order."""
        ...  # pragma: no cover - protocol definition


class LeastPopularSelection:
    """Selects the user's rarest interests first."""

    name = "least_popular"

    def order_interests(
        self, user: SyntheticUser, catalog: InterestCatalog, max_interests: int
    ) -> tuple[int, ...]:
        """Rarest interests of the user, ascending by worldwide audience."""
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        audiences = [(catalog.audience_size(i), i) for i in user.interest_ids]
        audiences.sort()
        return tuple(interest_id for _, interest_id in audiences[:max_interests])

    def order_interests_matrix_columns(
        self,
        columns: PanelColumns,
        catalog: InterestCatalog,
        max_interests: int,
        start: int = 0,
        stop: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ordering over rows ``[start, stop)`` of a CSR store.

        The flat id fragment and per-row lengths come straight off the CSR
        arrays — no user objects.  Every id is resolved against the
        catalog's id-indexed audience array with one ``searchsorted`` and
        ordered with one global ``lexsort`` keyed ``(row, audience, id)`` —
        the same ``(audience, id)`` ascending order the per-user tuple sort
        of :meth:`order_interests` produces, so every row is bit-identical
        to it.  Returns the padded id matrix and per-row counts (see
        :func:`ordered_interest_matrix_columns` for the layout).
        """
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        stop = len(columns) if stop is None else stop
        flat_ids = columns.interest_ids[
            columns.indptr[start] : columns.indptr[stop]
        ].astype(np.int64)
        full_counts = np.diff(columns.indptr[start : stop + 1])
        return _order_least_popular_flat(flat_ids, full_counts, catalog, max_interests)


class RandomSelection:
    """Selects a random subset of the user's interests.

    Each user gets an independent, deterministic shuffle derived from the
    strategy seed and the user id, so that repeated runs reproduce the same
    combinations (and so that bootstrapping over users stays meaningful).
    """

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        rng = as_generator(seed)
        self._base_seed = int(rng.integers(0, 2**62))

    def order_interests(
        self, user: SyntheticUser, catalog: InterestCatalog, max_interests: int
    ) -> tuple[int, ...]:
        """A random permutation of the user's interests, truncated."""
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        rng = derive_generator(self._base_seed, "random-selection", user.user_id)
        interests = np.array(user.interest_ids, dtype=np.int64)
        rng.shuffle(interests)
        return tuple(int(i) for i in interests[:max_interests])

    def order_interests_matrix_columns(
        self,
        columns: PanelColumns,
        catalog: InterestCatalog,
        max_interests: int,
        start: int = 0,
        stop: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row shuffles over rows ``[start, stop)`` of a CSR store.

        Each row's slice is copied to int64 and shuffled with the stream
        derived from its user id — the draw sequence depends only on the
        row length, so it matches :meth:`order_interests` exactly.
        """
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        stop = len(columns) if stop is None else stop
        full_counts = np.diff(columns.indptr[start : stop + 1])
        counts = np.minimum(full_counts, max_interests)
        flat_parts: list[np.ndarray] = []
        for row in range(start, stop):
            rng = derive_generator(
                self._base_seed, "random-selection", int(columns.user_ids[row])
            )
            interests = columns.interest_row(row).astype(np.int64)
            rng.shuffle(interests)
            flat_parts.append(interests)
        flat_sorted = (
            np.concatenate(flat_parts) if flat_parts else np.zeros(0, dtype=np.int64)
        )
        return _pack_ordered_rows(flat_sorted, full_counts, counts)


def _order_least_popular_flat(
    flat_ids: np.ndarray,
    full_counts: np.ndarray,
    catalog: InterestCatalog,
    max_interests: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Global least-popular sort of concatenated per-user id segments.

    Resolve every id against the catalog's id-indexed audience array with
    one ``searchsorted``, order with one ``lexsort`` keyed ``(row,
    audience, id)``, and pack the leading ``max_interests`` of each
    segment.
    """
    sorted_ids = catalog.interest_ids
    positions = np.searchsorted(sorted_ids, flat_ids)
    positions = np.minimum(positions, len(sorted_ids) - 1)
    mismatched = sorted_ids[positions] != flat_ids
    if mismatched.any():
        # Defer to the scalar path's error for the first offending id.
        catalog.get(int(flat_ids[np.argmax(mismatched)]))
    flat_audiences = catalog.all_audience_sizes()[positions]
    row_index = np.repeat(np.arange(len(full_counts)), full_counts)
    order = np.lexsort((flat_ids, flat_audiences, row_index))
    flat_sorted = flat_ids[order]
    counts = np.minimum(full_counts, max_interests)
    return _pack_ordered_rows(flat_sorted, full_counts, counts)


def _pack_ordered_rows(
    flat_sorted: np.ndarray, full_counts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the first ``counts[u]`` entries of each user's sorted segment.

    ``flat_sorted`` concatenates every user's fully ordered interest ids
    (segment ``u`` has length ``full_counts[u]``); the result is the padded
    ``(n_users, width)`` matrix of the leading ``counts[u]`` ids per row,
    padded with ``-1``.
    """
    n_users = len(full_counts)
    width = int(counts.max()) if n_users else 0
    matrix = np.full((n_users, width), -1, dtype=np.int64)
    if width:
        starts = np.concatenate(([0], np.cumsum(full_counts[:-1])))
        columns = np.arange(width)[None, :]
        valid = columns < counts[:, None]
        matrix[valid] = flat_sorted[(starts[:, None] + columns)[valid]]
    return matrix, counts


def pad_id_rows(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged ordered id rows into the padded bulk-kernel layout.

    Returns ``(id_matrix, counts)`` in the convention every bulk kernel
    consumes (``-1`` padding, ``width = max(counts)``; see
    :func:`ordered_interest_matrix_columns`).  This is the entry point for callers
    whose rows are already ordered — the countermeasure workload evaluation
    and the nanotargeting planner — so the padding convention lives in one
    place.
    """
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    flat = np.fromiter(
        (int(i) for row in rows for i in row),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    return _pack_ordered_rows(flat, counts, counts)


def ordered_interest_matrix(
    strategy: SelectionStrategy,
    users: Sequence[SyntheticUser],
    catalog: InterestCatalog,
    max_interests: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered interest ids of ``users`` as one padded id matrix.

    Encodes the users into a :class:`PanelColumns` store and delegates to
    :func:`ordered_interest_matrix_columns`.
    """
    return ordered_interest_matrix_columns(
        strategy, PanelColumns.from_users(users), catalog, max_interests
    )


def ordered_interest_matrix_columns(
    strategy: SelectionStrategy,
    columns: PanelColumns,
    catalog: InterestCatalog,
    max_interests: int,
    start: int = 0,
    stop: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered id matrix for rows ``[start, stop)`` of a CSR store.

    Returns ``(id_matrix, counts)`` where ``id_matrix`` is a
    ``(n_rows, width)`` int64 matrix (``width = max(counts)``, capped at
    ``max_interests``): row ``r`` holds
    ``strategy.order_interests(columns.user_at(start + r), catalog,
    max_interests)`` in its first ``counts[r]`` cells and ``-1`` padding
    beyond.  Built-in strategies consume the CSR slice directly via
    ``order_interests_matrix_columns``; a strategy without that hook gets
    its protocol users materialised row by row, with the same result.
    """
    if max_interests < 1:
        raise ModelError("max_interests must be >= 1")
    stop = len(columns) if stop is None else stop
    column_order = getattr(strategy, "order_interests_matrix_columns", None)
    if column_order is not None:
        return column_order(columns, catalog, max_interests, start, stop)
    ordered_rows = [
        strategy.order_interests(columns.user_at(row), catalog, max_interests)
        for row in range(start, stop)
    ]
    counts = np.array([len(row) for row in ordered_rows], dtype=np.int64)
    flat_sorted = np.fromiter(
        (i for row in ordered_rows for i in row),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    return _pack_ordered_rows(flat_sorted, counts, counts)


def nested_subsets(
    ordered_interests: Sequence[int], sizes: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    """Build the nested interest sets used by the nanotargeting experiment.

    The paper builds its 22-interest campaign from a random selection and
    derives the 20-, 18-, 12-, 9-, 7- and 5-interest campaigns by removing
    interests from the previous set; equivalently, every campaign uses a
    prefix of one ordered list.  Sizes larger than the available list raise.
    """
    ordered = tuple(int(i) for i in ordered_interests)
    if len(set(ordered)) != len(ordered):
        raise ModelError("ordered_interests must not contain duplicates")
    subsets: dict[int, tuple[int, ...]] = {}
    for size in sizes:
        if size < 1:
            raise ModelError("subset sizes must be positive")
        if size > len(ordered):
            raise ModelError(
                f"cannot build a subset of {size} interests from only {len(ordered)}"
            )
        subsets[int(size)] = ordered[:size]
    return subsets


def strategy_fingerprint(strategy: SelectionStrategy) -> int:
    """A stable fingerprint used to cache collections per strategy."""
    return stable_hash(type(strategy).__name__, getattr(strategy, "name", ""))
