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
The least-popular strategy orders all rows in a single global sort of one
int64 key built from the catalog's popularity rank; the random strategy
shuffles each CSR row slice with the same per-user-id stream
:meth:`RandomSelection.order_interests` derives; any other strategy falls
back to its per-user ``order_interests``.
Every row is bit-identical to the per-user ordering either way.
:func:`ordered_interest_matrix` is the same call for a sequence of user
objects.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .._rng import SeedLike, as_generator, derive_generator, stable_hash
from ..adsapi.reachestimate import pad_id_rows
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
        arrays — no user objects.  Every id is resolved to its catalog
        position and ordered by row, then by the catalog's
        ``popularity_rank`` — the same ``(audience, id)`` ascending order
        the per-user tuple sort of :meth:`order_interests` produces, so
        every row is bit-identical to it.  Returns the padded id matrix and
        per-row counts (see :func:`ordered_interest_matrix_columns` for the
        layout).
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

    Resolve every id to its catalog position, sort one int64 key
    ``row * n_interests + popularity_rank[position]`` and pack the leading
    ``max_interests`` of each segment.  The rank is the catalog's
    ``(audience, id)`` order, so within a row the key orders exactly as
    the per-user tuple sort; two keys tie only for equal ids, so the sort
    need not be stable.
    """
    positions = catalog.positions(flat_ids)
    row_index = np.repeat(np.arange(len(full_counts), dtype=np.int64), full_counts)
    keys = row_index * len(catalog) + catalog.popularity_rank[positions]
    flat_sorted = flat_ids[np.argsort(keys)]
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
    return pad_id_rows(
        [
            strategy.order_interests(columns.user_at(row), catalog, max_interests)
            for row in range(start, stop)
        ]
    )


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
