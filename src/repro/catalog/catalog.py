"""The synthetic interest catalog.

The catalog plays the role of Facebook's global interest inventory: the set
of ~99k unique interests observed across the FDVT panel, each with a
worldwide audience size.  Every other subsystem (reach model, population
builder, FDVT panel, uniqueness analysis) draws interests from a single
shared catalog so their views of interest popularity are mutually
consistent.

Layout
------
The catalog is columnar.  Four columns, sorted by id, hold the content:
``ids`` and ``audiences`` (int64), ``topic_codes`` (the smallest unsigned
type that indexes ``topic_table``) and the ``names`` tuple.  The topic
table lists the taxonomy topics present in :data:`TOPICS` order, then any
other topic in order of first appearance.  Three structures are derived
once, at construction:

* the popularity order — a stable argsort of the audiences (ascending,
  ties by id); :meth:`~InterestCatalog.rarest` and
  :meth:`~InterestCatalog.most_popular` are slices of it;
* ``popularity_rank`` — its inverse, the (audience, id) rank of every
  position, which least-popular ordering sorts on;
* a per-topic CSR (``topic_order`` and ``topic_offsets``) whose slots list
  each topic's positions in ascending id order.

Nothing changes after construction, so any number of threads can share a
catalog.  The arrays are read-only and handed out without copying.
:class:`~repro.catalog.interest.Interest` objects are built only when a
caller asks for one (``get``, iteration, ``rarest``, ``most_popular``,
``by_topic``), one per id, and memoised; a path that needs only ids,
audiences or topics builds none.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .._rng import SeedLike, as_generator, derive_generator
from ..config import CatalogConfig
from ..errors import CatalogError, UnknownInterestError
from .interest import Interest
from .popularity import PopularityModel
from .taxonomy import TOPICS, interest_name, round_robin_topics

#: The paper's Appendix A user base: ~1.5B users over the 50 largest
#: Facebook countries.  The catalog generation default, the worker-rebuild
#: spec default (repro.reach.ReachModelSpec) and the catalog-stage cache
#: fingerprint (repro.pipeline.catalog_fingerprint) must all agree on this
#: value, so they all reference this constant.
DEFAULT_WORLD_POPULATION = 1_500_000_000.0

_TAXONOMY_INDEX = {topic: index for index, topic in enumerate(TOPICS)}


def _int64_column(values: Any, field: str) -> np.ndarray:
    """``values`` as a fresh 1-D int64 array; CatalogError unless integral."""
    array = np.asarray(values)
    if array.ndim != 1 or not np.can_cast(array.dtype, np.int64):
        raise CatalogError(f"{field} must be a 1-D integer array")
    return array.astype(np.int64)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class InterestCatalog:
    """An immutable, columnar collection of interests."""

    def __init__(self, interests: Iterable[Interest]) -> None:
        by_id: dict[int, Interest] = {}
        for interest in interests:
            if interest.interest_id in by_id:
                raise CatalogError(
                    f"duplicate interest id: {interest.interest_id}"
                )
            by_id[interest.interest_id] = interest
        if not by_id:
            raise CatalogError("a catalog must contain at least one interest")
        ordered = [by_id[key] for key in sorted(by_id)]
        table = tuple(dict.fromkeys(interest.topic for interest in ordered))
        code_of = {topic: code for code, topic in enumerate(table)}
        self._set_columns(
            [interest.interest_id for interest in ordered],
            [interest.audience_size for interest in ordered],
            [code_of[interest.topic] for interest in ordered],
            table,
            [interest.name for interest in ordered],
        )
        self._objects = ordered

    # -- construction -----------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        ids: Any,
        audiences: Any,
        topic_codes: Any,
        topic_table: Sequence[str],
        names: Sequence[str],
    ) -> "InterestCatalog":
        """Build a catalog from id-sorted columns, validating every one.

        ``ids`` must be strictly increasing and non-negative, ``audiences``
        non-negative, ``topic_codes`` indices into ``topic_table`` (whose
        entries are distinct, non-empty strings) and ``names`` non-empty
        strings; all columns must have one entry per interest.  The topic
        table is renumbered into the catalog's canonical order.
        """
        catalog = cls.__new__(cls)
        catalog._set_columns(ids, audiences, topic_codes, topic_table, names)
        return catalog

    @staticmethod
    def generate(
        config: CatalogConfig | None = None,
        *,
        world_population: float = DEFAULT_WORLD_POPULATION,
        seed: SeedLike = None,
    ) -> "InterestCatalog":
        """Generate a synthetic catalog according to ``config``.

        ``world_population`` caps the largest audiences; by default it
        matches the 1.5B-user base of the paper's Appendix A country set.
        Interest ``i`` gets id ``i``, the ``i``-th sampled audience and the
        topic :func:`~repro.catalog.taxonomy.topic_for_index` assigns it.
        """
        config = config or CatalogConfig()
        base_seed = config.seed if seed is None else seed
        rng = (
            base_seed
            if isinstance(base_seed, np.random.Generator)
            else derive_generator(int(base_seed), "catalog")
        )
        popularity = PopularityModel.from_config(config, world_population)
        audiences = popularity.sample(config.n_interests, rng)
        cycle = round_robin_topics(config.n_topics)
        indices = np.arange(audiences.size, dtype=np.int64)
        return InterestCatalog.from_columns(
            indices,
            audiences,
            indices % len(cycle),
            cycle,
            [interest_name(i, cycle[i % len(cycle)]) for i in range(audiences.size)],
        )

    def _set_columns(
        self,
        ids: Any,
        audiences: Any,
        topic_codes: Any,
        topic_table: Sequence[str],
        names: Sequence[str],
    ) -> None:
        ids = _int64_column(ids, "ids")
        audiences = _int64_column(audiences, "audiences")
        codes = _int64_column(topic_codes, "topic_codes")
        table = tuple(topic_table)
        names = tuple(names)
        n = ids.size
        if n == 0:
            raise CatalogError("a catalog must contain at least one interest")
        if not audiences.size == codes.size == len(names) == n:
            raise CatalogError("catalog columns must have one entry per interest")
        if ids[0] < 0 or not (ids[1:] > ids[:-1]).all():
            raise CatalogError("interest ids must be non-negative and strictly increasing")
        if (audiences < 0).any():
            raise CatalogError("audience sizes must be non-negative")
        if not all(isinstance(name, str) and name for name in names):
            raise CatalogError("interest names must be non-empty strings")
        if not all(isinstance(topic, str) and topic for topic in table) or len(
            set(table)
        ) != len(table):
            raise CatalogError("topic table entries must be distinct non-empty strings")
        if codes.min() < 0 or codes.max() >= len(table):
            raise CatalogError("topic codes must index the topic table")

        # Canonical topic numbering: taxonomy topics in TOPICS order, then
        # the rest by first appearance; unused table entries are dropped.
        used, first_position = np.unique(codes, return_index=True)
        first = dict(zip(used.tolist(), first_position.tolist()))
        canonical = sorted(
            first,
            key=lambda code: (
                _TAXONOMY_INDEX.get(table[code], len(TOPICS)),
                first[code],
            ),
        )
        renumber = np.zeros(len(table), dtype=np.int64)
        renumber[canonical] = np.arange(len(canonical))
        table = tuple(table[code] for code in canonical)
        codes = renumber[codes].astype(np.min_scalar_type(len(table) - 1))

        self._ids = _read_only(ids)
        self._audiences = _read_only(audiences)
        self._topic_codes = _read_only(codes)
        self._topic_table = table
        self._n_taxonomy_topics = sum(topic in _TAXONOMY_INDEX for topic in table)
        self._names = names
        order = np.argsort(audiences, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        self._order = _read_only(order)
        self._rank = _read_only(rank)
        topic_offsets = np.zeros(len(table) + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes, minlength=len(table)), out=topic_offsets[1:])
        self._topic_order = _read_only(np.argsort(codes, kind="stable"))
        self._topic_offsets = _read_only(topic_offsets)
        # Lookups go through a dict, so ``np.int64(3)`` and ``3.0`` find id
        # 3 while ``3.5`` and ``"x"`` do not.
        self._position_of = dict(zip(ids.tolist(), range(n)))
        self._objects: list[Interest | None] = [None] * n

    def __reduce__(self) -> tuple:
        # Pickle the columns only: unpickling rebuilds the derived
        # structures and leaves the columns read-only again.
        columns = (self._ids, self._audiences, self._topic_codes)
        return InterestCatalog.from_columns, (*columns, self._topic_table, self._names)

    # -- columns ----------------------------------------------------------

    @property
    def ids(self) -> np.ndarray:
        """Interest ids, ascending (read-only int64)."""
        return self._ids

    @property
    def audiences(self) -> np.ndarray:
        """Audience sizes in id order (read-only int64)."""
        return self._audiences

    @property
    def topic_codes(self) -> np.ndarray:
        """Each interest's index into :attr:`topic_table`, in id order (read-only)."""
        return self._topic_codes

    @property
    def topic_table(self) -> tuple[str, ...]:
        """Every topic in the catalog, in code order (taxonomy topics first)."""
        return self._topic_table

    @property
    def names(self) -> tuple[str, ...]:
        """Interest names in id order."""
        return self._names

    @property
    def popularity_rank(self) -> np.ndarray:
        """Each position's rank by ascending (audience, id) (read-only int64)."""
        return self._rank

    @property
    def topic_order(self) -> np.ndarray:
        """Positions grouped by topic code, ascending id within a topic (read-only).

        Topic ``c`` holds ``topic_order[topic_offsets[c]:topic_offsets[c + 1]]``.
        """
        return self._topic_order

    @property
    def topic_offsets(self) -> np.ndarray:
        """CSR offsets of each topic code's slot in :attr:`topic_order` (read-only)."""
        return self._topic_offsets

    def positions(self, interest_ids: Any) -> np.ndarray:
        """Positions of ``interest_ids`` (any shape) in the id-sorted columns.

        Raises :class:`UnknownInterestError` for the first id, in C order,
        that the catalog does not hold.
        """
        ids = np.asarray(interest_ids, dtype=np.int64)
        positions = np.minimum(np.searchsorted(self._ids, ids), self._ids.size - 1)
        mismatched = self._ids[positions] != ids
        if mismatched.any():
            raise UnknownInterestError(int(ids[mismatched][0]))
        return positions

    # -- basic container protocol -----------------------------------------

    def __len__(self) -> int:
        return self._ids.size

    def __iter__(self) -> Iterator[Interest]:
        return map(self._object, range(self._ids.size))

    def __contains__(self, interest_id: object) -> bool:
        return interest_id in self._position_of

    def get(self, interest_id: int) -> Interest:
        """Return the interest with ``interest_id`` or raise."""
        return self._object(self._position(interest_id))

    @property
    def interest_ids(self) -> np.ndarray:
        """Sorted array of all interest ids (a copy)."""
        return self._ids.copy()

    def _position(self, interest_id: object) -> int:
        position = self._position_of.get(interest_id)
        if position is None:
            raise UnknownInterestError(interest_id)
        return position

    def _object(self, position: int) -> Interest:
        # Two threads may both build the same object; either copy is equal.
        interest = self._objects[position]
        if interest is None:
            interest = Interest(
                interest_id=self._ids.item(position),
                name=self._names[position],
                topic=self._topic_table[self._topic_codes.item(position)],
                audience_size=self._audiences.item(position),
            )
            self._objects[position] = interest
        return interest

    # -- audience lookups ---------------------------------------------------

    def audience_size(self, interest_id: int) -> int:
        """Worldwide audience size of a single interest."""
        return self._audiences.item(self._position(interest_id))

    def name_of(self, interest_id: int) -> str:
        """Name of a single interest."""
        return self._names[self._position(interest_id)]

    def audience_sizes(self, interest_ids: Sequence[int]) -> np.ndarray:
        """Vector of audience sizes for a sequence of interest ids."""
        return self._audiences[self.positions(interest_ids)]

    def all_audience_sizes(self) -> np.ndarray:
        """Audience sizes of every interest in id order (a copy)."""
        return self._audiences.copy()

    def audience_percentiles(self, percentiles: Sequence[float]) -> np.ndarray:
        """Percentiles of the audience-size distribution (Figure 2)."""
        return np.percentile(self._audiences, list(percentiles))

    # -- topic and sampling helpers -----------------------------------------

    def topics(self) -> tuple[str, ...]:
        """Topics present in the catalog, in taxonomy order."""
        return self._topic_table[: self._n_taxonomy_topics]

    def by_topic(self, topic: str) -> tuple[Interest, ...]:
        """All interests belonging to ``topic``, in id order."""
        try:
            code = self._topic_table.index(topic)
        except ValueError:
            return ()
        start, stop = self._topic_offsets[code : code + 2].tolist()
        return tuple(map(self._object, self._topic_order[start:stop].tolist()))

    def rarest(self, n: int) -> tuple[Interest, ...]:
        """The ``n`` interests with the smallest audiences."""
        if n < 0:
            raise CatalogError("n must be non-negative")
        return tuple(map(self._object, self._order[:n].tolist()))

    def most_popular(self, n: int) -> tuple[Interest, ...]:
        """The ``n`` interests with the largest audiences.

        Tied audiences come in descending id order: the result is a prefix
        of the reversed stable popularity order, so a smaller call returns
        a prefix of a larger one.
        """
        if n < 0:
            raise CatalogError("n must be non-negative")
        return tuple(map(self._object, self._order[::-1][:n].tolist()))

    def sample_ids(
        self,
        n: int,
        seed: SeedLike = None,
        *,
        weights: np.ndarray | None = None,
        replace: bool = False,
    ) -> np.ndarray:
        """Sample ``n`` interest ids, optionally weighted."""
        if n < 0:
            raise CatalogError("n must be non-negative")
        if not replace and n > len(self):
            raise CatalogError("cannot sample more interests than the catalog holds")
        rng = as_generator(seed)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != self._ids.shape:
                raise CatalogError("weights must have one entry per interest")
            if not np.isfinite(weights).all() or (weights < 0).any():
                raise CatalogError("weights must be finite and non-negative")
            total = weights.sum()
            if total <= 0:
                raise CatalogError("weights must sum to a positive value")
            weights = weights / total
        return rng.choice(self._ids, size=n, replace=replace, p=weights)

    # -- serialisation -------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Serialise the whole catalog to a list of dictionaries."""
        table = self._topic_table
        return [
            {
                "interest_id": interest_id,
                "name": name,
                "topic": table[code],
                "audience_size": audience,
            }
            for interest_id, name, code, audience in zip(
                self._ids.tolist(),
                self._names,
                self._topic_codes.tolist(),
                self._audiences.tolist(),
            )
        ]

    @staticmethod
    def from_dicts(records: Iterable[dict]) -> "InterestCatalog":
        """Rebuild a catalog from :meth:`to_dicts` output."""
        return InterestCatalog(Interest.from_dict(record) for record in records)
