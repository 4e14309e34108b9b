"""Columnar panel store: the million-user representation of a user set.

``PanelColumns`` holds what a list of :class:`~repro.population.user.
SyntheticUser` objects holds — ids, demographics and per-user interest
sets — as a handful of parallel numpy arrays, so panels scale to millions
of rows where the object representation runs out of memory (and patience)
around tens of thousands.

Memory model
------------
Demographics are parallel arrays over ``n`` users with small dtypes plus
code tables:

* ``user_ids: int64[n]`` — stable row identity (generated panels use
  ``arange(n)``; subsets keep their parent's ids);
* ``country_index: int16[n]`` into the ``country_codes`` tuple (the code
  table is per-store, so subsets share their parent's table);
* ``gender_index: int8[n]`` into the fixed :data:`GENDER_TABLE`;
* ``ages: int16[n]`` in years, ``-1`` encoding an undisclosed age.

Interest sets use a CSR (compressed sparse row) layout:

* ``indptr: int64[n + 1]`` — row ``u``'s interests live at
  ``interest_ids[indptr[u]:indptr[u + 1]]``, in assignment order (the
  same order the object path stores on ``SyntheticUser.interest_ids``);
* ``interest_ids: int32[nnz]`` — all rows concatenated.

Total footprint is ``13 bytes/user + 4 bytes/interest-occurrence``: a
1M-user panel with 200 interests per user is ~813 MB, versus several GB
of tuple-of-int objects — and every collection kernel consumes the CSR
slices directly, so the padded ``(id_matrix, counts)`` kernel input is
built without materialising a single Python object.

Bridge contract
---------------
``PanelColumns.from_users(users)`` and ``columns.to_users()`` are exact
inverses: round-tripping reproduces the same ``SyntheticUser`` tuples
bit-for-bit (ids, countries, genders, ages, interest order).  Builders
guarantee the stronger property that ``build(seed)`` decodes to exactly the
users a per-user reference loop would construct, because the batched
kernel consumes the same per-user RNG streams (see
:mod:`repro.population.generation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import PopulationError
from .demographics import (
    AGE_GROUP_BOUNDS,
    AGE_GROUP_CODES,
    AGE_GROUP_TABLE,
    GENDER_CODES,
    GENDER_TABLE,
    AgeGroup,
)
from .user import SyntheticUser

#: ``ages`` sentinel for an undisclosed (``None``) age.
AGE_UNDISCLOSED = -1

#: Disclosed-group upper bounds, ascending, for vectorised classification.
_AGE_EDGES = np.array(
    [AGE_GROUP_BOUNDS[group][1] for group in AGE_GROUP_TABLE[:4]], dtype=np.int64
)


def classify_age_codes(ages: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.population.demographics.classify_age`.

    Maps an ``int`` age array (``-1`` = undisclosed) to ``int8`` codes into
    :data:`AGE_GROUP_TABLE`; ages above the maturity bound classify as
    maturity, exactly like the scalar function.
    """
    ages = np.asarray(ages)
    if ages.size and int(ages.min()) < AGE_UNDISCLOSED:
        raise PopulationError("ages must be >= -1 (-1 encodes undisclosed)")
    disclosed = ages >= 0
    if bool((ages[disclosed] < 13).any()):
        raise PopulationError("Facebook users must be at least 13 years old")
    codes = np.searchsorted(_AGE_EDGES, ages, side="left").astype(np.int8)
    np.minimum(codes, 3, out=codes)
    codes[~disclosed] = AGE_GROUP_CODES[AgeGroup.UNDISCLOSED]
    return codes


@dataclass(frozen=True, eq=False)
class PanelColumns:
    """A columnar user set: parallel demographic arrays + CSR interests.

    See the module docstring for the layout and memory model.  Instances
    are immutable by convention: every consumer treats the arrays as
    read-only, and derived stores (:meth:`take`) copy rather than alias.
    """

    user_ids: np.ndarray
    country_codes: tuple[str, ...]
    country_index: np.ndarray
    gender_index: np.ndarray
    ages: np.ndarray
    indptr: np.ndarray
    interest_ids: np.ndarray
    _cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        coerce(self, "user_ids", np.ascontiguousarray(self.user_ids, dtype=np.int64))
        coerce(self, "country_codes", tuple(str(c) for c in self.country_codes))
        coerce(
            self,
            "country_index",
            np.ascontiguousarray(self.country_index, dtype=np.int16),
        )
        coerce(
            self, "gender_index", np.ascontiguousarray(self.gender_index, dtype=np.int8)
        )
        coerce(self, "ages", np.ascontiguousarray(self.ages, dtype=np.int16))
        coerce(self, "indptr", np.ascontiguousarray(self.indptr, dtype=np.int64))
        coerce(
            self,
            "interest_ids",
            np.ascontiguousarray(self.interest_ids, dtype=np.int32),
        )
        n = self.user_ids.shape[0]
        for name in ("country_index", "gender_index", "ages"):
            if getattr(self, name).shape != (n,):
                raise PopulationError(f"{name} must be a length-{n} column")
        if self.indptr.shape != (n + 1,):
            raise PopulationError("indptr must have n_users + 1 entries")
        if n and (self.indptr[0] != 0 or bool((np.diff(self.indptr) < 0).any())):
            raise PopulationError("indptr must start at 0 and be non-decreasing")
        if not n and self.indptr[0] != 0:
            raise PopulationError("indptr must start at 0 and be non-decreasing")
        if int(self.indptr[-1]) != self.interest_ids.shape[0]:
            raise PopulationError("indptr must cover interest_ids exactly")
        if n and np.unique(self.user_ids).shape[0] != n:
            raise PopulationError("user ids must be unique within a population")
        if n:
            if int(self.country_index.min()) < 0 or int(
                self.country_index.max()
            ) >= len(self.country_codes):
                raise PopulationError("country_index out of code-table range")
            if int(self.gender_index.min()) < 0 or int(self.gender_index.max()) >= len(
                GENDER_TABLE
            ):
                raise PopulationError("gender_index out of code-table range")
            disclosed = self.ages[self.ages != AGE_UNDISCLOSED]
            if disclosed.size and int(disclosed.min()) < 13:
                raise PopulationError("Facebook users must be at least 13 years old")

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.user_ids.shape[0])

    @property
    def n_users(self) -> int:
        """Number of rows (users) in the store."""
        return len(self)

    @property
    def nnz(self) -> int:
        """Total interest occurrences across all rows."""
        return int(self.interest_ids.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the column arrays (code table excluded)."""
        return int(
            self.user_ids.nbytes
            + self.country_index.nbytes
            + self.gender_index.nbytes
            + self.ages.nbytes
            + self.indptr.nbytes
            + self.interest_ids.nbytes
        )

    # -- row access -------------------------------------------------------------

    def interest_counts(self) -> np.ndarray:
        """Interests per row, ``int64[n]`` (a view-free diff of ``indptr``)."""
        return np.diff(self.indptr)

    def interest_row(self, row: int) -> np.ndarray:
        """Row ``row``'s interest ids (an ``int32`` view, assignment order)."""
        return self.interest_ids[self.indptr[row] : self.indptr[row + 1]]

    def age_group_index(self) -> np.ndarray:
        """Per-row :data:`AGE_GROUP_TABLE` codes (memoised)."""
        cached = self._cache.get("age_group_index")
        if cached is None:
            cached = classify_age_codes(self.ages)
            self._cache["age_group_index"] = cached
        return cached

    def user_at(self, row: int) -> SyntheticUser:
        """Materialise a single row as a :class:`SyntheticUser`."""
        age = int(self.ages[row])
        return SyntheticUser(
            user_id=int(self.user_ids[row]),
            country=self.country_codes[self.country_index[row]],
            gender=GENDER_TABLE[self.gender_index[row]],
            age=None if age == AGE_UNDISCLOSED else age,
            interest_ids=tuple(self.interest_row(row).tolist()),
        )

    # -- object bridge ------------------------------------------------------------

    @classmethod
    def from_users(cls, users: Iterable[SyntheticUser]) -> "PanelColumns":
        """Encode user objects into columns (exact inverse of :meth:`to_users`).

        The country code table is the sorted set of countries present, so
        two user lists with equal content encode to equal columns.
        """
        users = list(users)
        n = len(users)
        codes = tuple(sorted({user.country for user in users}))
        code_of = {code: i for i, code in enumerate(codes)}
        user_ids = np.fromiter(
            (user.user_id for user in users), dtype=np.int64, count=n
        )
        country_index = np.fromiter(
            (code_of[user.country] for user in users), dtype=np.int16, count=n
        )
        gender_index = np.fromiter(
            (GENDER_CODES[user.gender] for user in users), dtype=np.int8, count=n
        )
        ages = np.fromiter(
            (AGE_UNDISCLOSED if user.age is None else user.age for user in users),
            dtype=np.int16,
            count=n,
        )
        counts = np.fromiter(
            (user.interest_count for user in users), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        interest_ids = np.fromiter(
            (i for user in users for i in user.interest_ids),
            dtype=np.int32,
            count=int(indptr[-1]),
        )
        return cls(
            user_ids=user_ids,
            country_codes=codes,
            country_index=country_index,
            gender_index=gender_index,
            ages=ages,
            indptr=indptr,
            interest_ids=interest_ids,
        )

    def to_users(self) -> tuple[SyntheticUser, ...]:
        """Materialise every row (exact inverse of :meth:`from_users`)."""
        return tuple(self.user_at(row) for row in range(len(self)))

    # -- derived stores ------------------------------------------------------------

    def take(self, rows: np.ndarray | Sequence[int]) -> "PanelColumns":
        """A new store holding ``rows`` (bool mask or int row indices), in order.

        The country code table is shared with the parent so country codes
        keep their meaning across subsets.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        else:
            rows = rows.astype(np.int64, copy=False)
        counts = self.interest_counts()[rows]
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        interest_ids = np.empty(int(indptr[-1]), dtype=np.int32)
        starts = self.indptr[rows]
        # Gather each selected row's CSR segment: positions are the new
        # flat offsets shifted into the parent's segments.
        if interest_ids.size:
            shift = np.repeat(starts - indptr[:-1], counts)
            interest_ids[:] = self.interest_ids[
                np.arange(interest_ids.size, dtype=np.int64) + shift
            ]
        return PanelColumns(
            user_ids=self.user_ids[rows],
            country_codes=self.country_codes,
            country_index=self.country_index[rows],
            gender_index=self.gender_index[rows],
            ages=self.ages[rows],
            indptr=indptr,
            interest_ids=interest_ids,
        )

    # -- equality ---------------------------------------------------------------------

    def content_equals(self, other: "PanelColumns") -> bool:
        """True when both stores decode to identical user sequences.

        Compares decoded content (country *codes*, not table indices), so
        stores built through different paths — object bridge vs. columnar
        builders — compare equal exactly when their users are equal.
        """
        if len(self) != len(other):
            return False
        if not (
            np.array_equal(self.user_ids, other.user_ids)
            and np.array_equal(self.gender_index, other.gender_index)
            and np.array_equal(self.ages, other.ages)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.interest_ids, other.interest_ids)
        ):
            return False
        if self.country_codes == other.country_codes:
            return bool(np.array_equal(self.country_index, other.country_index))
        mine = np.asarray(self.country_codes, dtype=object)[self.country_index]
        theirs = np.asarray(other.country_codes, dtype=object)[other.country_index]
        return bool(np.array_equal(mine, theirs))
