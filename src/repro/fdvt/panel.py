"""The synthetic FDVT panel.

The FDVT browser extension collected, for each of 2,390 real users, the list
of interests Facebook had assigned to them plus a few optional demographic
attributes.  The real dataset is private; :class:`PanelBuilder` generates a
synthetic panel that reproduces the published marginals:

* the exact country breakdown of Appendix B (Table 4);
* the gender split (1,949 men / 347 women / 94 undisclosed) and the Erikson
  age-group split of Section 3;
* the interests-per-user distribution of Figure 1 (range 1-8,950, median
  426);
* interest popularity profiles consistent with the shared catalog and the
  shared correlated assignment model.

Demographic groups receive slightly different popularity biases so that the
directional differences of Appendix C (women, adolescents and Argentinian
users need more random interests to become unique) emerge from the data.

Every panel is backed by one
:class:`~repro.population.columnar.PanelColumns` store.
:meth:`PanelBuilder.build` generates it directly (its interest shards
run through the batched
:meth:`~repro.population.assignment.InterestAssigner.assign_rows` kernel;
see :mod:`repro.population.generation`'s stream contract), and a panel
built from user objects (:class:`FDVTPanel` itself, :meth:`FDVTPanel.from_dicts`)
encodes its store once, at construction.  Every dataset statistic is an
array sweep, demographic sub-panels are boolean-mask cuts, and user objects
are only decoded when an accessor (:attr:`FDVTPanel.users`, iteration,
:meth:`FDVTPanel.get`) asks for them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .._rng import SeedLike, derive_generator, resolve_seed
from ..catalog import InterestCatalog
from ..config import PanelConfig
from ..errors import PanelError
from ..exec import ShardExecutor
from ..population.assignment import InterestAssigner
from ..population.columnar import (
    AGE_GROUP_CODES,
    AGE_GROUP_TABLE,
    GENDER_CODES,
    GENDER_TABLE,
    PanelColumns,
)
from ..population.demographics import AgeGroup, Gender
from ..population.generation import (
    InterestShardTask,
    assigner_shard_payload,
    run_interest_shard,
)
from ..population.sampling import InterestCountModel
from ..population.user import SyntheticUser
from .appendix_b import PANEL_COUNTRY_COUNTS, expanded_country_assignments

#: Popularity-bias offsets that seed the directional demographic differences
#: reported in Appendix C.  A larger bias means more popular interests and
#: therefore more interests needed to become unique.
GENDER_BIAS_OFFSETS: dict[Gender, float] = {
    Gender.MALE: 0.0,
    Gender.FEMALE: 0.055,
    Gender.UNDISCLOSED: 0.02,
}

AGE_BIAS_OFFSETS: dict[AgeGroup, float] = {
    AgeGroup.ADOLESCENCE: 0.08,
    AgeGroup.EARLY_ADULTHOOD: 0.0,
    AgeGroup.ADULTHOOD: 0.01,
    AgeGroup.MATURITY: 0.0,
    AgeGroup.UNDISCLOSED: 0.0,
}

COUNTRY_BIAS_OFFSETS: dict[str, float] = {
    "FR": -0.02,
    "ES": 0.01,
    "MX": 0.03,
    "AR": 0.065,
}

_BASE_POPULARITY_BIAS = 0.35


class FDVTPanel:
    """A collection of synthetic FDVT panellists over one columnar store."""

    def __init__(self, users: Iterable[SyntheticUser], catalog: InterestCatalog) -> None:
        users = tuple(users)
        if len({user.user_id for user in users}) != len(users):
            raise PanelError("panel user ids must be unique")
        try:
            columns = PanelColumns.from_users(users)
        except OverflowError as error:
            # An id or age beyond its column's integer type (interest ids
            # are the CSR's int32).
            raise PanelError(f"panel user does not fit the store: {error}") from None
        self._attach(columns, catalog)

    @classmethod
    def from_columns(cls, columns: PanelColumns, catalog: InterestCatalog) -> "FDVTPanel":
        """A panel viewing ``columns`` directly — no user objects built."""
        panel = cls.__new__(cls)
        panel._attach(columns, catalog)
        return panel

    def _attach(self, columns: PanelColumns, catalog: InterestCatalog) -> None:
        if len(columns) == 0:
            raise PanelError("a panel must contain at least one user")
        self._columns = columns
        self._catalog = catalog
        self._users: tuple[SyntheticUser, ...] | None = None

    @property
    def columns(self) -> PanelColumns:
        """The columnar store backing this panel."""
        return self._columns

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[SyntheticUser]:
        return iter(self.users)

    def get(self, user_id: int) -> SyntheticUser:
        """Return the panellist with ``user_id`` (decoding only that row) or raise."""
        rows = np.flatnonzero(self._columns.user_ids == int(user_id))
        if rows.size == 0:
            raise PanelError(f"unknown panel user id: {user_id}")
        return self._columns.user_at(int(rows[0]))

    @property
    def users(self) -> tuple[SyntheticUser, ...]:
        """All panellists, in row order (decoded on first access)."""
        if self._users is None:
            self._users = self._columns.to_users()
        return self._users

    @property
    def catalog(self) -> InterestCatalog:
        """The interest catalog the panel draws from."""
        return self._catalog

    # -- dataset statistics -------------------------------------------------------

    def interests_per_user(self) -> np.ndarray:
        """Number of interests per panellist (the Figure 1 variable)."""
        return self.columns.interest_counts()

    def unique_interest_ids(self) -> np.ndarray:
        """Distinct interest ids observed across the panel (Figure 2 variable)."""
        return np.unique(self.columns.interest_ids).astype(np.int64)

    def total_interest_occurrences(self) -> int:
        """Total interest assignments across the panel (~1.5M in the paper)."""
        return self.columns.nnz

    def country_counts(self) -> dict[str, int]:
        """Panellists per country."""
        columns = self.columns
        counts = np.bincount(
            columns.country_index, minlength=len(columns.country_codes)
        )
        return {
            columns.country_codes[i]: int(counts[i])
            for i in range(len(columns.country_codes))
            if counts[i]
        }

    # -- demographic subsets ---------------------------------------------------------

    def subset(self, users: Sequence[SyntheticUser]) -> "FDVTPanel":
        """Build a sub-panel from a subset of users."""
        return FDVTPanel(users, self._catalog)

    def _view(self, mask: np.ndarray) -> "FDVTPanel":
        if not mask.any():
            raise PanelError("a panel must contain at least one user")
        return FDVTPanel.from_columns(self.columns.take(mask), self._catalog)

    def by_gender(self, gender: Gender) -> "FDVTPanel":
        """Sub-panel of one declared gender."""
        return self._view(self.columns.gender_index == GENDER_CODES[gender])

    def by_age_group(self, group: AgeGroup) -> "FDVTPanel":
        """Sub-panel of one Erikson age group."""
        return self._view(self.columns.age_group_index() == AGE_GROUP_CODES[group])

    def by_country(self, country: str) -> "FDVTPanel":
        """Sub-panel of one country of residence."""
        columns = self.columns
        try:
            code = columns.country_codes.index(country)
        except ValueError:
            raise PanelError("a panel must contain at least one user") from None
        return self._view(columns.country_index == code)

    # -- serialisation -----------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Serialise the panel users to plain dictionaries."""
        return [user.to_dict() for user in self.users]

    @staticmethod
    def from_dicts(records: Iterable[dict], catalog: InterestCatalog) -> "FDVTPanel":
        """Rebuild a panel from :meth:`to_dicts` output."""
        return FDVTPanel((SyntheticUser.from_dict(r) for r in records), catalog)


class PanelBuilder:
    """Builds a synthetic :class:`FDVTPanel`."""

    def __init__(
        self,
        catalog: InterestCatalog,
        config: PanelConfig | None = None,
        *,
        assigner: InterestAssigner | None = None,
    ) -> None:
        self._catalog = catalog
        self._config = config or PanelConfig()
        self._assigner = assigner or InterestAssigner(catalog)

    @property
    def config(self) -> PanelConfig:
        """The panel configuration in use."""
        return self._config

    def build(
        self, seed: SeedLike = None, *, executor: ShardExecutor | None = None
    ) -> FDVTPanel:
        """Build the panel deterministically from ``seed`` (no user objects).

        ``executor`` shards the per-user assignment stage over contiguous
        row ranges (serial by default); every backend, worker count and
        shard size produces the same columns, because each row re-derives
        its own ``derive_generator(base_seed, SEED_KEY, index)`` stream
        (:mod:`repro.population.generation`).
        """
        config = self._config
        base_seed = resolve_seed(seed, config.seed)
        codes, country_index = self._assign_country_index(config.n_users, base_seed)
        gender_index = self._assign_gender_index(config, base_seed)
        age_group_index = self._assign_age_group_index(config, base_seed)
        counts = self._count_model().sample(
            config.n_users, derive_generator(base_seed, "panel-interest-counts")
        )
        base_bias = _bias_table(codes)[gender_index, age_group_index, country_index]

        executor = executor or ShardExecutor()
        runner = executor.runner()
        payload = assigner_shard_payload(self._assigner, runner)
        tasks = [
            InterestShardTask(
                assigner=payload,
                base_seed=base_seed,
                start=shard.start,
                stop=shard.stop,
                counts=counts[shard.rows],
                age_group_index=age_group_index[shard.rows],
                base_bias=base_bias[shard.rows],
                bias_jitter=float(config.popularity_bias_jitter),
            )
            for shard in executor.plan(config.n_users)
        ]
        fragments = runner.run(run_interest_shard, tasks)
        row_counts = np.concatenate([f[1] for f in fragments])
        indptr = np.zeros(config.n_users + 1, dtype=np.int64)
        np.cumsum(row_counts, out=indptr[1:])
        columns = PanelColumns(
            user_ids=np.arange(config.n_users, dtype=np.int64),
            country_codes=codes,
            country_index=country_index,
            gender_index=gender_index,
            ages=np.concatenate([f[2] for f in fragments]),
            indptr=indptr,
            interest_ids=np.concatenate([f[0] for f in fragments]),
        )
        return FDVTPanel.from_columns(columns, self._catalog)

    #: Alias of :meth:`build`; the end-to-end benchmark's tracer probes both names.
    build_columns = build

    # -- internals -----------------------------------------------------------------

    def _count_model(self) -> InterestCountModel:
        return InterestCountModel(
            median=self._config.median_interests_per_user,
            log10_sigma=self._config.interests_log10_sigma,
            minimum=self._config.min_interests_per_user,
            maximum=self._config.max_interests_per_user,
        ).clipped_to_catalog(len(self._catalog))

    def _assign_country_index(
        self, n_users: int, base_seed: int
    ) -> tuple[tuple[str, ...], np.ndarray]:
        """Country assignments as ``(code_table, int16 index array)``.

        The shuffle of the exact Appendix-B expansion runs on the int index
        array; ``Generator.shuffle`` applies the same permutation to an
        array as to the original list-of-strings, so the draw stream and
        the resulting assignment are unchanged from the object-era code.
        """
        rng = derive_generator(base_seed, "panel-countries")
        codes = tuple(PANEL_COUNTRY_COUNTS)
        code_of = {code: i for i, code in enumerate(codes)}
        if n_users == sum(PANEL_COUNTRY_COUNTS.values()):
            index = np.fromiter(
                (code_of[c] for c in expanded_country_assignments()),
                dtype=np.int16,
                count=n_users,
            )
            rng.shuffle(index)
            return codes, index
        weights = np.array([PANEL_COUNTRY_COUNTS[c] for c in codes], dtype=float)
        weights = weights / weights.sum()
        draws = rng.choice(len(codes), size=n_users, p=weights)
        return codes, draws.astype(np.int16)

    def _assign_gender_index(self, config: PanelConfig, base_seed: int) -> np.ndarray:
        rng = derive_generator(base_seed, "panel-genders")
        index = np.repeat(
            np.array(
                [
                    GENDER_CODES[Gender.MALE],
                    GENDER_CODES[Gender.FEMALE],
                    GENDER_CODES[Gender.UNDISCLOSED],
                ],
                dtype=np.int8,
            ),
            [config.n_men, config.n_women, config.n_gender_undisclosed],
        )
        rng.shuffle(index)
        return index

    def _assign_age_group_index(self, config: PanelConfig, base_seed: int) -> np.ndarray:
        rng = derive_generator(base_seed, "panel-ages")
        index = np.repeat(
            np.array(
                [
                    AGE_GROUP_CODES[AgeGroup.ADOLESCENCE],
                    AGE_GROUP_CODES[AgeGroup.EARLY_ADULTHOOD],
                    AGE_GROUP_CODES[AgeGroup.ADULTHOOD],
                    AGE_GROUP_CODES[AgeGroup.MATURITY],
                    AGE_GROUP_CODES[AgeGroup.UNDISCLOSED],
                ],
                dtype=np.int8,
            ),
            [
                config.n_adolescents,
                config.n_early_adults,
                config.n_adults,
                config.n_matures,
                config.n_age_undisclosed,
            ],
        )
        rng.shuffle(index)
        return index


def _bias_table(codes: tuple[str, ...]) -> np.ndarray:
    """Per-(gender, age group, country) base popularity biases.

    A dense lookup of :func:`popularity_bias_for` over every code
    combination, so the vectorised builders read per-user biases with one
    fancy index while keeping the scalar function the single source of
    truth (including its ``round(bias, 3)``).
    """
    table = np.empty(
        (len(GENDER_TABLE), len(AGE_GROUP_TABLE), len(codes)), dtype=float
    )
    for g, gender in enumerate(GENDER_TABLE):
        for a, group in enumerate(AGE_GROUP_TABLE):
            for c, country in enumerate(codes):
                table[g, a, c] = popularity_bias_for(gender, group, country)
    return table


def popularity_bias_for(gender: Gender, age_group: AgeGroup, country: str) -> float:
    """Popularity bias used when assigning interests to one panellist."""
    bias = _BASE_POPULARITY_BIAS
    bias += GENDER_BIAS_OFFSETS.get(gender, 0.0)
    bias += AGE_BIAS_OFFSETS.get(age_group, 0.0)
    bias += COUNTRY_BIAS_OFFSETS.get(country, 0.0)
    return round(bias, 3)
