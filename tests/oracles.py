"""Reference implementations the parity suites pin production code against.

Each oracle is the plainest statement of what a production path computes,
kept out of ``src/`` because nothing but the parity checks runs it:

* :func:`prefix_audiences` — the AND audiences of every prefix of one
  ordered id list, computed with 1-D cumulative sweeps; the reference
  ``StatisticalReachModel.prefix_audiences_panel`` is pinned against row
  by row, bit for bit;
* :func:`prefix_chain` — the targeting specs of every prefix of one
  ordered interest list, the input of a batched prefix query;
* :func:`fused_collect`, :func:`batched_collect` and :func:`scalar_collect`
  — the audience-size matrix of one strategy from one whole-panel
  ``estimate_reach_matrix`` call, one ``estimate_reach_batch`` prefix chain
  per user, and one ``estimate_reach`` call per (user, N) cell.  All three
  order each user with the per-user ``strategy.order_interests``;
* :func:`bootstrap_cutpoints_reference` — the bootstrap as a resampled
  row gather, a sort-based quantile pass over the whole stack and a fit of
  every column, per chunk; ``repro.core.bootstrap_cutpoints`` is pinned
  against it bit for bit;
* :func:`run_interest_shard_reference` — one ``InterestAssigner.assign``
  call per row, the executable statement of the stream contract in
  :mod:`repro.population.generation`;
* :func:`reference_population` and :func:`reference_panel` — the builders
  as per-user loops that construct ``SyntheticUser`` objects, and
  :func:`reference_build_panel`, the pipeline's panel stage on top of them;
* :class:`ObjectCatalog` — the interest catalog as a dict of ``Interest``
  objects, re-sorted on every ``rarest``/``most_popular`` call and scanned
  per topic; the columnar ``InterestCatalog`` is pinned against it;
* :func:`least_popular_reference` — least-popular ordering of CSR rows as
  one ``lexsort`` keyed ``(row, audience, id)``, the order the
  popularity-rank key of ``repro.core.selection`` must reproduce.

Importable from any test module (``import oracles``) and, with ``tests/``
on ``sys.path``, from ``benchmarks/bench_perf_hot_paths.py``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Sequence

import numpy as np

from repro._rng import (
    SeedLike,
    as_generator,
    derive_generator,
    derive_seed,
    resolve_seed,
)
from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.catalog import (
    DEFAULT_WORLD_POPULATION,
    Interest,
    InterestCatalog,
    PopularityModel,
)
from repro.catalog.taxonomy import TOPICS, interest_name, topic_for_index
from repro.config import CatalogConfig, ReproductionConfig
from repro.core import (
    AudienceSamples,
    SelectionStrategy,
    StreamedAudienceSamples,
    fit_vas_many,
    masked_column_quantiles,
)
from repro.errors import CatalogError, UnknownInterestError
from repro.fdvt import FDVTPanel, PanelBuilder
from repro.fdvt.panel import _bias_table
from repro.population import (
    AGE_GROUP_TABLE,
    AGE_UNDISCLOSED,
    GENDER_TABLE,
    InterestAssigner,
    InterestShardTask,
    Population,
    PopulationBuilder,
    SyntheticUser,
    resolve_assigner,
    sample_age,
    sample_ages,
    sample_gender_index,
)
from repro.population.columnar import PanelColumns
from repro.reach import StatisticalReachModel
from repro.reach.jitter import lognormal_jitter, prefix_seeds

# -- catalog -------------------------------------------------------------------------


class ObjectCatalog:
    """The interest catalog as one ``Interest`` object per id.

    Every query walks or re-sorts the objects: ``rarest``/``most_popular``
    argsort the audiences per call and ``topics``/``by_topic`` scan every
    interest.
    """

    def __init__(self, interests: Sequence[Interest]) -> None:
        self._interests: dict[int, Interest] = {}
        for interest in interests:
            if interest.interest_id in self._interests:
                raise CatalogError(f"duplicate interest id: {interest.interest_id}")
            self._interests[interest.interest_id] = interest
        if not self._interests:
            raise CatalogError("a catalog must contain at least one interest")
        self._ids = np.array(sorted(self._interests), dtype=np.int64)
        self._audiences = np.array(
            [self._interests[i].audience_size for i in self._ids], dtype=np.int64
        )

    @staticmethod
    def generate(config: CatalogConfig, *, seed: int) -> "ObjectCatalog":
        """``InterestCatalog.generate`` building one object per interest."""
        rng = derive_generator(seed, "catalog")
        audiences = PopularityModel.from_config(config, DEFAULT_WORLD_POPULATION).sample(
            config.n_interests, rng
        )
        interests = []
        for index, audience in enumerate(audiences):
            topic = topic_for_index(index, config.n_topics)
            interests.append(
                Interest(
                    interest_id=index,
                    name=interest_name(index, topic),
                    topic=topic,
                    audience_size=int(audience),
                )
            )
        return ObjectCatalog(interests)

    def __len__(self) -> int:
        return len(self._interests)

    def __iter__(self):
        for interest_id in self._ids:
            yield self._interests[int(interest_id)]

    def __contains__(self, interest_id: object) -> bool:
        return interest_id in self._interests

    def get(self, interest_id: int) -> Interest:
        try:
            return self._interests[interest_id]
        except KeyError:
            raise UnknownInterestError(interest_id) from None

    @property
    def interest_ids(self) -> np.ndarray:
        return self._ids.copy()

    def audience_size(self, interest_id: int) -> int:
        return self.get(interest_id).audience_size

    def audience_sizes(self, interest_ids: Sequence[int]) -> np.ndarray:
        return np.array(
            [self.audience_size(int(i)) for i in interest_ids], dtype=np.int64
        )

    def all_audience_sizes(self) -> np.ndarray:
        return self._audiences.copy()

    def topics(self) -> tuple[str, ...]:
        present = {interest.topic for interest in self}
        return tuple(topic for topic in TOPICS if topic in present)

    def by_topic(self, topic: str) -> tuple[Interest, ...]:
        return tuple(interest for interest in self if interest.topic == topic)

    def rarest(self, n: int) -> tuple[Interest, ...]:
        order = np.argsort(self._audiences, kind="stable")[:n]
        return tuple(self._interests[int(self._ids[i])] for i in order)

    def most_popular(self, n: int) -> tuple[Interest, ...]:
        order = np.argsort(self._audiences, kind="stable")[::-1][:n]
        return tuple(self._interests[int(self._ids[i])] for i in order)

    def to_dicts(self) -> list[dict]:
        return [interest.to_dict() for interest in self]


def least_popular_reference(
    columns: PanelColumns,
    catalog: InterestCatalog | ObjectCatalog,
    max_interests: int,
    start: int = 0,
    stop: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-popular ``(id_matrix, counts)`` of CSR rows ``[start, stop)``.

    One ``lexsort`` keyed ``(row, audience, id)`` over every occurrence,
    then each row's leading ``max_interests`` ids, ``-1``-padded.
    """
    stop = len(columns) if stop is None else stop
    flat_ids = columns.interest_ids[
        columns.indptr[start] : columns.indptr[stop]
    ].astype(np.int64)
    full_counts = np.diff(columns.indptr[start : stop + 1])
    sorted_ids = catalog.interest_ids
    positions = np.minimum(np.searchsorted(sorted_ids, flat_ids), len(sorted_ids) - 1)
    mismatched = sorted_ids[positions] != flat_ids
    if mismatched.any():
        catalog.get(int(flat_ids[np.argmax(mismatched)]))
    flat_audiences = catalog.all_audience_sizes()[positions]
    row_index = np.repeat(np.arange(len(full_counts)), full_counts)
    flat_sorted = flat_ids[np.lexsort((flat_ids, flat_audiences, row_index))]
    counts = np.minimum(full_counts, max_interests)
    matrix = np.full((len(counts), int(counts.max(initial=0))), -1, dtype=np.int64)
    segment_starts = np.concatenate(([0], np.cumsum(full_counts)[:-1]))
    for row, (begin, count) in enumerate(zip(segment_starts, counts)):
        matrix[row, :count] = flat_sorted[begin : begin + count]
    return matrix, counts


# -- reach kernel ------------------------------------------------------------------


def prefix_audiences(
    model: StatisticalReachModel,
    ordered_ids: Sequence[int],
    locations: Sequence[str] | None = None,
) -> np.ndarray:
    """AND audiences of every prefix ``1..N`` of one ordered id list.

    The per-list form of the model's panel kernel: the same
    conditional-retention product, jitter and rarest-marginal clip, with
    every cumulative quantity a 1-D sweep over the list.
    """
    ids = np.asarray([int(i) for i in ordered_ids], dtype=np.int64)
    if ids.size == 0:
        return np.empty(0, dtype=float)
    base = model.world_size(locations)
    catalog = model.catalog
    positions = catalog.positions(ids)
    audiences = catalog.audiences[positions].astype(float)
    probs = np.minimum(1.0, audiences / model.world_size())
    intersections = _prefix_probabilities(model, probs, catalog.topic_codes[positions])
    jitters = lognormal_jitter(
        prefix_seeds(ids, model._jitter_key), model.config.jitter_log10_sigma
    )
    audiences = base * intersections * jitters
    # The jitter never pushes an AND-audience above its rarest marginal.
    rarest = base * np.minimum.accumulate(probs)
    return np.maximum(np.minimum(audiences, rarest), 0.0)


def _prefix_probabilities(
    model: StatisticalReachModel, probs: np.ndarray, topics: np.ndarray
) -> np.ndarray:
    """Conditional-retention intersection probability of every prefix."""
    n = probs.size
    alpha = model.config.correlation_alpha
    boost = 1.0 + model.config.topic_affinity_boost
    with np.errstate(all="ignore"):
        cumulative_min = np.minimum.accumulate(probs)
        previous_min = np.concatenate(([np.inf], cumulative_min[:-1]))
        new_min = probs < previous_min
        # Index of the rarest interest within each prefix (first winner on
        # ties, matching a stable sort by probability).
        rarest_index = np.maximum.accumulate(np.where(new_min, np.arange(n), 0))
        retention = probs**alpha
        plain = np.minimum(1.0, retention)
        boosted = np.minimum(1.0, retention * boost)
        log_plain = np.log(plain)
        log_boost_delta = np.log(boosted) - log_plain
        total_log = np.cumsum(log_plain)
        # Per-topic cumulative boost corrections; only the column of the
        # prefix's rarest topic is consumed per row.
        codes, inverse = np.unique(topics, return_inverse=True)
        one_hot = inverse[:, None] == np.arange(codes.size)[None, :]
        topic_cumulative = np.cumsum(
            np.where(one_hot, log_boost_delta[:, None], 0.0), axis=0
        )
        same_topic = topic_cumulative[np.arange(n), inverse[rarest_index]]
        log_probability = (
            np.log(probs[rarest_index])
            + (total_log - log_plain[rarest_index])
            + (same_topic - log_boost_delta[rarest_index])
        )
        return np.minimum(np.exp(log_probability), probs[rarest_index])

# -- collection --------------------------------------------------------------------


def prefix_chain(
    interests: Sequence[int],
    *,
    locations: Sequence[str] | None = None,
    combine: str = "and",
) -> tuple[TargetingSpec, ...]:
    """Specs for every prefix ``1..N`` of one ordered interest list.

    The full-length spec is validated through the normal constructor;
    every shorter prefix of a valid spec is itself valid (a dup-free tuple
    stays dup-free when truncated and shares its locations), so the
    remaining N-1 specs are materialised without re-running
    ``__post_init__``.
    """
    longest = TargetingSpec.for_interests(
        interests, locations=locations, combine=combine
    )
    chain = []
    for count in range(1, len(longest.interests)):
        spec = object.__new__(TargetingSpec)
        for spec_field in fields(TargetingSpec):
            object.__setattr__(spec, spec_field.name, getattr(longest, spec_field.name))
        object.__setattr__(spec, "interests", longest.interests[:count])
        chain.append(spec)
    if longest.interests:
        chain.append(longest)
    return tuple(chain)


def _ordered_rows(
    panel: FDVTPanel, strategy: SelectionStrategy, max_interests: int
) -> list[tuple[int, ...]]:
    return [
        strategy.order_interests(user, panel.catalog, max_interests)
        for user in panel.users
    ]


def _samples(
    api: AdsManagerAPI, panel: FDVTPanel, matrix: np.ndarray
) -> AudienceSamples:
    return AudienceSamples(
        matrix=matrix,
        floor=api.platform.reach_floor,
        user_ids=tuple(user.user_id for user in panel.users),
    )


def fused_collect(
    api: AdsManagerAPI,
    panel: FDVTPanel,
    strategy: SelectionStrategy,
    *,
    max_interests: int,
    locations: Sequence[str] | None,
) -> AudienceSamples:
    """The whole panel as one padded id matrix and one bulk-endpoint call."""
    rows = _ordered_rows(panel, strategy, max_interests)
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    matrix = np.full((len(rows), max_interests), np.nan)
    width = int(counts.max())
    if width:
        ids = np.full((len(rows), width), -1, dtype=np.int64)
        for index, row in enumerate(rows):
            ids[index, : len(row)] = row
        values = api.estimate_reach_matrix(ids, counts, locations=locations)
        matrix[:, :width] = values
    return _samples(api, panel, matrix)


def batched_collect(
    api: AdsManagerAPI,
    panel: FDVTPanel,
    strategy: SelectionStrategy,
    *,
    max_interests: int,
    locations: Sequence[str] | None,
) -> AudienceSamples:
    """One ``estimate_reach_batch`` prefix-chain call per user."""
    rows = _ordered_rows(panel, strategy, max_interests)
    matrix = np.full((len(rows), max_interests), np.nan)
    for index, row in enumerate(rows):
        if row:
            specs = prefix_chain(row, locations=locations)
            estimates = api.estimate_reach_batch(specs)
            matrix[index, : len(row)] = [e.potential_reach for e in estimates]
    return _samples(api, panel, matrix)


def scalar_collect(
    api: AdsManagerAPI,
    panel: FDVTPanel,
    strategy: SelectionStrategy,
    *,
    max_interests: int,
    locations: Sequence[str] | None,
) -> AudienceSamples:
    """One ``estimate_reach`` call per (user, N) cell."""
    rows = _ordered_rows(panel, strategy, max_interests)
    matrix = np.full((len(rows), max_interests), np.nan)
    for index, row in enumerate(rows):
        for n_interests in range(1, len(row) + 1):
            spec = TargetingSpec.for_interests(row[:n_interests], locations=locations)
            matrix[index, n_interests - 1] = api.estimate_reach(spec).potential_reach
    return _samples(api, panel, matrix)


# -- bootstrap ---------------------------------------------------------------------


def bootstrap_cutpoints_reference(
    samples: AudienceSamples | StreamedAudienceSamples,
    q_percents: Sequence[float],
    *,
    n_bootstrap: int,
    seed: SeedLike,
    chunk_size: int,
) -> dict[float, np.ndarray]:
    """``bootstrap_cutpoints`` as a gather, a sort and a full-width fit per chunk.

    Draws the same resample index matrices chunk by chunk, gathers each
    chunk's rows with ``take_rows``, takes every column's quantiles over
    the sorted stack with ``masked_column_quantiles`` and fits all columns
    of every replicate — no sorted columns, no early exit at the floor.
    """
    rng = as_generator(seed)
    qs = [float(q) for q in q_percents]
    results = {q: np.empty(n_bootstrap, dtype=float) for q in qs}
    for start in range(0, n_bootstrap, chunk_size):
        count = min(chunk_size, n_bootstrap - start)
        indices = rng.integers(0, samples.n_users, size=(count, samples.n_users))
        with np.errstate(all="ignore"):
            vas_rows = masked_column_quantiles(samples.take_rows(indices), qs)
        for q, rows in zip(qs, vas_rows):
            fits = fit_vas_many(rows, samples.floor)
            results[q][start : start + count] = fits.cutpoints
    return results


# -- generation --------------------------------------------------------------------


def run_interest_shard_reference(
    task: InterestShardTask,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-user reference of :func:`repro.population.run_interest_shard`.

    One :meth:`~repro.population.InterestAssigner.assign` call per row on
    the row's own generator, consuming the stream in the documented order
    (age draw, bias jitter, preferred topics, assignment).
    """
    assigner = resolve_assigner(task.assigner)
    n_rows = task.stop - task.start
    row_counts = np.empty(n_rows, dtype=np.int64)
    ages: np.ndarray | None = None
    if task.age_group_index is not None:
        ages = np.full(n_rows, AGE_UNDISCLOSED, dtype=np.int16)
    flat: list[int] = []
    for offset in range(n_rows):
        user_rng = derive_generator(task.base_seed, task.seed_key, task.start + offset)
        if task.age_group_index is not None:
            group = AGE_GROUP_TABLE[task.age_group_index[offset]]
            age = sample_age(group, user_rng)
            if age is not None:
                ages[offset] = age  # type: ignore[index]
        bias: float | None = None
        if task.base_bias is not None:
            bias = float(task.base_bias[offset])
            if task.bias_jitter > 0:
                bias += float(user_rng.normal(0.0, task.bias_jitter))
                bias = float(np.clip(round(bias, 2), 0.1, 0.95))
        preferred = assigner.sample_preferred_topics(task.topics_per_user, user_rng)
        interests = assigner.assign(
            int(task.counts[offset]),
            user_rng,
            preferred_topics=preferred,
            popularity_bias=bias,
        )
        row_counts[offset] = len(interests)
        flat.extend(interests)
    flat_ids = np.array(flat, dtype=np.int32) if flat else np.zeros(0, dtype=np.int32)
    return flat_ids, row_counts, ages


def reference_population(
    builder: PopulationBuilder, seed: SeedLike = None
) -> Population:
    """``builder.build(seed)`` as one ``assign`` call and one user object per agent."""
    config = builder.config
    base_seed = resolve_seed(seed, config.seed)
    codes, country_index = builder._sample_country_index(config.n_agents, base_seed)
    gender_index = sample_gender_index(
        config.n_agents, derive_generator(base_seed, "genders")
    )
    ages = sample_ages(config.n_agents, derive_generator(base_seed, "ages"))
    counts = builder._count_model().sample(
        config.n_agents, derive_generator(base_seed, "interest-counts")
    )
    assigner = builder._assigner
    users = []
    for index in range(config.n_agents):
        user_rng = derive_generator(base_seed, "user", index)
        preferred = assigner.sample_preferred_topics(config.topics_per_user, user_rng)
        users.append(
            SyntheticUser(
                user_id=index,
                country=codes[country_index[index]],
                gender=GENDER_TABLE[gender_index[index]],
                age=int(ages[index]),
                interest_ids=assigner.assign(
                    int(counts[index]), user_rng, preferred_topics=preferred
                ),
            )
        )
    return Population(users, scale_factor=config.scale_factor)


def reference_panel(builder: PanelBuilder, seed: SeedLike = None) -> FDVTPanel:
    """``builder.build(seed)`` through the per-user reference shard and user objects."""
    config = builder.config
    base_seed = resolve_seed(seed, config.seed)
    codes, country_index = builder._assign_country_index(config.n_users, base_seed)
    gender_index = builder._assign_gender_index(config, base_seed)
    age_group_index = builder._assign_age_group_index(config, base_seed)
    counts = builder._count_model().sample(
        config.n_users, derive_generator(base_seed, "panel-interest-counts")
    )
    flat_ids, row_counts, ages = run_interest_shard_reference(
        InterestShardTask(
            assigner=builder._assigner,
            base_seed=base_seed,
            seed_key="panel-user",
            start=0,
            stop=config.n_users,
            counts=counts,
            topics_per_user=builder._topics_per_user,
            age_group_index=age_group_index,
            base_bias=_bias_table(codes)[gender_index, age_group_index, country_index],
            bias_jitter=float(config.popularity_bias_jitter),
        )
    )
    users = []
    cursor = 0
    for index in range(config.n_users):
        stop = cursor + int(row_counts[index])
        age = int(ages[index])  # type: ignore[index]
        users.append(
            SyntheticUser(
                user_id=index,
                country=codes[country_index[index]],
                gender=GENDER_TABLE[gender_index[index]],
                age=None if age < 0 else age,
                interest_ids=tuple(int(i) for i in flat_ids[cursor:stop]),
            )
        )
        cursor = stop
    return FDVTPanel(users, builder._catalog)


def reference_build_panel(
    config: ReproductionConfig, *, seed: int | None, catalog: InterestCatalog
) -> FDVTPanel:
    """:func:`repro.build_panel` with the panel built by :func:`reference_panel`."""
    boost = 1.0 + 10.0 * config.reach.topic_affinity_boost
    builder = PanelBuilder(
        catalog,
        config.panel,
        assigner=InterestAssigner(catalog, topic_affinity_boost=boost),
    )
    stage_seed = config.panel.seed if seed is None else derive_seed(seed, "panel")
    return reference_panel(builder, seed=stage_seed)
