"""Reference implementations the parity suites pin production code against.

Each oracle is the plainest statement of what a production path computes,
kept out of ``src/`` because nothing but the parity checks runs it:

* :func:`fused_collect`, :func:`batched_collect` and :func:`scalar_collect`
  — the audience-size matrix of one strategy from one whole-panel
  ``estimate_reach_matrix`` call, one ``estimate_reach_batch`` prefix chain
  per user, and one ``estimate_reach`` call per (user, N) cell.  All three
  order each user with the per-user ``strategy.order_interests``;
* :func:`run_interest_shard_reference` — one ``InterestAssigner.assign``
  call per row, the executable statement of the stream contract in
  :mod:`repro.population.generation`;
* :func:`reference_population` and :func:`reference_panel` — the builders
  as per-user loops that construct ``SyntheticUser`` objects, and
  :func:`reference_build_panel`, the pipeline's panel stage on top of them.

Importable from any test module (``import oracles``) and, with ``tests/``
on ``sys.path``, from ``benchmarks/bench_perf_hot_paths.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._rng import SeedLike, derive_generator, derive_seed, resolve_seed
from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.catalog import InterestCatalog
from repro.config import ReproductionConfig
from repro.core import AudienceSamples, SelectionStrategy
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

# -- collection --------------------------------------------------------------------


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
            specs = TargetingSpec.prefix_chain(row, locations=locations)
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
