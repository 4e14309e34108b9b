"""Reference implementations the parity suites pin production code against.

Each oracle is the plainest statement of what a production path computes,
kept out of ``src/`` because nothing but the parity checks runs it:

* :func:`prefix_audiences` — the AND audiences of every prefix of one
  ordered id list, computed with 1-D cumulative sweeps and the oracle's
  own copy of the counter-based jitter (:func:`jitter_prefix_seeds`,
  :func:`jitter_factors`); the reference
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
* :class:`ReferenceAssigner` — interest assignment one user at a time
  (``rng.choice`` topic draws, one uniform slice per drawn topic, a
  ``seen`` set, a shuffled list top-up); the batched
  ``InterestAssigner.assign_rows`` kernel is pinned against it bit for
  bit;
* :func:`run_interest_shard_reference` — one ``ReferenceAssigner.assign``
  call per row, the executable statement of the stream contract in
  :mod:`repro.population.generation`;
* :func:`reference_panel` — ``PanelBuilder.build`` as a per-user loop that
  constructs ``SyntheticUser`` objects, and :func:`reference_build_panel`,
  the pipeline's panel stage on top of it;
* :class:`ExactCountBackend` and :func:`reference_population` — a reach
  backend that counts the users of an explicit agent set exactly, and a
  seeded world of such agents; the statistical model's semantics (AND/OR,
  locations, monotonicity) are checked against it;
* :func:`prefix_audiences_loop` — the bulk reach endpoint as one scalar
  ``audience_for`` call per prefix cell, the contract every
  ``prefix_audiences_panel`` implements;
* :class:`ObjectCatalog` — the interest catalog as a dict of ``Interest``
  objects, re-sorted on every ``rarest``/``most_popular`` call and scanned
  per topic; the columnar ``InterestCatalog`` is pinned against it;
* :func:`least_popular_reference` — least-popular ordering of CSR rows as
  one ``lexsort`` keyed ``(row, audience, id)``, the order the
  popularity-rank key of ``repro.core.selection`` must reproduce;
* :func:`select_targets_reference` — the nanotargeting target draw over a
  list of user objects, the rule
  ``NanotargetingExperiment.select_targets`` applies to a panel's columns.

Importable from any test module (``import oracles``) and, with ``tests/``
on ``sys.path``, from ``benchmarks/bench_perf_hot_paths.py``.
"""

from __future__ import annotations

import weakref
from dataclasses import fields
from typing import Sequence

import numpy as np

from repro._rng import (
    SeedLike,
    as_generator,
    derive_generator,
    derive_seed,
    resolve_seed,
    stable_hash,
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
    NanotargetingExperiment,
    SelectionStrategy,
    StreamedAudienceSamples,
    fit_vas_many,
    masked_column_quantiles,
)
from repro.errors import (
    CatalogError,
    ModelError,
    PopulationError,
    UnknownInterestError,
)
from repro.fdvt import FDVTPanel, PanelBuilder
from repro.fdvt.panel import _bias_table
from repro.population import (
    AGE_GROUP_TABLE,
    AGE_UNDISCLOSED,
    GENDER_TABLE,
    Gender,
    InterestAssigner,
    InterestCountModel,
    InterestShardTask,
    SyntheticUser,
    resolve_assigner,
    sample_age,
)
from repro.population.columnar import PanelColumns
from repro.population.generation import SEED_KEY, TOPICS_PER_USER
from repro.reach import TOP_50_COUNTRIES, WORLDWIDE, StatisticalReachModel

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
    every cumulative quantity a 1-D sweep over the list and every
    per-interest term derived from the catalog on each call.  A prefix
    holding an interest nobody holds comes out NaN before the clip, which
    ``fmin`` turns into that interest's audience, 0.
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
    jitters = jitter_factors(
        jitter_prefix_seeds(ids, model.config.seed), model.config.jitter_log10_sigma
    )
    audiences = base * intersections * jitters
    # The jitter never pushes an AND-audience above its rarest marginal.
    rarest = base * np.minimum.accumulate(probs)
    return np.maximum(np.fmin(audiences, rarest), 0.0)


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


# -- reach jitter ------------------------------------------------------------------
#
# The counter-based jitter of ``repro.reach.jitter``, restated one stream at
# a time so the oracle cannot follow a rewrite of the production module.

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_JITTER_STREAMS = (0xA5A5A5A5A5A5A5A5, 0xC3C3C3C3C3C3C3C3)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser over a ``uint64`` array."""
    values = np.asarray(values, dtype=np.uint64)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(_SPLITMIX_MIX[0])
    values = (values ^ (values >> np.uint64(27))) * np.uint64(_SPLITMIX_MIX[1])
    return values ^ (values >> np.uint64(31))


def jitter_prefix_seeds(ordered_ids: Sequence[int], model_seed: int) -> np.ndarray:
    """Jitter seeds of every prefix ``1..N``: running wrapping sums of id hashes.

    Each id is hashed with the model's key on every call:
    ``splitmix((id + gamma) ^ key)``, where the key is the finalised
    ``stable_hash(model_seed, "reach-jitter")``.
    """
    seed = stable_hash(model_seed, "reach-jitter") % 2**64
    key = _splitmix64(np.array([seed], dtype=np.uint64))
    tokens = np.asarray(ordered_ids, dtype=np.int64).astype(np.uint64)
    hashes = _splitmix64((tokens + np.uint64(_SPLITMIX_GAMMA)) ^ key)
    return np.cumsum(hashes, dtype=np.uint64)


def jitter_factors(seeds: np.ndarray, log10_sigma: float) -> np.ndarray:
    """Log-normal jitter ``10 ** (sigma * z)``; ``z`` by Box–Muller per seed.

    Stream A gives ``u1`` in (0, 1] and stream B ``u2`` in [0, 1), each
    from the top 53 bits of one finalisation of ``seed ^ stream``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if log10_sigma <= 0:
        return np.ones(seeds.shape, dtype=float)
    bits_a = _splitmix64(seeds ^ np.uint64(_JITTER_STREAMS[0]))
    bits_b = _splitmix64(seeds ^ np.uint64(_JITTER_STREAMS[1]))
    u1 = ((bits_a >> np.uint64(11)) + np.uint64(1)).astype(float) * 2.0**-53
    u2 = (bits_b >> np.uint64(11)).astype(float) * 2.0**-53
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return 10.0 ** (log10_sigma * normal)


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


class ReferenceAssigner:
    """``InterestAssigner.assign_rows`` one user at a time.

    The plainest statement of stream stage 4 for one user: per attempt one
    ``rng.choice(p=...)`` topic draw, then one ``rng.random`` block handed
    out to the drawn topics in ascending topic order, each topic's slice
    searched in that topic's ``audience ** bias`` CDF; the first occurrence
    of every id is kept, and a user still short after 40 attempts tops up
    from a shuffled list of the ids it lacks.  Preferred topics are given
    by name (a repeated name is boosted once per occurrence) and a bias of
    ``None`` means 0.5.
    """

    def __init__(
        self, catalog: InterestCatalog, *, topic_affinity_boost: float = 4.0
    ) -> None:
        self.catalog = catalog
        self.topics = catalog.topics()
        self._boost = float(topic_affinity_boost)
        self._topic_index = {topic: index for index, topic in enumerate(self.topics)}
        by_topic = [catalog.by_topic(topic) for topic in self.topics]
        self._topic_ids = [
            np.array([i.interest_id for i in interests], dtype=np.int64)
            for interests in by_topic
        ]
        self._topic_audiences = [
            np.array([i.audience_size for i in interests], dtype=float)
            for interests in by_topic
        ]
        self._tables: dict[float, tuple[np.ndarray, list[np.ndarray]]] = {}
        self._probabilities: dict[tuple[tuple[int, ...], float], np.ndarray] = {}

    @classmethod
    def of(cls, assigner: InterestAssigner) -> "ReferenceAssigner":
        """The reference for ``assigner``'s catalog and boost, built once."""
        reference = _REFERENCES.get(assigner)
        if reference is None:
            reference = _REFERENCES[assigner] = cls(
                assigner.catalog, topic_affinity_boost=assigner._boost
            )
        return reference

    def sample_preferred_topics(
        self, n_topics: int, seed: SeedLike = None
    ) -> tuple[str, ...]:
        """``n_topics`` distinct preferred topic names (the kernel draws indices)."""
        rng = as_generator(seed)
        count = min(n_topics, len(self.topics))
        chosen = rng.choice(len(self.topics), size=count, replace=False)
        return tuple(self.topics[int(i)] for i in chosen)

    def assign(
        self,
        n_interests: int,
        seed: SeedLike = None,
        *,
        preferred_topics: Sequence[str] | None = None,
        popularity_bias: float | None = None,
    ) -> tuple[int, ...]:
        """``n_interests`` distinct interest ids in first-occurrence order."""
        if n_interests < 0:
            raise PopulationError("n_interests must be non-negative")
        rng = as_generator(seed)
        n_interests = min(n_interests, len(self.catalog))
        if n_interests == 0:
            return ()
        bias = 0.5 if popularity_bias is None else float(popularity_bias)
        bias = round(max(0.0, bias), 3)
        topic_probs = self._topic_probabilities(preferred_topics or (), bias)
        chosen: list[int] = []
        seen: set[int] = set()
        attempts = 0
        while len(chosen) < n_interests and attempts < 40:
            attempts += 1
            needed = n_interests - len(chosen)
            batch = max(needed, int(needed * 1.25) + 4)
            topic_draws = rng.choice(len(self.topics), size=batch, p=topic_probs)
            topics, topic_counts = np.unique(topic_draws, return_counts=True)
            # One uniform block, sliced per topic in ascending topic order.
            uniforms = rng.random(int(topic_counts.sum()))
            offset = 0
            for topic, count in zip(topics.tolist(), topic_counts.tolist()):
                ids = self._draw_within_topic(
                    topic, uniforms[offset : offset + count], bias
                )
                offset += count
                for interest_id in ids.tolist():
                    if interest_id not in seen:
                        seen.add(interest_id)
                        chosen.append(interest_id)
        if len(chosen) < n_interests:
            remaining = [
                int(i) for i in self.catalog.interest_ids if int(i) not in seen
            ]
            rng.shuffle(remaining)
            chosen.extend(remaining[: n_interests - len(chosen)])
        return tuple(chosen[:n_interests])

    def _topic_probabilities(
        self, preferred_topics: Sequence[str], bias: float
    ) -> np.ndarray:
        indices = sorted(self._topic_index[topic] for topic in preferred_topics)
        key = (tuple(indices), bias)
        probs = self._probabilities.get(key)
        if probs is None:
            weights = self._bias_tables(bias)[0].copy()
            for index in key[0]:
                weights[index] *= self._boost
            probs = self._probabilities[key] = weights / weights.sum()
        return probs

    def _bias_tables(self, bias: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each topic's total ``audience ** bias`` weight and within-topic CDF."""
        tables = self._tables.get(bias)
        if tables is None:
            powered = [np.power(audiences, bias) for audiences in self._topic_audiences]
            cumulative = [np.cumsum(weights) for weights in powered]
            tables = self._tables[bias] = (
                np.array([weights.sum() for weights in powered]),
                [cdf / cdf[-1] for cdf in cumulative],
            )
        return tables

    def _draw_within_topic(
        self, topic: int, uniforms: np.ndarray, bias: float
    ) -> np.ndarray:
        cdf = self._bias_tables(bias)[1][topic]
        positions = np.searchsorted(cdf, uniforms, side="right")
        return self._topic_ids[topic][np.minimum(positions, cdf.size - 1)]


#: One reference per live assigner, so repeated oracle runs share tables.
_REFERENCES: "weakref.WeakKeyDictionary[InterestAssigner, ReferenceAssigner]" = (
    weakref.WeakKeyDictionary()
)


def run_interest_shard_reference(
    task: InterestShardTask,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-user reference of :func:`repro.population.run_interest_shard`.

    One :meth:`ReferenceAssigner.assign` call per row on the row's own
    generator, consuming the stream in the documented order (age draw, bias
    jitter, preferred topics, assignment).
    """
    assigner = ReferenceAssigner.of(resolve_assigner(task.assigner))
    n_rows = task.stop - task.start
    row_counts = np.empty(n_rows, dtype=np.int64)
    ages = np.full(n_rows, AGE_UNDISCLOSED, dtype=np.int16)
    flat: list[int] = []
    for offset in range(n_rows):
        user_rng = derive_generator(task.base_seed, SEED_KEY, task.start + offset)
        age = sample_age(AGE_GROUP_TABLE[task.age_group_index[offset]], user_rng)
        if age is not None:
            ages[offset] = age
        bias = float(task.base_bias[offset])
        if task.bias_jitter > 0:
            bias += float(user_rng.normal(0.0, task.bias_jitter))
            bias = float(np.clip(round(bias, 2), 0.1, 0.95))
        preferred = assigner.sample_preferred_topics(TOPICS_PER_USER, user_rng)
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
            start=0,
            stop=config.n_users,
            counts=counts,
            age_group_index=age_group_index,
            base_bias=_bias_table(codes)[gender_index, age_group_index, country_index],
            bias_jitter=float(config.popularity_bias_jitter),
        )
    )
    users = []
    cursor = 0
    for index in range(config.n_users):
        stop = cursor + int(row_counts[index])
        age = int(ages[index])
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


# -- exact counting ----------------------------------------------------------------


def prefix_audiences_loop(
    backend,
    id_matrix: np.ndarray,
    counts: Sequence[int] | np.ndarray,
    locations: Sequence[str] | None = None,
) -> np.ndarray:
    """``prefix_audiences_panel`` as one scalar ``audience_for`` call per cell."""
    ids = np.asarray(id_matrix, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    result = np.full(ids.shape, np.nan, dtype=float)
    for row in range(ids.shape[0]):
        prefix = tuple(int(i) for i in ids[row, : counts[row]])
        for k in range(len(prefix)):
            result[row, k] = backend.audience_for(prefix[: k + 1], locations)
    return result


class ExactCountBackend:
    """A reach backend counting the rows of ``columns`` exactly.

    Each row stands for ``scale_factor`` real users.  AND demands every
    distinct target interest, OR at least one; unknown locations match
    nobody, and ``None``, an empty list or the worldwide sentinel match
    everybody.
    """

    def __init__(self, columns: PanelColumns, scale_factor: float) -> None:
        self.columns = columns
        self.scale_factor = float(scale_factor)

    def audience_for(
        self,
        interest_ids: Sequence[int],
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
    ) -> float:
        assert combine in ("and", "or"), combine
        columns = self.columns
        mask = np.ones(len(columns), dtype=bool)
        if locations and WORLDWIDE not in locations:
            allowed = np.isin(np.asarray(columns.country_codes), list(locations))
            mask = allowed[columns.country_index]
        if len(interest_ids):
            targets = np.unique(np.asarray(list(interest_ids), dtype=np.int64))
            hits = np.flatnonzero(np.isin(columns.interest_ids, targets))
            rows = np.searchsorted(columns.indptr, hits, side="right") - 1
            per_row = np.bincount(rows, minlength=len(columns))
            mask &= (per_row == targets.size) if combine == "and" else (per_row > 0)
        return int(mask.sum()) * self.scale_factor

    def world_size(self, locations: Sequence[str] | None = None) -> float:
        return self.audience_for((), locations)

    def prefix_audiences_panel(
        self,
        id_matrix: np.ndarray,
        counts: Sequence[int] | np.ndarray,
        locations: Sequence[str] | None = None,
    ) -> np.ndarray:
        return prefix_audiences_loop(self, id_matrix, counts, locations)


def reference_population(
    catalog: InterestCatalog,
    *,
    n_agents: int,
    median_interests: float,
    max_interests: int,
    seed: int,
) -> PanelColumns:
    """A seeded world of ``n_agents`` agents, one ``assign`` call per agent.

    Countries follow the Facebook user counts of Appendix A, 46% of agents
    are women, ages follow a gamma-shaped pyramid over 13-90, interest
    counts a truncated log-normal, and each agent's interests come from
    its own ``derive_generator(seed, "user", index)`` stream at the
    default bias.
    """
    codes = tuple(country.code for country in TOP_50_COUNTRIES)
    weights = np.array(
        [country.fb_users_millions for country in TOP_50_COUNTRIES], dtype=float
    )
    country_index = derive_generator(seed, "countries").choice(
        len(codes), size=n_agents, p=weights / weights.sum()
    )
    female = derive_generator(seed, "genders").random(n_agents) < 0.46
    ages = 13 + derive_generator(seed, "ages").gamma(shape=3.2, scale=5.5, size=n_agents)
    ages = np.clip(np.rint(ages), 13, 90).astype(int)
    counts = InterestCountModel(
        median=median_interests, log10_sigma=0.55, minimum=1, maximum=max_interests
    ).clipped_to_catalog(len(catalog)).sample(
        n_agents, derive_generator(seed, "interest-counts")
    )
    assigner = ReferenceAssigner(catalog)
    users = []
    for index in range(n_agents):
        user_rng = derive_generator(seed, "user", index)
        preferred = assigner.sample_preferred_topics(TOPICS_PER_USER, user_rng)
        users.append(
            SyntheticUser(
                user_id=index,
                country=codes[country_index[index]],
                gender=Gender.FEMALE if female[index] else Gender.MALE,
                age=int(ages[index]),
                interest_ids=assigner.assign(
                    int(counts[index]), user_rng, preferred_topics=preferred
                ),
            )
        )
    return PanelColumns.from_users(users)


# -- nanotargeting -------------------------------------------------------------------


def select_targets_reference(
    experiment: NanotargetingExperiment, candidates: Sequence[SyntheticUser]
) -> list[SyntheticUser]:
    """Targets drawn from a list of user objects, in candidate order.

    A candidate is eligible with at least as many interests as the largest
    campaign size; ``n_targets`` eligible positions are drawn without
    replacement on the experiment's ``target-selection`` stream.
    """
    config = experiment.config
    needed = max(config.interest_counts)
    eligible = [user for user in candidates if user.interest_count >= needed]
    if len(eligible) < config.n_targets:
        raise ModelError(
            f"only {len(eligible)} candidates have >= {needed} interests; "
            f"{config.n_targets} targets are required"
        )
    rng = derive_generator(experiment._base_seed, "target-selection")
    indices = rng.choice(len(eligible), size=config.n_targets, replace=False)
    return [eligible[int(i)] for i in sorted(indices)]
