"""Analytic world-scale audience (reach) model.

The paper retrieves, from the Facebook Ads Manager API, the Potential Reach
of audiences defined by 1..25 interests over a 1.5B-user base.  That API is
not available offline, so this module provides a statistical stand-in: a
model of how many of the ``W`` users in the selected locations hold *all*
interests of a combination.

Independence between interests would be wildly wrong — a user's interests
are strongly correlated (someone interested in "trail running shoes" is far
more likely than a random user to also be interested in "ultramarathons").
We capture that with a *conditional-retention* model: sort the interests of
a combination from rarest to most popular with marginal probabilities
``p_(1) <= p_(2) <= ...``; the fraction of users holding all of them is

    p(S) = p_(1) * prod_{k >= 2} r_k,      r_k = min(1, boost_k * p_(k) ** alpha)

where ``alpha`` in (0, 1) is the correlation exponent (``alpha = 1`` recovers
independence) and ``boost_k > 1`` applies when interest ``k`` shares a topic
with the rarest interest, reflecting the stronger co-occurrence of same-topic
interests.  A small deterministic log-normal jitter keyed on the combination
makes repeated queries for the same audience return identical values while
different combinations of similar rarity spread realistically.

The single parameter ``alpha`` reproduces both regimes of the paper: the
least-popular selection becomes unique after ~4 interests and the random
selection after ~22 (Table 1).

The prefix kernel
-----------------
Every AND audience the model reports comes from one kernel,
:meth:`StatisticalReachModel.prefix_audiences_panel`.  The paper's
measurement reads, for every panel user, the audiences of all ``1..N``
prefixes of one ordered interest list; the kernel takes a padded
``(n_users, width)`` matrix of such lists and computes every prefix of
every row in one pass, with a fixed number of array operations per call,
each sweeping the prefix axis of the transposed ``(width, n_users)`` matrix:

* per-interest quantities are built once, with the model: a table over
  the distinct marginals (the marginal, its log, the log plain retention
  and the log boost delta) and each catalog position's rank into it, topic
  code and jitter token hash, read at the positions of one
  :meth:`~repro.catalog.InterestCatalog.positions` lookup per call;
* each prefix's rarest interest is one ``minimum.accumulate`` over the
  key ``rank * cells + cell`` (the first of equally rare interests wins),
  and the conditional-retention product a cumulative log-sum;
* the same-topic boosts are one sequential sum over a ``(width, width,
  rows)`` same-topic mask, built in row blocks of a fixed cell budget so
  that large calls keep bounded memory;
* the jitter comes from the counter-based construction in
  :mod:`repro.reach.jitter`.

An interest no user holds (audience 0) makes every AND audience holding it
0, which the Ads API reports at the floor.

Every stage is prefix-local: a cell depends only on the ids before it in
its row.  That is what lets the scalar :meth:`~StatisticalReachModel.audience_for`
read the last cell of a one-row call, and what the parity suite pins
bit-for-bit against the per-list reference kernel in ``tests/oracles.py``.
Repeated queries with the same id order are exactly identical; querying a
*permutation* of the same set agrees to floating-point rounding (the
log-sums accumulate in query order; only the jitter factor is exactly
order-independent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._rng import stable_hash
from ..cache import BuildCache, catalog_stage_key, stable_fingerprint
from ..catalog import DEFAULT_WORLD_POPULATION, InterestCatalog
from ..config import CatalogConfig, ReachModelConfig
from ..errors import ConfigurationError
from .backend import ReachBackend
from .countries import location_fraction, total_user_base
from .jitter import interest_token_hashes, jitter_key, lognormal_jitter

#: Bound on the per-instance memo of OR-query jitter factors.
_SCALAR_CACHE_SIZE = 4096

#: Cells of the (width, width, rows) same-topic mask the prefix kernel
#: builds at once; a larger call walks its rows in blocks of this size.
_TOPIC_MASK_CELLS = 1 << 20


@dataclass(frozen=True)
class ReachModelSpec:
    """Everything needed to rebuild a :class:`StatisticalReachModel`.

    The sharded execution layer's process workers cannot cheaply ship a
    live model (it carries the whole catalog); instead a shard task
    carries this frozen, hashable spec and each worker rebuilds — and
    memoises — the model from config + seed.  Catalog generation and the
    jitter key are fully deterministic, so a rebuilt model returns
    bit-identical audiences to the original (pinned by
    ``tests/test_exec_sharding.py``).
    """

    catalog_config: CatalogConfig
    reach_config: ReachModelConfig
    catalog_seed: int | None = None

    def fingerprint(self) -> str:
        """Stable content fingerprint of the model this spec rebuilds.

        Follows the config fingerprint contract (:mod:`repro.config`):
        equal specs — and only equal specs — share a digest, across
        process restarts.  Process workers key their per-worker model
        memo on it (:mod:`repro.exec.tasks`).
        """
        return stable_fingerprint(
            "ReachModelSpec",
            {
                "catalog_config": self.catalog_config.to_dict(),
                "reach_config": self.reach_config.to_dict(),
                "catalog_seed": self.catalog_seed,
            },
        )

    def build(self, *, cache: "BuildCache | None" = None) -> "StatisticalReachModel":
        """Rebuild the model this spec describes.

        With a :class:`~repro.cache.BuildCache`, the catalog generation —
        the expensive part — is keyed by the same catalog-stage
        fingerprint :func:`repro.pipeline.build_catalog` uses, so a
        worker that already compiled a sweep simulation reuses its
        catalog here (and vice versa) — and a cache with a disk tier lets
        a cold process worker *load* the catalog from the shared root
        instead of regenerating it.  The model shell itself is always
        fresh: its memo caches are per-instance run state.
        """

        def generate() -> InterestCatalog:
            return InterestCatalog.generate(self.catalog_config, seed=self.catalog_seed)

        if cache is None:
            catalog = generate()
        else:
            # Local import: repro.io reaches this module through the fdvt
            # → exec chain, so a module-level import would cycle.
            from ..io.artifacts import CATALOG_CODEC

            key = catalog_stage_key(
                self.catalog_config, self.catalog_seed, DEFAULT_WORLD_POPULATION
            )
            catalog = cache.get_or_build(key, generate, codec=CATALOG_CODEC)
        return StatisticalReachModel(catalog, self.reach_config, spec=self)


class StatisticalReachModel(ReachBackend):
    """Audience-size model over the paper's 1.5B-user base."""

    def __init__(
        self,
        catalog: InterestCatalog,
        config: ReachModelConfig | None = None,
        *,
        world_population: float | None = None,
        spec: ReachModelSpec | None = None,
    ) -> None:
        self._catalog = catalog
        self._config = config or ReachModelConfig()
        self._spec = spec
        if world_population is None:
            self._world = float(total_user_base())
        else:
            self._world = float(world_population)
        if self._world <= 0:
            raise ConfigurationError("world_population must be positive")
        self._jitter_key = jitter_key(
            stable_hash(self._config.seed, "reach-jitter")
        )
        # Per-interest kernel inputs.  The four terms that are functions of
        # the marginal alone live in one (4, distinct marginals) table, read
        # through each catalog position's rank; topic codes are only
        # compared, so they keep the catalog's narrow dtype.
        self._marginals = np.minimum(
            1.0, catalog.audiences.astype(float) / self._world
        )
        marginal, ranks = np.unique(self._marginals, return_inverse=True)
        retention = marginal**self._config.correlation_alpha
        boost = 1.0 + self._config.topic_affinity_boost
        with np.errstate(divide="ignore"):
            log_marginal = np.log(marginal)
            log_plain = np.log(np.minimum(1.0, retention))
            log_boosted = np.log(np.minimum(1.0, retention * boost))
        # An interest nobody holds has log marginal -inf, which zeroes every
        # AND audience holding it; its retention terms are 0 rather than
        # -inf, so no prefix sum meets -inf - -inf = NaN.
        log_plain[marginal == 0] = 0.0
        log_boosted[marginal == 0] = 0.0
        self._rank_terms = np.stack(
            (marginal, log_marginal, log_plain, log_boosted - log_plain)
        )
        self._ranks = ranks
        self._topic_codes = catalog.topic_codes
        self._token_hashes = interest_token_hashes(catalog.ids, self._jitter_key)
        # Bounded memo of OR-query jitter factors.
        self._jitter_cache: dict[tuple[int, ...], float] = {}

    # -- properties ---------------------------------------------------------

    @property
    def catalog(self) -> InterestCatalog:
        """The interest catalog the model reads marginal audiences from."""
        return self._catalog

    @property
    def config(self) -> ReachModelConfig:
        """The reach-model configuration."""
        return self._config

    @property
    def spec(self) -> ReachModelSpec | None:
        """A rebuildable spec for this model, when it was built from one."""
        return self._spec

    @property
    def correlation_alpha(self) -> float:
        """The conditional-retention exponent currently in use."""
        return self._config.correlation_alpha

    def world_size(self, locations: Sequence[str] | None = None) -> float:
        """Total user base for ``locations`` (the full base when ``None``)."""
        if locations is None:
            return self._world
        return self._world * location_fraction(locations)

    # -- marginals ------------------------------------------------------------

    def marginal_probability(self, interest_id: int) -> float:
        """Fraction of the world base holding ``interest_id``."""
        position = self._catalog.positions([int(interest_id)])
        return float(self._marginals[position[0]])

    def marginal_audience(
        self, interest_id: int, locations: Sequence[str] | None = None
    ) -> float:
        """Audience of a single interest restricted to ``locations``."""
        return self.marginal_probability(interest_id) * self.world_size(locations)

    # -- combinations ----------------------------------------------------------

    def union_probability(self, interest_ids: Sequence[int]) -> float:
        """Fraction of users holding *at least one* interest in the set."""
        ids = np.asarray([int(i) for i in interest_ids], dtype=np.int64)
        if ids.size == 0:
            return 0.0
        probs = self._marginals[self._catalog.positions(ids)]
        # cumprod keeps the reduction order identical for any padded batch
        # evaluation of the same combination.
        return float(1.0 - np.cumprod(1.0 - probs)[-1])

    def audience_for(
        self,
        interest_ids: Sequence[int],
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
    ) -> float:
        """Audience size of an interest combination restricted to locations.

        The value is *not* floored or rounded; the Ads API layer applies the
        Potential Reach reporting rules.  An AND audience is the last cell
        of a one-row :meth:`prefix_audiences_panel` call.
        """
        ids = tuple(int(i) for i in interest_ids)
        base = self.world_size(locations)
        if not ids:
            return base
        if combine == "and":
            row = np.asarray([ids], dtype=np.int64)
            return float(self.prefix_audiences_panel(row, [len(ids)], locations)[0, -1])
        if combine == "or":
            probability = self.union_probability(ids)
            audience = base * probability * self._jitter(ids)
            return max(audience, 0.0)
        raise ConfigurationError(f"unknown combine mode: {combine!r}")

    def prefix_audiences_panel(
        self,
        id_matrix: np.ndarray,
        counts: Sequence[int] | np.ndarray,
        locations: Sequence[str] | None = None,
    ) -> np.ndarray:
        """AND audiences of every prefix of every row of a padded id matrix.

        ``id_matrix`` is a padded ``(n_users, width)`` integer matrix whose
        row ``u`` holds the first ``counts[u]`` ordered interest ids of one
        user (entries beyond ``counts[u]`` are padding and never read).  The
        result has the same shape; ``result[u, k]`` is the audience of
        ``id_matrix[u, :k + 1]`` for ``k < counts[u]`` and ``NaN``
        elsewhere.

        This is the model's one AND kernel (see the module docstring):
        every cumulative quantity (running minima, log-sums, per-topic
        boost corrections, jitter seeds) runs row-parallel over the whole
        matrix, so the users × N measurement of the paper costs a handful
        of array sweeps instead of one Python iteration per user.
        """
        ids = np.asarray(id_matrix, dtype=np.int64)
        if ids.ndim != 2:
            raise ConfigurationError("id_matrix must be a 2D (n_users, width) matrix")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (ids.shape[0],):
            raise ConfigurationError("counts must hold one entry per id_matrix row")
        if counts.size and (
            int(counts.min()) < 0 or int(counts.max()) > ids.shape[1]
        ):
            raise ConfigurationError("counts must lie in [0, id_matrix width]")
        n_users, width = ids.shape
        if n_users == 0 or width == 0 or not counts.any():
            return np.full((n_users, width), np.nan)
        base = self.world_size(locations)
        valid = np.arange(width) < counts[:, None]
        # Padding cells are pointed at a real catalog entry so the gathers
        # stay in bounds; their values are garbage and masked out at the end
        # (every kernel stage is prefix-local, so padding never leaks into a
        # valid cell).  The kernel works on the transposed (width, n_users)
        # layout, so each prefix sweep is one vectorised pass over all rows.
        positions = np.ascontiguousarray(
            self._catalog.positions(np.where(valid, ids, self._catalog.ids[0])).T
        )
        # The rarest interest of each prefix is its smallest (rank, cell)
        # key, so the first of equally rare interests wins.
        ranks = self._ranks[positions]
        size = n_users * width
        rarest_rank, rarest_cell = np.divmod(
            np.minimum.accumulate(
                ranks * size + np.arange(size).reshape(width, n_users), axis=0
            ),
            size,
        )
        terms = self._rank_terms
        marginal, log_marginal, log_plain, log_boost_delta = terms.take(
            rarest_rank, axis=1
        )
        plain_terms, delta_terms = terms[2:].take(ranks, axis=1)
        topics = self._topic_codes[positions]
        same_topic = _same_topic_sums(topics, topics.take(rarest_cell), delta_terms)
        log_probability = (
            log_marginal
            + (np.add.accumulate(plain_terms, axis=0) - log_plain)
            + (same_topic - log_boost_delta)
        )
        intersections = np.minimum(np.exp(log_probability), marginal)
        jitters = lognormal_jitter(
            np.add.accumulate(self._token_hashes[positions], axis=0),
            self._config.jitter_log10_sigma,
        )
        audiences = base * intersections * jitters
        # The jitter never pushes an AND audience above its rarest marginal.
        clipped = np.maximum(np.minimum(audiences, base * marginal), 0.0)
        return np.where(valid, clipped.T, np.nan)

    # -- internals ------------------------------------------------------------

    def _jitter(self, interest_ids: tuple[int, ...]) -> float:
        """Deterministic log-normal jitter keyed on the interest combination.

        The jitter is intentionally independent of the location filter and of
        the AND/OR mode, so that the model's monotonicity invariants (adding
        a location never shrinks an audience, narrowing never grows it) hold
        exactly and not just in expectation.  The value comes from the shared
        counter-based kernel in :mod:`repro.reach.jitter`, so a scalar query
        and the matching element of a batched prefix query agree bitwise.
        """
        sigma = self._config.jitter_log10_sigma
        if sigma <= 0:
            return 1.0
        key = tuple(sorted(interest_ids))
        cached = self._jitter_cache.get(key)
        if cached is None:
            # A combination's seed is the wrapping sum of its token hashes.
            hashes = self._token_hashes[self._catalog.positions(key)]
            seed = hashes.sum(dtype=np.uint64, keepdims=True)
            cached = float(lognormal_jitter(seed, sigma)[0])
            if len(self._jitter_cache) >= _SCALAR_CACHE_SIZE:
                self._jitter_cache.pop(next(iter(self._jitter_cache)))
            self._jitter_cache[key] = cached
        return cached


def _same_topic_sums(
    topics: np.ndarray, rarest_topics: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """Cell ``(k, u)``: the sum of ``deltas[j, u]`` over ``j <= k`` with
    ``topics[j, u] == rarest_topics[k, u]``, added in column order (a reduction
    along the slow axis of the masked ``(width, width, rows)`` stack runs
    sequentially), ``_TOPIC_MASK_CELLS`` mask cells at a time."""
    width, n_users = topics.shape
    upper = np.arange(width)[:, None, None] <= np.arange(width)[:, None]
    sums = np.empty(topics.shape)
    step = max(1, _TOPIC_MASK_CELLS // (width * width))
    for start in range(0, n_users, step):
        block = slice(start, start + step)
        terms = np.where(
            topics[:, None, block] == rarest_topics[None, :, block],
            deltas[:, None, block],
            0.0,
        )
        np.add.reduce(terms, axis=0, out=sums[:, block], where=upper)
    return sums
