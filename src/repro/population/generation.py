"""Sharded, bit-identical generation of columnar user panels.

:meth:`~repro.fdvt.panel.PanelBuilder.build` draws demographics and
interest counts as whole-array operations, then assigns interests per
user, deriving one ``derive_generator(base_seed, SEED_KEY, index)`` per
user.  Because every user's stream is derived from its row index alone,
the per-user work is embarrassingly parallel *and* partition-free: any
contiguous shard of rows reproduces exactly the draws of a whole-range
pass.

:class:`InterestShardTask` packages one such shard as a picklable unit of
work for a :class:`~repro.exec.runner.ShardRunner` — the same machinery the
collection engine uses.  In-process runners carry the live
:class:`~repro.population.assignment.InterestAssigner`; across a process
boundary the task carries an :class:`AssignerSpec` instead, and workers
rebuild the assigner once per process through the shared
:class:`~repro.cache.BuildCache` (the catalog stage key is the same one the
pipeline and the reach-model spec use, so a worker that already built the
catalog for a cached sweep reuses it here).

Shard results concatenate in shard order into the CSR arrays of
:class:`~repro.population.columnar.PanelColumns`, so every backend, worker
count and shard size yields bit-identical columns.

Stream contract
---------------

Every row owns one ``derive_generator(base_seed, SEED_KEY, row)`` stream,
consumed in exactly this order:

1. **age draw** — one ``rng.integers`` draw via
   :func:`~repro.population.demographics.sample_age` for disclosed age
   groups; *no* draw for UNDISCLOSED rows;
2. **bias jitter** — only when ``bias_jitter > 0``: one
   ``rng.normal(0.0, jitter)`` draw, then round to 2 decimals and clip to
   ``[0.1, 0.95]``;
3. **preferred topics** — one
   ``rng.choice(n_topics, size=TOPICS_PER_USER, replace=False)`` draw;
4. **assignment** — up to 40 attempts, each one topic draw block
   (``rng.choice(..., p=...)``, i.e. one uniform block against the topic
   CDF) followed by one ``rng.random(batch)`` block for the within-topic
   draws; on exhaustion, one ``rng.shuffle`` of the not-yet-assigned ids.
   ``oracles.ReferenceAssigner.assign`` in ``tests/oracles.py`` states
   this stage for one user at a time.

:func:`run_interest_shard` runs stages 1–3 row by row, parks each row's
live generator, then hands the whole shard to the batched
:meth:`InterestAssigner.assign_rows
<repro.population.assignment.InterestAssigner.assign_rows>` kernel for
stage 4 — the per-row streams never merge (each row's generator advances
exactly as the per-user reference's would), only the bookkeeping between
draws is batched across rows.  The parity suite pins the two bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .._rng import derive_generator
from ..cache import (
    BuildCache,
    SpecMemo,
    build_cache,
    catalog_stage_key,
    stable_fingerprint,
)
from .columnar import AGE_GROUP_TABLE, AGE_UNDISCLOSED
from .demographics import AGE_GROUP_BOUNDS, AgeGroup

#: Label of every row's per-user stream (see the stream contract).
SEED_KEY = "panel-user"

#: Preferred topics drawn per user from its stream (stage 3).
TOPICS_PER_USER = 3

#: Bounded per-process memo of assigners rebuilt from specs (mirrors
#: ``repro.exec.tasks``'s model memo): long-lived sweep/service workers
#: see many spec variants over their lifetime, so the memo is a small LRU
#: instead of an ever-growing dict.
_SPEC_MEMO = SpecMemo()


def clear_spec_memo() -> None:
    """Drop every memoised assigner rebuild (test isolation hook)."""
    _SPEC_MEMO.clear()


@dataclass(frozen=True)
class AssignerSpec:
    """Everything a worker needs to rebuild an :class:`InterestAssigner`.

    Mirrors :class:`~repro.reach.ReachModelSpec`: a few config dataclasses
    instead of a pickled interest catalog.  ``catalog_config`` is the
    :class:`~repro.config.CatalogConfig` the catalog was generated from and
    ``catalog_seed`` its resolved stage seed.
    """

    catalog_config: Any
    catalog_seed: int | None
    topic_affinity_boost: float = 4.0

    def fingerprint(self) -> str:
        """Content fingerprint (collides exactly for bit-identical rebuilds)."""
        return stable_fingerprint(
            "spec:assigner",
            {
                "catalog": self._catalog_key(),
                "topic_affinity_boost": float(self.topic_affinity_boost),
            },
        )

    def _catalog_key(self) -> str:
        from ..catalog import DEFAULT_WORLD_POPULATION

        return catalog_stage_key(
            self.catalog_config, self.catalog_seed, DEFAULT_WORLD_POPULATION
        )

    def build(self, cache: BuildCache | None = None) -> Any:
        """Rebuild the assigner, sharing the catalog via ``cache``.

        A cache with a disk tier hydrates the catalog from its root
        (same key and codec as :func:`repro.pipeline.build_catalog`), so
        cold process-pool generation workers load instead of regenerate.
        """
        from ..catalog import InterestCatalog
        from ..io.artifacts import CATALOG_CODEC
        from .assignment import InterestAssigner

        def generate() -> InterestCatalog:
            return InterestCatalog.generate(self.catalog_config, seed=self.catalog_seed)

        catalog = (
            generate()
            if cache is None
            else cache.get_or_build(self._catalog_key(), generate, codec=CATALOG_CODEC)
        )
        return InterestAssigner(
            catalog,
            topic_affinity_boost=self.topic_affinity_boost,
            spec=self,
        )


def resolve_assigner(payload: Any) -> Any:
    """Return a live assigner for ``payload``, rebuilding specs once per process."""
    if isinstance(payload, AssignerSpec):
        return _SPEC_MEMO.get_or_build(
            payload, lambda spec: spec.build(cache=build_cache())
        )
    return payload


def assigner_shard_payload(assigner: Any, runner: Any) -> Any:
    """Pick what a generation shard should carry for ``assigner`` under ``runner``.

    Process runners get the assigner's :class:`AssignerSpec` when it has
    one (cheap to pickle, rebuilt worker-side); otherwise the live object
    is shipped and must pickle on its own.
    """
    if getattr(runner, "requires_pickling", False):
        spec = getattr(assigner, "spec", None)
        if spec is not None:
            return spec
    return assigner


@dataclass(frozen=True)
class InterestShardTask:
    """One contiguous row range of per-user interest assignment.

    Pure compute: re-derives each row's per-user generator from
    ``(base_seed, SEED_KEY, row)``, so re-running a shard (retries, chaos)
    or re-partitioning the plan cannot change any draw.
    """

    #: A live :class:`InterestAssigner`, or an :class:`AssignerSpec`.
    assigner: Any
    #: The builder's resolved base seed.
    base_seed: int
    #: Global row range ``[start, stop)`` this shard covers.
    start: int
    stop: int
    #: Requested interests per row — one entry per covered row.
    counts: np.ndarray
    #: Per-row :data:`~repro.population.columnar.AGE_GROUP_TABLE` codes to
    #: sample ages from inside the per-user stream.
    age_group_index: np.ndarray
    #: Per-row popularity bias before jitter.
    base_bias: np.ndarray
    #: Std-dev of the per-user bias jitter draw (0 skips the draw).
    bias_jitter: float = 0.0


def _shard_row_streams(
    assigner: Any, task: InterestShardTask
) -> tuple[list[Any], list[np.ndarray], np.ndarray, np.ndarray]:
    """Run stream stages 1–3 for every row; park the live generators.

    Returns ``(streams, preferred, biases, ages)`` with one parked
    generator and preferred-topic index array per row, ready for the
    stage-4 batch kernel.
    """
    n_rows = task.stop - task.start
    # The loop below is the kernel's remaining per-row Python; at ~5k rows
    # it is a large share of shard wall-clock, so the per-draw helpers are
    # inlined draw-for-draw (``sample_age`` is one ``rng.integers`` inside
    # the group's bounds; the jitter clip is a scalar clamp) and the numpy
    # scalar indexing is hoisted into plain Python lists.
    ages = np.full(n_rows, AGE_UNDISCLOSED, dtype=np.int16)
    age_codes = task.age_group_index.tolist()
    bounds_by_code = [
        None if group is AgeGroup.UNDISCLOSED else AGE_GROUP_BOUNDS[group]
        for group in AGE_GROUP_TABLE
    ]
    biases = np.empty(n_rows, dtype=np.float64)
    base_bias = task.base_bias.tolist()
    jitter = float(task.bias_jitter)
    sample_preferred = assigner.sample_preferred_topic_indices
    base_seed, start = task.base_seed, task.start
    streams: list[Any] = []
    preferred: list[np.ndarray] = []
    for offset in range(n_rows):
        user_rng = derive_generator(base_seed, SEED_KEY, start + offset)
        bounds = bounds_by_code[age_codes[offset]]
        if bounds is not None:
            ages[offset] = int(user_rng.integers(bounds[0], bounds[1] + 1))
        bias = base_bias[offset]
        if jitter > 0:
            bias += float(user_rng.normal(0.0, jitter))
            bias = round(bias, 2)
            bias = 0.1 if bias < 0.1 else (0.95 if bias > 0.95 else bias)
        biases[offset] = bias
        preferred.append(sample_preferred(TOPICS_PER_USER, user_rng))
        streams.append(user_rng)
    return streams, preferred, biases, ages


def run_interest_shard(
    task: InterestShardTask,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign one shard's rows; returns ``(flat_ids, row_counts, ages)``.

    ``flat_ids`` is the shard's CSR fragment (``int32``), ``row_counts``
    the per-row lengths, and ``ages`` the sampled ``int16`` ages
    (``AGE_UNDISCLOSED`` for undisclosed rows).  Each per-user stream is
    consumed in exactly the documented order (see the module docstring's
    stream contract) — stages 1–3 row by row, stage 4 through the batched
    :meth:`~repro.population.assignment.InterestAssigner.assign_rows`
    kernel.
    """
    assigner = resolve_assigner(task.assigner)
    streams, preferred, biases, ages = _shard_row_streams(assigner, task)
    flat, row_counts = assigner.assign_rows(
        task.counts,
        streams,
        preferred_topics=preferred,
        popularity_biases=biases,
    )
    return flat.astype(np.int32), row_counts, ages

