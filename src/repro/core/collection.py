"""Audience-size collection from the Ads Manager API.

For every panel user and every number of interests ``N`` in 1..25 the paper
retrieves, from the Ads Manager API, the Potential Reach of the audience
formed by the first ``N`` interests of the user's selection (least popular
or random).  The collector reproduces that loop against the simulated API
and arranges the results as the users x N matrix consumed by the quantile
machinery.

:class:`AudienceSizeCollector` runs that measurement as one engine: a
stream of contiguous panel-row shards (:mod:`repro.exec`).  Each shard's
strategy ordering is read straight off the panel's CSR store
(:func:`~repro.core.selection.ordered_interest_matrix_columns`), validated
and billed; the merged rate-limit bill of all shards is settled in one
accounting step — exactly what one fused
:meth:`~repro.adsapi.AdsManagerAPI.estimate_reach_matrix` call would spend
— and the pure prefix-kernel blocks run on the executor's runner (serial,
thread pool or process pool).  Two thin consumers sit on top:

* :meth:`AudienceSizeCollector.collect` assembles the full matrix and
  records the merged bill in ``call_stats`` after the last block;
* :meth:`AudienceSizeCollector.collect_stream` yields the per-shard blocks,
  recording each shard's bill as it yields it, so downstream accumulators
  never hold the full matrix.

Ordering and the prefix kernel are row-local, so the result — samples,
``call_stats``, token-bucket level and simulated clock — is bit-identical
for every backend, worker count and shard size, and to one scalar API call
per (user, N) cell (pinned against ``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..adsapi import AdsManagerAPI, CallBill
from ..errors import ModelError
from ..exec import ShardExecutor
from ..exec.plan import Shard
from ..exec.tasks import ReachShardTask, run_reach_shard, shard_backend_payload
from ..fdvt.panel import FDVTPanel
from .quantiles import AudienceSamples
from .selection import SelectionStrategy, ordered_interest_matrix_columns


@dataclass(frozen=True)
class _ShardJob:
    """One planned shard: its ordered block, its bill, its compute task."""

    shard: Shard
    bill: CallBill
    #: ``None`` when the shard has nothing to query (all-empty users).
    task: ReachShardTask | None


class AudienceSizeCollector:
    """Queries the Ads API for every (user, N) audience of a strategy."""

    def __init__(
        self,
        api: AdsManagerAPI,
        panel: FDVTPanel,
        *,
        max_interests: int = 25,
        locations: Sequence[str] | None = None,
    ) -> None:
        if max_interests < 1:
            raise ModelError("max_interests must be >= 1")
        platform_limit = api.platform.max_interests_per_audience
        if max_interests > platform_limit:
            raise ModelError(
                f"max_interests ({max_interests}) exceeds the platform limit "
                f"({platform_limit})"
            )
        self._api = api
        self._panel = panel
        self._max_interests = max_interests
        self._locations = tuple(locations) if locations else None

    @property
    def max_interests(self) -> int:
        """Largest number of interests combined per user."""
        return self._max_interests

    def collect(
        self, strategy: SelectionStrategy, *, executor: ShardExecutor | None = None
    ) -> AudienceSamples:
        """Collect the full audience-size matrix for one selection strategy.

        Rows correspond to panel users (in panel order) and column ``k``
        to combinations of ``k + 1`` interests; entries are ``NaN`` when the
        user has fewer interests than the column requires.  ``executor``
        picks the runner backend and shard plan (serial
        :class:`~repro.exec.ShardExecutor` by default).

        The merged bill is settled before any shard computes and recorded
        in ``call_stats`` after the last one: a shard that fails leaves the
        settled tokens spent and no calls recorded.  Billing is
        exactly-once under retries — shard tasks are pure compute, so an
        executor carrying a :class:`~repro.faults.RetryPolicy` /
        :class:`~repro.faults.FaultPlan` can re-run a shard any number of
        times without double-charging.
        """
        matrix = np.empty((len(self._panel), self._max_interests), dtype=float)
        bills = []
        for job, block in self._shard_blocks(strategy, executor or ShardExecutor()):
            matrix[job.shard.rows] = block
            bills.append(job.bill)
        self._api.record_reach_bill(CallBill.merged(bills))
        return AudienceSamples(
            matrix=matrix,
            floor=self._api.platform.reach_floor,
            user_ids=self._user_ids(),
        )

    def collect_stream(
        self, strategy: SelectionStrategy, *, executor: ShardExecutor | None = None
    ) -> Iterator[AudienceSamples]:
        """Stream the collection as per-shard :class:`AudienceSamples` blocks.

        A generator yielding one block per shard, in panel-row order; block
        rows concatenated equal :meth:`collect`'s matrix bit-for-bit and
        every block is padded to ``max_interests`` columns, so a mergeable
        accumulator (:class:`~repro.core.quantiles.AudienceAccumulator`)
        can absorb them without ever materialising the full users x N
        sample matrix.  Ordering and rate-limit settlement happen on first
        iteration (with ``auto_wait=False`` the stream raises before
        yielding anything), after which only one audience block at a time
        is alive on the serial backend, while pooled runners compute blocks
        ahead of consumption.  ``call_stats`` records each shard's calls as
        its block is yielded; a stream abandoned or failing midway leaves
        the settled tokens spent but later shards' calls unrecorded.

        Chaos note: with a kernel-depth :class:`~repro.faults.FaultPlan`
        (``depth="kernel"``), injected faults fire *inside*
        :func:`~repro.exec.tasks.run_reach_shard` — i.e. mid-stream,
        after earlier blocks were already yielded and merged downstream.
        Retried shards recompute from pure inputs, so a consumer folding
        blocks into an accumulator stays bit-identical to the fault-free
        stream (pinned by the kernel-depth chaos-parity tests).
        """
        floor = self._api.platform.reach_floor
        user_ids = self._user_ids()
        for job, block in self._shard_blocks(strategy, executor or ShardExecutor()):
            self._api.record_reach_bill(job.bill)
            yield AudienceSamples(
                matrix=block, floor=floor, user_ids=user_ids[job.shard.rows]
            )

    # -- the engine ------------------------------------------------------------------

    def _shard_blocks(
        self, strategy: SelectionStrategy, executor: ShardExecutor
    ) -> Iterator[tuple[_ShardJob, np.ndarray]]:
        """Plan every shard, settle the merged bill once, then yield blocks.

        Each yielded block is the shard's ``(rows, max_interests)`` matrix,
        ``NaN``-padded.  Bills are left for the caller to record.
        """
        runner = executor.runner()
        jobs = self._plan_shard_jobs(strategy, executor, runner)
        self._api.settle_reach_bill(CallBill.merged([job.bill for job in jobs]))
        tasks = [job.task for job in jobs if job.task is not None]
        results = runner.stream(run_reach_shard, tasks)
        for job in jobs:
            block = np.full((job.shard.size, self._max_interests), np.nan, dtype=float)
            if job.task is not None:
                values = next(results)
                block[:, : values.shape[1]] = values
            yield job, block

    def _plan_shard_jobs(
        self,
        strategy: SelectionStrategy,
        executor: ShardExecutor,
        runner,
    ) -> list[_ShardJob]:
        """Order, validate and bill every shard (no tokens spent yet).

        Per-shard ordering is bit-identical to one whole-panel pass (every
        row depends only on its own user) and faster at scale, because each
        shard's sort stays cache-resident.
        """
        payload = shard_backend_payload(self._api.backend, runner)
        floor = self._api.platform.reach_floor
        columns = self._panel.columns
        jobs: list[_ShardJob] = []
        for shard in executor.plan(len(columns)):
            ids, counts = ordered_interest_matrix_columns(
                strategy,
                columns,
                self._panel.catalog,
                self._max_interests,
                shard.start,
                shard.stop,
            )
            task = None
            if ids.shape[1]:
                ids, counts, locations = self._api.validate_reach_matrix(
                    ids, counts, locations=self._locations
                )
                task = ReachShardTask(
                    backend=payload,
                    id_matrix=ids,
                    counts=counts,
                    locations=locations,
                    floor=floor,
                )
            jobs.append(
                _ShardJob(
                    shard=shard, bill=self._api.reach_matrix_bill(counts), task=task
                )
            )
        return jobs

    def _user_ids(self) -> tuple[int, ...]:
        """Panel user ids in row order, without materialising user objects."""
        return tuple(self._panel.columns.user_ids.tolist())
