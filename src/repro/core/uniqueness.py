"""The end-to-end uniqueness model (Section 4).

:class:`UniquenessModel` wires together the collection of audience sizes
from the Ads API, the quantile machinery, the log-log fit and the bootstrap
confidence intervals, and produces the :class:`UniquenessReport` rows of
Table 1 plus the VAS(Q) curves of Figures 3-5.

Both heavy stages run on the batched kernels: :meth:`UniquenessModel.collect`
runs the collector's shard engine — per-shard strategy ordering off the
panel's CSR store plus the prefix-reach kernel, with one merged rate-limit
bill for the whole users × N matrix — and :meth:`UniquenessModel.estimate`
computes its confidence intervals with
:func:`~repro.core.bootstrap.bootstrap_cutpoints`, which sorts each column
once, reads every replicate's quantiles off per-user draw counts and stops
at the first N where every replicate has reached the floor.

Pass a :class:`~repro.exec.ShardExecutor` (``executor=...``) to run both
stages on a thread or process pool, or set ``stream=True`` to run the whole
collection → quantiles → bootstrap chain through the mergeable
:class:`~repro.core.quantiles.AudienceAccumulator` without ever
materialising the users × N sample matrix.  Every route returns
bit-identical estimates.  Collected samples are cached per
``(strategy, route, shard plan)`` — a caller that asked for a specific
plan never gets a result silently served from a different one — and
:meth:`UniquenessModel.cache_clear` drops the cache wholesale.
"""

from __future__ import annotations

from typing import Sequence

from .._rng import derive_generator
from ..adsapi import AdsManagerAPI
from ..config import UniquenessConfig
from ..errors import ModelError
from ..exec import ShardExecutor, drain
from ..fdvt.panel import FDVTPanel
from .bootstrap import bootstrap_cutpoints, percentile_interval
from .collection import AudienceSizeCollector
from .fitting import fit_vas
from .quantiles import (
    AudienceAccumulator,
    AudienceSamples,
    StreamedAudienceSamples,
    probability_to_percentile,
)
from .results import NPEstimate, UniquenessReport
from .selection import SelectionStrategy, strategy_fingerprint


class UniquenessModel:
    """Estimates N_P (the interests making a user unique) on the simulated platform."""

    def __init__(
        self,
        api: AdsManagerAPI,
        panel: FDVTPanel,
        config: UniquenessConfig | None = None,
        *,
        locations: Sequence[str] | None = None,
    ) -> None:
        self._api = api
        self._panel = panel
        self._config = config or UniquenessConfig()
        max_interests = min(
            self._config.max_interests, api.platform.max_interests_per_audience
        )
        self._collector = AudienceSizeCollector(
            api, panel, max_interests=max_interests, locations=locations
        )
        self._cache: dict[
            tuple[int, tuple], AudienceSamples | StreamedAudienceSamples
        ] = {}

    @property
    def config(self) -> UniquenessConfig:
        """The analysis configuration in use."""
        return self._config

    @property
    def panel(self) -> FDVTPanel:
        """The panel the model analyses."""
        return self._panel

    # -- data collection -----------------------------------------------------------

    def collect(
        self,
        strategy: SelectionStrategy,
        *,
        refresh: bool = False,
        executor: ShardExecutor | None = None,
    ) -> AudienceSamples:
        """Collect (or return cached) audience samples for one strategy.

        ``executor`` picks the runner backend and shard plan (serial by
        default).  Results are cached per ``(strategy, shard plan)``: every
        plan returns bit-identical samples, but ``refresh`` only refreshes
        the entry of the plan it was given.
        """
        executor = executor or ShardExecutor()
        key = (strategy_fingerprint(strategy), ("collect", *executor.fingerprint))
        if refresh or key not in self._cache:
            self._cache[key] = self._collector.collect(strategy, executor=executor)
        return self._cache[key]

    def collect_streamed(
        self,
        strategy: SelectionStrategy,
        *,
        refresh: bool = False,
        executor: ShardExecutor | None = None,
    ) -> StreamedAudienceSamples:
        """Collect via the streaming path into a mergeable accumulator.

        Per-shard blocks from
        :meth:`~repro.core.collection.AudienceSizeCollector.collect_stream`
        drain into an :class:`~repro.core.quantiles.AudienceAccumulator`;
        the finalized column store answers quantile and bootstrap queries
        bit-identically to :meth:`collect` without the full users × N
        matrix ever existing.  Cached per ``(strategy, shard plan)`` like
        :meth:`collect`.
        """
        executor = executor or ShardExecutor()
        key = (strategy_fingerprint(strategy), ("stream", *executor.fingerprint))
        if refresh or key not in self._cache:
            self._cache[key] = drain(
                self._collector.collect_stream(strategy, executor=executor),
                AudienceAccumulator(),
            )
        samples = self._cache[key]
        assert isinstance(samples, StreamedAudienceSamples)
        return samples

    def cache_clear(self) -> None:
        """Drop every cached collection (all strategies, all routes)."""
        self._cache.clear()

    # -- estimation -------------------------------------------------------------------

    def estimate(
        self,
        strategy: SelectionStrategy,
        *,
        probabilities: Sequence[float] | None = None,
        samples: AudienceSamples | StreamedAudienceSamples | None = None,
        executor: ShardExecutor | None = None,
        stream: bool = False,
    ) -> UniquenessReport:
        """Estimate N_P for every requested probability under one strategy.

        With ``executor`` both heavy stages run shard-parallel — collection
        over panel-row shards and the bootstrap over replicate chunks on the
        same runner backend; with ``stream=True`` collection additionally
        streams per-shard blocks into the mergeable accumulator so
        collection → quantiles → bootstrap never hold the full sample
        matrix.  Every route is bit-identical.
        """
        if probabilities is None:
            probabilities = self._config.probabilities
        probabilities = tuple(probabilities)
        if not probabilities:
            raise ModelError("at least one probability is required")
        if samples is None:
            if stream:
                samples = self.collect_streamed(strategy, executor=executor)
            else:
                samples = self.collect(strategy, executor=executor)
        percentiles = [probability_to_percentile(p) for p in probabilities]
        vas_rows = samples.vas_many(percentiles)
        bootstrap_seed = derive_generator(
            self._config.seed, "bootstrap", strategy.name
        )
        cutpoint_distributions = bootstrap_cutpoints(
            samples,
            percentiles,
            n_bootstrap=self._config.n_bootstrap,
            seed=bootstrap_seed,
            executor=executor,
        )
        estimates = {}
        vas_curves = {}
        for probability, percentile, vas in zip(probabilities, percentiles, vas_rows):
            fit = fit_vas(vas, samples.floor)
            interval = percentile_interval(
                cutpoint_distributions[percentile], self._config.confidence_level
            )
            estimates[probability] = NPEstimate(
                probability=probability,
                n_p=fit.cutpoint,
                confidence_interval=interval,
                r_squared=fit.r_squared,
                fit=fit,
            )
            vas_curves[probability] = vas
        return UniquenessReport(
            strategy_name=strategy.name,
            estimates=estimates,
            vas_curves=vas_curves,
            n_users=samples.n_users,
            floor=samples.floor,
        )
