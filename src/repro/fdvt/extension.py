"""The FDVT browser extension.

The extension has three responsibilities in the paper:

1. during a Facebook session it parses the user's *ad preferences* page,
   collecting the interests Facebook assigned to the user (the dataset of
   Section 3);
2. it estimates the revenue the user generates for Facebook (its original
   purpose);
3. since Section 6, it offers the "Risks of my FB interests" view: the
   user's interests sorted by audience size, colour-coded by privacy risk,
   with one-click removal.

Audience sizes are retrieved per interest from the (simulated) Ads Manager
API, exactly like the real extension queries the real API: one
``estimate_reach`` call per interest for a single user's report, and one
deduplicated bulk query, run as row shards on a
:class:`~repro.exec.ShardExecutor`, for a batch of reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..adsapi import AdsManagerAPI, TargetingSpec
from ..catalog import InterestCatalog
from ..errors import PanelError
from ..exec import ShardExecutor
from ..exec.tasks import ReachShardTask, run_reach_shard, shard_backend_payload
from ..population.user import SyntheticUser
from ..reach.countries import country_codes
from .interface import InterestRiskEntry, RiskReport
from .revenue import RevenueEstimate, RevenueEstimator
from .risk import DEFAULT_THRESHOLDS, RiskThresholds

#: Sentinel distinguishing "not resolved yet" from a resolved ``None``
#: (worldwide) location list.
_UNRESOLVED = object()


@dataclass(frozen=True)
class AdPreferencesSnapshot:
    """The interests collected from one user's ad-preferences page."""

    user_id: int
    interest_ids: tuple[int, ...]

    @property
    def interest_count(self) -> int:
        """Number of interests in the snapshot."""
        return len(self.interest_ids)


class FDVTExtension:
    """Simulates one installation of the FDVT browser extension."""

    def __init__(
        self,
        api: AdsManagerAPI,
        catalog: InterestCatalog,
        *,
        thresholds: RiskThresholds = DEFAULT_THRESHOLDS,
    ) -> None:
        self._api = api
        self._catalog = catalog
        self._thresholds = thresholds
        self._revenue = RevenueEstimator()
        self._resolved_locations: object = _UNRESOLVED

    @property
    def thresholds(self) -> RiskThresholds:
        """Risk thresholds used by the risk view."""
        return self._thresholds

    # -- data collection ---------------------------------------------------------

    def collect_ad_preferences(self, user: SyntheticUser) -> AdPreferencesSnapshot:
        """Parse the user's ad-preferences page (collect their interests)."""
        return AdPreferencesSnapshot(user_id=user.user_id, interest_ids=user.interest_ids)

    def query_locations(self) -> tuple[str, ...] | None:
        """Locations every extension query targets, resolved once.

        ``None`` (worldwide) when the platform allows it; otherwise (the
        pre-2020 situation) the 50 largest Facebook countries, as in the
        paper's data collection.  The tuple is memoised on the extension so
        per-interest queries do not rebuild the 50-country list each time.
        """
        if self._resolved_locations is _UNRESOLVED:
            if self._api.platform.allow_worldwide_location:
                self._resolved_locations = None
            else:
                self._resolved_locations = country_codes()
        return self._resolved_locations  # type: ignore[return-value]

    def interest_audience_size(self, interest_id: int) -> int:
        """Potential Reach of a single-interest audience.

        The audience covers :meth:`query_locations` (worldwide when the
        platform allows it, the 50 largest Facebook countries otherwise).
        """
        spec = TargetingSpec.for_interests(
            [interest_id], locations=self.query_locations()
        )
        return self._api.estimate_reach(spec).potential_reach

    # -- revenue estimation ---------------------------------------------------------

    def estimate_session_revenue(
        self, user: SyntheticUser, *, impressions: int, clicks: int
    ) -> RevenueEstimate:
        """Estimate the revenue generated during one browsing session."""
        return self._revenue.estimate(
            impressions=impressions, clicks=clicks, country=user.country
        )

    # -- Section 6: risk view ----------------------------------------------------------

    def build_risk_report(self, user: SyntheticUser) -> RiskReport:
        """Build the sorted, colour-coded risk view of the user's interests."""
        snapshot = self.collect_ad_preferences(user)
        if not snapshot.interest_ids:
            raise PanelError("the user has no interests to report on")
        audiences = [self.interest_audience_size(i) for i in snapshot.interest_ids]
        entries = self._risk_entries(
            np.asarray(snapshot.interest_ids, dtype=np.int64),
            np.asarray(audiences, dtype=np.int64),
        )
        entries.sort(key=lambda entry: (entry.audience_size, entry.interest_id))
        return RiskReport(user_id=user.user_id, entries=tuple(entries))

    def build_risk_reports(
        self,
        users: Sequence[SyntheticUser],
        *,
        executor: "ShardExecutor | None" = None,
    ) -> tuple[RiskReport, ...]:
        """Risk reports for many users from one batched audience query.

        The interests of all users are deduplicated with one ``np.unique``
        and their single-interest Potential Reach values fetched as one bulk
        query — one API request per *unique* interest instead of one per
        (user, interest) occurrence.  The query rows run as shards of an
        :class:`~repro.exec.ExecutionPlan` on ``executor`` (a serial
        :class:`~repro.exec.ShardExecutor` by default), with one merged
        bill, so reaches *and* accounting equal one
        :meth:`~repro.adsapi.AdsManagerAPI.estimate_reach_matrix` call for
        every backend and worker count.  One entry is built per unique
        interest and shared by every report holding it (entries are frozen;
        ``deactivated`` returns a copy).  The unique interests are ranked by
        (audience size, interest id) with one ``lexsort``, and one integer
        sort over (user, rank) keys orders every report at once.  Each
        returned report is identical to what :meth:`build_risk_report`
        would build for that user; a user without interests raises
        :class:`PanelError` exactly like the scalar path.
        """
        for user in users:
            if not user.interest_ids:
                raise PanelError("the user has no interests to report on")
        if not users:
            return ()
        counts = np.fromiter(
            (user.interest_count for user in users), dtype=np.int64, count=len(users)
        )
        flat_ids = np.fromiter(
            (i for user in users for i in user.interest_ids),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        unique_ids, inverse = np.unique(flat_ids, return_inverse=True)
        reaches = self._sharded_reach_matrix(
            unique_ids[:, None],
            np.ones(unique_ids.size, dtype=np.int64),
            executor or ShardExecutor(),
        )[:, 0]
        # Reaches are whole numbers: truncation is the scalar path's int().
        audiences = reaches.astype(np.int64)
        entries = self._risk_entries(unique_ids, audiences)
        # Rank the unique interests by (audience size, id) once, then order
        # every occurrence by one (user, rank) integer key.
        by_rank = np.lexsort((unique_ids, audiences))
        rank = np.empty_like(by_rank)
        rank[by_rank] = np.arange(by_rank.size)
        keys = np.repeat(np.arange(len(users)), counts) * by_rank.size + rank[inverse]
        keys.sort()
        order = by_rank[keys % by_rank.size].tolist()
        reports = []
        stop = 0
        for user, count in zip(users, counts.tolist()):
            start, stop = stop, stop + count
            entries_of_user = tuple(map(entries.__getitem__, order[start:stop]))
            reports.append(RiskReport(user_id=user.user_id, entries=entries_of_user))
        return tuple(reports)

    def _sharded_reach_matrix(
        self,
        id_matrix: np.ndarray,
        counts: np.ndarray,
        executor: ShardExecutor,
    ) -> np.ndarray:
        """The bulk reach query of :meth:`build_risk_reports`, sharded.

        Validates once, settles the merged bill once, runs the pure kernel
        blocks on the executor's runner and records the bill afterwards —
        the step order of ``estimate_reach_matrix``, so the accounting
        matches one bulk call bit-for-bit.
        """
        ids, counts, locations = self._api.validate_reach_matrix(
            id_matrix, counts, locations=self.query_locations()
        )
        bill = self._api.reach_matrix_bill(counts)
        self._api.settle_reach_bill(bill)
        runner = executor.runner()
        payload = shard_backend_payload(self._api.backend, runner)
        tasks = [
            ReachShardTask(
                backend=payload,
                id_matrix=ids[shard.rows],
                counts=counts[shard.rows],
                locations=locations,
                floor=self._api.platform.reach_floor,
            )
            for shard in executor.plan(ids.shape[0])
        ]
        blocks = runner.run(run_reach_shard, tasks)
        self._api.record_reach_bill(bill)
        return np.concatenate(blocks, axis=0)

    def _risk_entries(
        self, interest_ids: np.ndarray, audiences: np.ndarray
    ) -> list[InterestRiskEntry]:
        """One entry per (interest id, audience size) pair, in input order."""
        names = self._catalog.names
        classify = self._thresholds.classify
        return [
            InterestRiskEntry(interest_id, names[position], classify(audience), audience)
            for interest_id, position, audience in zip(
                interest_ids.tolist(),
                self._catalog.positions(interest_ids).tolist(),
                audiences.tolist(),
            )
        ]

    def remove_interest(self, user: SyntheticUser, interest_id: int) -> SyntheticUser:
        """Remove an interest from the user's ad preferences.

        Mirrors the one-click removal of Figure 7: the returned user no
        longer carries ``interest_id`` and can no longer be targeted
        through it.
        """
        if not user.has_interest(interest_id):
            raise PanelError(f"user {user.user_id} does not hold interest {interest_id}")
        return user.without_interest(interest_id)

    def remove_risky_interests(
        self, user: SyntheticUser, report: RiskReport | None = None
    ) -> tuple[SyntheticUser, RiskReport]:
        """Remove every high-risk (red) interest from the user's preferences."""
        report = report or self.build_risk_report(user)
        updated_user = user
        for entry in report.entries_at_risk():
            updated_user = self.remove_interest(updated_user, entry.interest_id)
        return updated_user, report.remove_all_at_risk()
