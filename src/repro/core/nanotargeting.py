"""The nanotargeting experiment (Section 5).

The experiment creates, for each targeted user, one campaign per interest
count in {5, 7, 9, 12, 18, 20, 22}, built as nested random subsets of 22
randomly selected interests of the target.  Every campaign is worldwide,
runs on the paper's 33-active-hour schedule with a ~10 EUR/day budget, and a
campaign *nanotargets* its user only when three validation conditions hold
simultaneously:

1. the dashboard reports exactly one user reached;
2. the web-server click log holds a click from the targeted user on the
   campaign's dedicated landing page;
3. the targeted user captured the ad and its "Why am I seeing this ad?"
   disclosure, and the disclosed targeting matches the configured audience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._rng import SeedLike, as_generator, derive_generator
from ..adsapi import AdsManagerAPI, TargetingSpec
from ..adsapi.reachestimate import pad_id_rows
from ..config import ExperimentConfig
from ..delivery import (
    AdCreative,
    Campaign,
    CampaignSchedule,
    CampaignStatus,
    ClickLog,
    DeliveryEngine,
    DeliveryOutcome,
)
from ..errors import CampaignRejectedError, ModelError
from ..fdvt.panel import FDVTPanel
from ..population.user import SyntheticUser


@dataclass(frozen=True, slots=True)
class SuccessValidation:
    """The three validation conditions of Section 5.1."""

    reached_exactly_one: bool
    target_clicked: bool
    disclosure_captured: bool

    @property
    def nanotargeted(self) -> bool:
        """True only when all three conditions hold."""
        return self.reached_exactly_one and self.target_clicked and self.disclosure_captured


@dataclass(frozen=True)
class CampaignRecord:
    """One row of Table 2: a campaign, its delivery outcome and its verdict."""

    target_label: str
    target_user_id: int
    n_interests: int
    campaign: Campaign
    outcome: DeliveryOutcome | None
    validation: SuccessValidation
    rejected: bool = False
    rejection_reason: str = ""

    @property
    def nanotargeting_success(self) -> bool:
        """True when the campaign exclusively reached its target."""
        return not self.rejected and self.validation.nanotargeted

    @property
    def group(self) -> str:
        """The paper's expected-outcome group for this interest count."""
        return "success_group" if self.n_interests >= 12 else "failure_group"

    def table_row(self) -> dict:
        """Serialisable Table 2 row."""
        metrics = self.outcome.metrics if self.outcome else None
        return {
            "target": self.target_label,
            "interests": self.n_interests,
            "seen": "Yes" if (metrics and metrics.seen) else "No",
            "reached": metrics.reached if metrics else 0,
            "impressions": metrics.impressions if metrics else 0,
            "tfi": metrics.format_tfi() if metrics else "-",
            "cost": metrics.format_cost() if metrics else "rejected",
            "clicks": metrics.clicks if metrics else 0,
            "unique_click_ips": metrics.unique_click_ips if metrics else 0,
            "nanotargeted": self.nanotargeting_success,
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate results of the nanotargeting experiment."""

    records: tuple[CampaignRecord, ...]
    account_suspended: bool

    def __post_init__(self) -> None:
        if not self.records:
            raise ModelError("an experiment report needs at least one campaign record")

    @property
    def n_campaigns(self) -> int:
        """Total number of campaigns in the experiment (21 in the paper)."""
        return len(self.records)

    @property
    def successful_records(self) -> tuple[CampaignRecord, ...]:
        """Campaigns that exclusively reached their target."""
        return tuple(r for r in self.records if r.nanotargeting_success)

    @property
    def success_count(self) -> int:
        """Number of successful nanotargeting campaigns (9/21 in the paper)."""
        return len(self.successful_records)

    def success_rate_by_interests(self) -> dict[int, float]:
        """Fraction of successful campaigns per interest count."""
        rates: dict[int, list[bool]] = {}
        for record in self.records:
            rates.setdefault(record.n_interests, []).append(record.nanotargeting_success)
        return {
            n: sum(outcomes) / len(outcomes) for n, outcomes in sorted(rates.items())
        }

    def records_for_target(self, target_label: str) -> tuple[CampaignRecord, ...]:
        """All campaign records for one targeted user."""
        return tuple(r for r in self.records if r.target_label == target_label)

    def total_cost_eur(self) -> float:
        """Total billed cost across all campaigns."""
        return round(
            sum(r.outcome.metrics.cost_eur for r in self.records if r.outcome), 2
        )

    def successful_cost_eur(self) -> float:
        """Billed cost of the successful nanotargeting campaigns only."""
        return round(
            sum(r.outcome.metrics.cost_eur for r in self.successful_records if r.outcome),
            2,
        )

    def table_rows(self) -> list[dict]:
        """Table 2 as a list of dictionaries (one per campaign)."""
        return [record.table_row() for record in self.records]


class NanotargetingExperiment:
    """Plans and runs the 21-campaign nanotargeting experiment."""

    def __init__(
        self,
        api: AdsManagerAPI,
        engine: DeliveryEngine,
        config: ExperimentConfig | None = None,
        *,
        click_log: ClickLog | None = None,
        seed: SeedLike = None,
    ) -> None:
        self._api = api
        self._engine = engine
        self._config = config or ExperimentConfig()
        self._click_log = click_log or ClickLog()
        rng = as_generator(self._config.seed if seed is None else seed)
        self._base_seed = int(rng.integers(0, 2**62))

    @property
    def config(self) -> ExperimentConfig:
        """The experiment configuration in use."""
        return self._config

    @property
    def api(self) -> AdsManagerAPI:
        """The Ads API this experiment launches its campaigns through.

        Countermeasure evaluations must install rules on *this* API's
        policy (see :func:`repro.countermeasures.run_protected_experiment`)
        — mutating a different instance's policy would not affect the run.
        """
        return self._api

    @property
    def click_log(self) -> ClickLog:
        """The shared web-server click log."""
        return self._click_log

    # -- planning -----------------------------------------------------------------

    def select_targets(self, panel: FDVTPanel) -> list[SyntheticUser]:
        """Pick the targeted users (the "authors") among the panel's eligible rows.

        A panellist is eligible when they carry at least as many interests
        as the largest campaign size.  Eligibility is read off the panel's
        interest counts, the draw picks ``n_targets`` of the eligible rows
        (in row order) on the ``target-selection`` stream, and only the
        chosen rows are decoded into :class:`SyntheticUser` objects.  A
        caller holding a list of users passes ``panel.subset(users)``.
        """
        needed = max(self._config.interest_counts)
        columns = panel.columns
        eligible = np.flatnonzero(columns.interest_counts() >= needed)
        if eligible.size < self._config.n_targets:
            raise ModelError(
                f"only {eligible.size} candidates have >= {needed} interests; "
                f"{self._config.n_targets} targets are required"
            )
        rng = derive_generator(self._base_seed, "target-selection")
        indices = rng.choice(eligible.size, size=self._config.n_targets, replace=False)
        return [columns.user_at(int(eligible[i])) for i in np.sort(indices)]

    def plan_interest_sets(self, target: SyntheticUser) -> dict[int, tuple[int, ...]]:
        """Nested random interest subsets for one target (paper Section 5.1)."""
        from .selection import nested_subsets

        max_count = max(self._config.interest_counts)
        rng = derive_generator(self._base_seed, "interest-sets", target.user_id)
        interests = list(target.interest_ids)
        rng.shuffle(interests)
        return nested_subsets(interests[:max_count], self._config.interest_counts)

    def plan_audiences_panel(
        self, interest_sets_per_target: Sequence[dict[int, tuple[int, ...]]]
    ) -> list[dict[int, float]]:
        """Raw audiences for *every* target's campaigns in one matrix sweep.

        All campaign interest sets of a target are prefixes of its largest
        one (:meth:`plan_interest_sets` builds nested subsets), so stacking
        each target's largest set into one padded id matrix resolves every
        campaign audience with a single backend ``prefix_audiences_panel``
        call — the kernel behind
        :meth:`~repro.adsapi.AdsManagerAPI.estimate_reach_matrix`, without
        the reporting floor since delivery consumes raw audiences.  Entry
        ``[t][size]`` is bit-identical to ``backend.audience_for`` on
        target ``t``'s ``size``-interest set.
        """
        plans = [dict(sets) for sets in interest_sets_per_target]
        if not plans:
            return []
        longest_rows = []
        for sets in plans:
            sizes = sorted(sets)
            if not sizes:
                longest_rows.append(())
                continue
            longest = sets[sizes[-1]]
            for size in sizes:
                if sets[size] != longest[:size]:
                    raise ModelError(
                        "interest sets must be nested prefixes of the largest set"
                    )
            longest_rows.append(longest)
        ids, counts = pad_id_rows(longest_rows)
        if ids.shape[1] == 0:
            return [{} for _ in plans]
        prefix = self._api.backend.prefix_audiences_panel(ids, counts, None)
        return [
            {size: float(prefix[row, size - 1]) for size in sorted(sets)}
            for row, sets in enumerate(plans)
        ]

    def build_campaign(
        self, target: SyntheticUser, target_label: str, interests: Sequence[int]
    ) -> Campaign:
        """Build one worldwide campaign for a (target, interest set) pair."""
        n_interests = len(interests)
        creative = AdCreative.for_experiment(target_label, n_interests)
        spec = TargetingSpec.for_interests(interests)
        return Campaign(
            campaign_id=f"nano-{target_label.lower().replace(' ', '-')}-{n_interests}",
            spec=spec,
            creative=creative,
            schedule=CampaignSchedule.paper_schedule(),
            daily_budget_eur=self._config.daily_budget_eur,
            initial_budget_eur=self._config.initial_budget_eur,
            metadata={"target_user_id": target.user_id, "n_interests": n_interests},
        )

    # -- execution -------------------------------------------------------------------

    def run(self, targets: Sequence[SyntheticUser] | None = None, *,
            candidates: FDVTPanel | None = None) -> ExperimentReport:
        """Run the full experiment and return the Table 2 report.

        Either pass explicit ``targets`` (e.g. three specific panel users) or
        a ``candidates`` panel from which :meth:`select_targets` picks them.
        """
        if targets is None:
            if candidates is None:
                raise ModelError("either targets or candidates must be provided")
            targets = self.select_targets(candidates)
        records: list[CampaignRecord] = []
        raw_audiences: list[float] = []
        # Plan every target's interest sets first so all campaign audiences
        # resolve through one bulk prefix sweep instead of one backend
        # round-trip per target.
        interest_sets_per_target = [self.plan_interest_sets(t) for t in targets]
        audiences_per_target = self.plan_audiences_panel(interest_sets_per_target)
        for index, target in enumerate(targets):
            label = f"User {index + 1}"
            interest_sets = interest_sets_per_target[index]
            audiences = audiences_per_target[index]
            for n_interests in self._config.interest_counts:
                campaign = self.build_campaign(target, label, interest_sets[n_interests])
                record = self._run_campaign(
                    campaign, target, label, audiences[n_interests]
                )
                records.append(record)
                if record.outcome is not None:
                    raw_audiences.append(record.outcome.raw_audience)
        review_time = CampaignSchedule.paper_schedule().windows[-1].end_hour
        suspended = self._api.policy.post_campaign_review(
            self._api.account, raw_audiences, review_time_hours=review_time
        )
        return ExperimentReport(records=tuple(records), account_suspended=suspended)

    # -- internals ----------------------------------------------------------------------

    def _run_campaign(
        self,
        campaign: Campaign,
        target: SyntheticUser,
        label: str,
        audience: float,
    ) -> CampaignRecord:
        try:
            # The planned audience came off the bulk prefix kernel and is
            # bit-identical to the scalar lookup authorize would otherwise
            # issue.
            self._api.authorize_campaign(campaign.spec, raw_audience=audience)
        except CampaignRejectedError as exc:
            return CampaignRecord(
                target_label=label,
                target_user_id=target.user_id,
                n_interests=campaign.interest_count,
                campaign=campaign.with_status(CampaignStatus.REJECTED),
                outcome=None,
                validation=SuccessValidation(False, False, False),
                rejected=True,
                rejection_reason=str(exc),
            )
        outcome = self._engine.run(
            campaign.with_status(CampaignStatus.ACTIVE),
            audience_size=audience,
            target_user_id=target.user_id,
            target_in_audience=True,
            click_log=self._click_log,
        )
        self._api.account.charge(outcome.metrics.cost_eur)
        validation = SuccessValidation(
            reached_exactly_one=outcome.metrics.exclusively_reached_one_user,
            target_clicked=self._click_log.has_target_click(campaign.campaign_id),
            disclosure_captured=(
                outcome.disclosure is not None
                and outcome.disclosure.matches_spec(campaign)
            ),
        )
        return CampaignRecord(
            target_label=label,
            target_user_id=target.user_id,
            n_interests=campaign.interest_count,
            campaign=campaign.with_status(CampaignStatus.STOPPED),
            outcome=outcome,
            validation=validation,
        )
