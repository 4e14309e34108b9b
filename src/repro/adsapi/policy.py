"""Platform policy: warnings, campaign authorisation and reactive review.

This module models how Facebook reacted to narrow audiences at the time of
the paper's experiment:

* when an audience is very narrow the dashboard shows a *warning* and
  recommends enlarging it, but a trivially modified audience passes
  (Section 8.2);
* there is no enforced minimum audience size for interest-based campaigns;
* days *after* suspicious campaigns finish, the account may be suspended —
  a reactive measure that does not prevent the attack.

Proactive countermeasures (Section 8.3) are modelled as pluggable
:class:`CampaignRule` objects; :mod:`repro.countermeasures` provides the two
rules the paper proposes.  With no rules installed the policy reproduces the
permissive 2020 behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import PlatformConfig
from .account import AdAccount
from .targeting import TargetingSpec


@dataclass(frozen=True, slots=True)
class PolicyWarning:
    """A non-blocking warning surfaced to the advertiser."""

    code: str
    message: str


@dataclass(frozen=True, slots=True)
class CampaignDecision:
    """Outcome of the campaign-authorisation review."""

    approved: bool
    warnings: tuple[PolicyWarning, ...] = ()
    rejection_reasons: tuple[str, ...] = ()

    @property
    def has_warnings(self) -> bool:
        """True when at least one warning was raised."""
        return bool(self.warnings)


@runtime_checkable
class CampaignRule(Protocol):
    """A proactive countermeasure evaluated before a campaign launches.

    :class:`PlatformPolicy` calls :meth:`evaluate` when it authorises one
    campaign; bulk evaluators
    (``repro.countermeasures.evaluate_workload_impact``) call
    :meth:`evaluate_matrix` over a whole campaign workload.  The two must
    agree campaign by campaign.
    """

    #: Short identifier used in rejection reasons.
    name: str

    def evaluate(
        self, spec: TargetingSpec, raw_audience: float, active_audience: float
    ) -> str | None:
        """Return a rejection reason, or ``None`` if the campaign may run."""
        ...  # pragma: no cover - protocol definition

    def evaluate_matrix(
        self,
        interest_counts: np.ndarray,
        raw_audiences: np.ndarray,
        active_audiences: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`evaluate`: True where a campaign is rejected."""
        ...  # pragma: no cover - protocol definition


@dataclass
class PlatformPolicy:
    """Evaluates audiences and campaigns against the platform rules."""

    platform: PlatformConfig = field(default_factory=PlatformConfig)
    rules: list[CampaignRule] = field(default_factory=list)
    #: Raw-audience threshold under which a finished campaign is considered
    #: suspicious by the (reactive) post-campaign review.
    suspicious_audience_threshold: float = 20.0

    # -- proactive path ---------------------------------------------------------

    def review_audience(
        self, spec: TargetingSpec, raw_audience: float
    ) -> tuple[PolicyWarning, ...]:
        """Warnings shown in the campaign manager while defining an audience."""
        warnings: list[PolicyWarning] = []
        if raw_audience < self.platform.narrow_audience_warning_threshold:
            warnings.append(
                PolicyWarning(
                    code="audience_too_narrow",
                    message=(
                        "Your audience is too narrow; we recommend enlarging it "
                        "before running this campaign."
                    ),
                )
            )
        if spec.interest_count > 9:
            warnings.append(
                PolicyWarning(
                    code="unusual_interest_count",
                    message=(
                        f"Audiences combining {spec.interest_count} interests are "
                        "extremely uncommon (<1% of campaigns)."
                    ),
                )
            )
        return tuple(warnings)

    def authorize_campaign(
        self,
        spec: TargetingSpec,
        raw_audience: float,
        *,
        active_audience: float | None = None,
    ) -> CampaignDecision:
        """Decide whether a campaign with ``spec`` may launch.

        Without installed rules every campaign is approved (possibly with
        warnings), reproducing the behaviour observed by the paper.
        """
        active = raw_audience if active_audience is None else active_audience
        reasons = []
        for rule in self.rules:
            reason = rule.evaluate(spec, raw_audience, active)
            if reason is not None:
                reasons.append(f"{rule.name}: {reason}")
        warnings = self.review_audience(spec, raw_audience)
        return CampaignDecision(
            approved=not reasons,
            warnings=warnings,
            rejection_reasons=tuple(reasons),
        )

    # -- reactive path -----------------------------------------------------------

    def post_campaign_review(
        self,
        account: AdAccount,
        campaign_raw_audiences: Sequence[float],
        *,
        review_time_hours: float,
    ) -> bool:
        """Reactive review run after campaigns finish.

        If any finished campaign had a raw audience below the suspicious
        threshold, the account is flagged and then suspended after the
        platform's review delay.  Returns True when the account ends up
        suspended.  This reproduces — and demonstrates the inefficacy of —
        the reactive measure described in Section 8.2.
        """
        suspicious = [
            audience
            for audience in campaign_raw_audiences
            if audience < self.suspicious_audience_threshold
        ]
        if not suspicious:
            return False
        account.flag(
            reason=(
                f"{len(suspicious)} campaign(s) delivered to audiences smaller than "
                f"{self.suspicious_audience_threshold:g} users"
            ),
            at_hours=review_time_hours,
        )
        suspension_time = review_time_hours + self.platform.suspension_review_delay_hours
        account.suspend(at_hours=suspension_time)
        return True
