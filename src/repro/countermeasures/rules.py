"""The countermeasures proposed in Section 8.3.

The paper proposes two easily implementable platform-side rules:

* :class:`InterestCapRule` — reduce the maximum number of interests allowed
  in an audience definition from 25 to fewer than 9, which makes
  interest-based nanotargeting essentially impossible while affecting fewer
  than 1% of real campaigns;
* :class:`MinActiveAudienceRule` — refuse any campaign whose *active*
  audience (monthly active users actually matching the targeting, including
  the resolved Custom Audience) is below a limit, recommended at 1,000,
  which also closes the PII-based Custom Audience loopholes.

Both implement the :class:`repro.adsapi.CampaignRule` protocol and can be
attached to a platform policy: ``evaluate`` judges one campaign, and
``evaluate_matrix`` — its vectorised counterpart over a whole campaign
workload at once (one boolean rejection mask from per-campaign interest
counts and audiences) — is what lets
:func:`repro.countermeasures.evaluate_workload_impact` ride the bulk reach
kernels instead of looping rules per campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..adsapi.targeting import TargetingSpec
from ..errors import ConfigurationError


@dataclass(frozen=True)
class InterestCapRule:
    """Reject audiences combining more than ``max_interests`` interests."""

    max_interests: int = 9
    name: str = "interest_cap"

    def __post_init__(self) -> None:
        if self.max_interests < 1:
            raise ConfigurationError("max_interests must be >= 1")

    def evaluate(
        self, spec: TargetingSpec, raw_audience: float, active_audience: float
    ) -> str | None:
        """Reject when too many interests are combined."""
        if spec.interest_count > self.max_interests:
            return (
                f"audiences may combine at most {self.max_interests} interests, "
                f"got {spec.interest_count}"
            )
        return None

    def evaluate_matrix(
        self,
        interest_counts: Sequence[int] | np.ndarray,
        raw_audiences: Sequence[float] | np.ndarray,
        active_audiences: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`evaluate`: True where a campaign is rejected."""
        return np.asarray(interest_counts, dtype=np.int64) > self.max_interests


@dataclass(frozen=True)
class MinActiveAudienceRule:
    """Reject campaigns whose active audience is below ``min_active_users``."""

    min_active_users: int = 1_000
    name: str = "min_active_audience"

    def __post_init__(self) -> None:
        if self.min_active_users < 100:
            raise ConfigurationError(
                "the paper recommends a limit of at least 100 active users"
            )

    def evaluate(
        self, spec: TargetingSpec, raw_audience: float, active_audience: float
    ) -> str | None:
        """Reject when the active audience is too small to run the campaign."""
        if active_audience < self.min_active_users:
            return (
                f"the active audience ({active_audience:.0f} users) is below the "
                f"minimum of {self.min_active_users}"
            )
        return None

    def evaluate_matrix(
        self,
        interest_counts: Sequence[int] | np.ndarray,
        raw_audiences: Sequence[float] | np.ndarray,
        active_audiences: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`evaluate`: True where a campaign is rejected."""
        return np.asarray(active_audiences, dtype=float) < self.min_active_users


def recommended_rules() -> tuple[InterestCapRule, MinActiveAudienceRule]:
    """The two rules with the paper's recommended parameters."""
    return InterestCapRule(max_interests=9), MinActiveAudienceRule(min_active_users=1_000)
