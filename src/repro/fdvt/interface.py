"""The "Risks of my FB interests" view (Figure 7).

The new FDVT functionality shows the user a list of their interests sorted
from least to most popular, colour-coded by privacy risk, with a removal
button per interest.  This module models that view: entries, the sorted
report, and the state changes produced by removing interests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable

from ..errors import PanelError
from .risk import RiskLevel


class InterestStatus(enum.Enum):
    """Whether an interest is currently part of the user's ad preferences."""

    ACTIVE = "active"
    INACTIVE = "inactive"


@dataclass(frozen=True, slots=True)
class InterestRiskEntry:
    """One row of the risk interface."""

    interest_id: int
    name: str
    risk: RiskLevel
    audience_size: int
    status: InterestStatus = InterestStatus.ACTIVE
    reason: str = "Inferred from your activity on Facebook"

    def deactivated(self) -> "InterestRiskEntry":
        """Return a copy marked as removed from the user's preferences."""
        return replace(self, status=InterestStatus.INACTIVE)


@dataclass(frozen=True)
class RiskReport:
    """The full, sorted risk view for one user."""

    user_id: int
    entries: tuple[InterestRiskEntry, ...]

    def __post_init__(self) -> None:
        sizes = [entry.audience_size for entry in self.entries]
        if sizes != sorted(sizes):
            raise PanelError("risk report entries must be sorted by audience size")

    @property
    def active_entries(self) -> tuple[InterestRiskEntry, ...]:
        """Entries still present in the user's ad preferences."""
        return tuple(e for e in self.entries if e.status is InterestStatus.ACTIVE)

    def entries_at_risk(self, levels: Iterable[RiskLevel] = (RiskLevel.RED,)) -> tuple[
        InterestRiskEntry, ...
    ]:
        """Active entries whose risk level is one of ``levels``."""
        wanted = set(levels)
        return tuple(e for e in self.active_entries if e.risk in wanted)

    def risk_counts(self) -> dict[RiskLevel, int]:
        """Number of active entries per risk level."""
        # ``list.count`` matches members by identity first, so no entry's
        # level is hashed (an enum's ``__hash__`` runs in Python).
        risks = [entry.risk for entry in self.active_entries]
        return {level: risks.count(level) for level in RiskLevel}

    def remove(self, interest_id: int) -> "RiskReport":
        """Return a new report with ``interest_id`` marked inactive."""
        found = False
        entries = []
        for entry in self.entries:
            if entry.interest_id == interest_id and entry.status is InterestStatus.ACTIVE:
                entries.append(entry.deactivated())
                found = True
            else:
                entries.append(entry)
        if not found:
            raise PanelError(
                f"interest {interest_id} is not an active entry of this report"
            )
        return RiskReport(user_id=self.user_id, entries=tuple(entries))

    def remove_all_at_risk(
        self, levels: Iterable[RiskLevel] = (RiskLevel.RED,)
    ) -> "RiskReport":
        """Return a new report with every entry at the given levels removed."""
        report = self
        for entry in self.entries_at_risk(levels):
            report = report.remove(entry.interest_id)
        return report

    def active_interest_ids(self) -> tuple[int, ...]:
        """Ids of the interests still active, least popular first."""
        return tuple(e.interest_id for e in self.active_entries)
