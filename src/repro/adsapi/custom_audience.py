"""Custom Audiences: PII-based targeting.

Section 2.1 and Section 7.2.2 of the paper describe Facebook's Custom
Audience tool: an advertiser uploads a list of PII items (emails, phone
numbers), Facebook matches them against registered users, and the campaign
reaches the matched users.  The platform requires at least 100 matched
users.  PII-based nanotargeting is out of the paper's scope, but the tool is
modelled here because the proposed countermeasure (a minimum *active*
audience size) must also cover this attack vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..config import PlatformConfig
from ..errors import CustomAudienceError


def hash_pii(record: str, *, salt: str = "repro-custom-audience") -> str:
    """Hash a PII record the way advertisers upload hashed identifiers."""
    normalised = record.strip().lower()
    return hashlib.sha256((salt + normalised).encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class CustomAudience:
    """A matched Custom Audience."""

    audience_id: str
    hashed_records: tuple[str, ...]
    matched_user_ids: tuple[int, ...]
    active_user_ids: tuple[int, ...]

    @property
    def matched_size(self) -> int:
        """Number of PII records matched to registered users."""
        return len(self.matched_user_ids)

    @property
    def active_size(self) -> int:
        """Number of matched users that are actually reachable (active)."""
        return len(self.active_user_ids)


@dataclass
class CustomAudienceManager:
    """Creates and stores Custom Audiences for one advertiser account."""

    platform: PlatformConfig = field(default_factory=PlatformConfig)
    _audiences: dict[str, CustomAudience] = field(default_factory=dict)

    def create(
        self,
        pii_records: Sequence[str],
        matched_user_ids: Iterable[int],
        *,
        active_user_ids: Iterable[int] | None = None,
        audience_id: str | None = None,
    ) -> CustomAudience:
        """Create a Custom Audience from PII records and their matches.

        ``matched_user_ids`` are the user ids the platform resolved from the
        PII list; ``active_user_ids`` (a subset) are those reachable by ads.
        The platform enforces the minimum *matched* size only — which is
        exactly the loophole the literature exploited (19 unreachable
        accounts plus one active target).
        """
        matched = tuple(sorted(set(int(uid) for uid in matched_user_ids)))
        if active_user_ids is None:
            active = matched
        else:
            active = tuple(sorted(set(int(uid) for uid in active_user_ids)))
            if not set(active).issubset(matched):
                raise CustomAudienceError("active users must be a subset of matched users")
        if len(matched) < self.platform.min_custom_audience_size:
            raise CustomAudienceError(
                f"a Custom Audience needs at least "
                f"{self.platform.min_custom_audience_size} matched users, "
                f"got {len(matched)}"
            )
        identifier = audience_id or f"ca_{len(self._audiences) + 1:06d}"
        if identifier in self._audiences:
            raise CustomAudienceError(f"duplicate custom audience id: {identifier}")
        audience = CustomAudience(
            audience_id=identifier,
            hashed_records=tuple(hash_pii(record) for record in pii_records),
            matched_user_ids=matched,
            active_user_ids=active,
        )
        self._audiences[identifier] = audience
        return audience

    def get(self, audience_id: str) -> CustomAudience:
        """Return a stored Custom Audience."""
        try:
            return self._audiences[audience_id]
        except KeyError:
            raise CustomAudienceError(f"unknown custom audience: {audience_id}") from None

    def __len__(self) -> int:
        return len(self._audiences)

    def __contains__(self, audience_id: object) -> bool:
        return audience_id in self._audiences
