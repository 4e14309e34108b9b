"""Targeting specifications for the simulated Ads Manager.

A :class:`TargetingSpec` captures everything an advertiser can configure in
the audience-definition step of the Facebook Ads Campaign Manager that is
relevant to the paper: locations, interests (combined with AND, the
"narrow audience" semantics used throughout the uniqueness analysis),
optional demographic filters, and optionally a Custom Audience id for the
PII-based targeting discussed in Section 7.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import TargetingValidationError
from ..population.demographics import Gender
from ..reach.countries import WORLDWIDE


@dataclass(frozen=True, slots=True)
class TargetingSpec:
    """An audience definition."""

    locations: tuple[str, ...] = (WORLDWIDE,)
    interests: tuple[int, ...] = ()
    interest_combine: str = "and"
    genders: tuple[Gender, ...] = ()
    age_min: int | None = None
    age_max: int | None = None
    custom_audience_id: str | None = None

    def __post_init__(self) -> None:
        if not self.locations:
            raise TargetingValidationError("at least one location is required")
        if self.interest_combine not in ("and", "or"):
            raise TargetingValidationError(
                f"interest_combine must be 'and' or 'or', got {self.interest_combine!r}"
            )
        if len(set(self.interests)) != len(self.interests):
            raise TargetingValidationError("interests must not contain duplicates")
        if self.age_min is not None and self.age_min < 13:
            raise TargetingValidationError("age_min must be at least 13")
        if (
            self.age_min is not None
            and self.age_max is not None
            and self.age_max < self.age_min
        ):
            raise TargetingValidationError("age_max must be >= age_min")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def for_interests(
        interests: Sequence[int],
        *,
        locations: Sequence[str] | None = None,
        combine: str = "and",
    ) -> "TargetingSpec":
        """Build the interest-only worldwide spec used by the paper's queries."""
        location_tuple = tuple(locations) if locations else (WORLDWIDE,)
        return TargetingSpec(
            locations=location_tuple,
            interests=tuple(int(i) for i in interests),
            interest_combine=combine,
        )

    # -- derived views ----------------------------------------------------------

    @property
    def interest_count(self) -> int:
        """Number of interests in the audience definition."""
        return len(self.interests)

    @property
    def is_worldwide(self) -> bool:
        """True when no location restriction applies."""
        return WORLDWIDE in self.locations

    @property
    def uses_custom_audience(self) -> bool:
        """True when the spec targets a PII-based Custom Audience."""
        return self.custom_audience_id is not None

    def effective_locations(self) -> tuple[str, ...] | None:
        """Locations to pass to a reach backend (``None`` means worldwide)."""
        return None if self.is_worldwide else self.locations

    # -- transformations ----------------------------------------------------------

    def with_interests(self, interests: Sequence[int]) -> "TargetingSpec":
        """Return a copy with a different interest list."""
        return replace(self, interests=tuple(int(i) for i in interests))

    def with_locations(self, locations: Sequence[str]) -> "TargetingSpec":
        """Return a copy with a different location list."""
        return replace(self, locations=tuple(locations))

    def without_interest(self, interest_id: int) -> "TargetingSpec":
        """Return a copy with one interest removed."""
        return replace(
            self, interests=tuple(i for i in self.interests if i != interest_id)
        )

    # -- presentation ---------------------------------------------------------------

    def describe(self) -> dict:
        """A serialisable description (used by the ad-transparency disclosure)."""
        return {
            "locations": list(self.locations),
            "interests": list(self.interests),
            "interest_combine": self.interest_combine,
            "genders": [gender.value for gender in self.genders],
            "age_min": self.age_min,
            "age_max": self.age_max,
            "custom_audience_id": self.custom_audience_id,
        }
