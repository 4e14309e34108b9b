"""The synthetic Facebook user value object."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..catalog.interest import integral
from ..errors import PopulationError
from .demographics import AgeGroup, Gender, classify_age


@dataclass(frozen=True, slots=True)
class SyntheticUser:
    """A synthetic Facebook user.

    Attributes
    ----------
    user_id:
        Stable integer identifier within its container (population or panel).
    country:
        ISO-like country code of residence.
    gender:
        Self-declared gender, possibly undisclosed.
    age:
        Age in years, or ``None`` when not disclosed.
    interest_ids:
        Interests ("ad preferences") Facebook assigned to the user, in
        assignment order.
    """

    user_id: int
    country: str
    gender: Gender = Gender.UNDISCLOSED
    age: int | None = None
    interest_ids: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise PopulationError("user_id must be non-negative")
        if not self.country:
            raise PopulationError("country must not be empty")
        if self.age is not None and self.age < 13:
            raise PopulationError("Facebook users must be at least 13 years old")
        if len(set(self.interest_ids)) != len(self.interest_ids):
            raise PopulationError("interest_ids must not contain duplicates")

    @property
    def age_group(self) -> AgeGroup:
        """The Erikson age group the user belongs to."""
        return classify_age(self.age)

    @property
    def interest_count(self) -> int:
        """Number of interests assigned to the user."""
        return len(self.interest_ids)

    @property
    def interest_set(self) -> frozenset[int]:
        """The user's interests as a frozen set (order-insensitive)."""
        return frozenset(self.interest_ids)

    def has_interest(self, interest_id: int) -> bool:
        """True if the user holds ``interest_id``."""
        return interest_id in self.interest_set

    def matches_all(self, interest_ids: tuple[int, ...] | list[int]) -> bool:
        """True if the user holds every interest in ``interest_ids``."""
        owned = self.interest_set
        return all(interest_id in owned for interest_id in interest_ids)

    def matches_any(self, interest_ids: tuple[int, ...] | list[int]) -> bool:
        """True if the user holds at least one interest in ``interest_ids``."""
        owned = self.interest_set
        return any(interest_id in owned for interest_id in interest_ids)

    def without_interest(self, interest_id: int) -> "SyntheticUser":
        """Return a copy of the user with ``interest_id`` removed."""
        if interest_id not in self.interest_set:
            return self
        remaining = tuple(i for i in self.interest_ids if i != interest_id)
        return replace(self, interest_ids=remaining)

    def to_dict(self) -> dict:
        """Serialise the user to a plain dictionary."""
        return {
            "user_id": self.user_id,
            "country": self.country,
            "gender": self.gender.value,
            "age": self.age,
            "interest_ids": list(self.interest_ids),
        }

    @staticmethod
    def from_dict(data: dict) -> "SyntheticUser":
        """Rebuild a user from :meth:`to_dict` output.

        The user id, a disclosed age and every interest id must be
        integral (:func:`~repro.catalog.interest.integral`: ``7.0`` and
        ``"7"`` load, ``1.7`` and ``"abc"`` do not), the country a non-empty
        string and the gender one of :class:`Gender`'s values; a value that
        breaks these rules raises :class:`PopulationError`.
        """
        try:
            gender = Gender(data.get("gender", Gender.UNDISCLOSED.value))
        except ValueError:
            raise PopulationError(f"unknown gender: {data['gender']!r}") from None
        country = data["country"]
        if not isinstance(country, str):
            raise PopulationError(f"country must be a string, not {country!r}")
        age = data.get("age")
        return SyntheticUser(
            user_id=integral(data["user_id"], "user_id", PopulationError),
            country=country,
            gender=gender,
            age=None if age is None else integral(age, "age", PopulationError),
            interest_ids=tuple(
                integral(i, "interest id", PopulationError)
                for i in data.get("interest_ids", ())
            ),
        )
