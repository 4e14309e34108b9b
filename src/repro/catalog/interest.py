"""The :class:`Interest` value object.

An interest ("ad preference") is the non-PII data item at the heart of the
paper: Facebook assigns interests to users based on their activity, and
advertisers can target any combination of them.  In this reproduction an
interest carries its worldwide audience size, which plays the role of the
Potential Reach the paper retrieves from the Ads Manager API for a
single-interest audience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import CatalogError, ReproError


@dataclass(frozen=True, slots=True)
class Interest:
    """A single Facebook interest.

    Attributes
    ----------
    interest_id:
        Stable integer identifier, unique within a catalog.
    name:
        Human-readable interest name (e.g. ``"Italian food"``).
    topic:
        Top-level topic of the interest taxonomy the interest belongs to.
    audience_size:
        Worldwide number of monthly active users Facebook associates with
        the interest.
    """

    interest_id: int
    name: str
    topic: str
    audience_size: int

    def __post_init__(self) -> None:
        if self.interest_id < 0:
            raise CatalogError("interest_id must be non-negative")
        if self.audience_size < 0:
            raise CatalogError("audience_size must be non-negative")
        if not self.name:
            raise CatalogError("interest name must not be empty")
        if not self.topic:
            raise CatalogError("interest topic must not be empty")

    def is_rarer_than(self, other: "Interest") -> bool:
        """Return True if this interest has a strictly smaller audience."""
        return self.audience_size < other.audience_size

    def to_dict(self) -> dict:
        """Serialise the interest to a plain dictionary."""
        return {
            "interest_id": self.interest_id,
            "name": self.name,
            "topic": self.topic,
            "audience_size": self.audience_size,
        }

    @staticmethod
    def from_dict(data: dict) -> "Interest":
        """Rebuild an interest from :meth:`to_dict` output.

        Ids and audience sizes must be integral: ``7``, ``7.0`` and ``"7"``
        load as 7, while ``7.5`` and ``"abc"`` raise :class:`CatalogError`.
        """
        try:
            return Interest(
                interest_id=integral(data["interest_id"], "interest_id"),
                name=str(data["name"]),
                topic=str(data["topic"]),
                audience_size=integral(data["audience_size"], "audience_size"),
            )
        except KeyError as exc:
            raise CatalogError(f"missing interest field: {exc}") from exc


def integral(value: Any, field: str, error: type[ReproError] = CatalogError) -> int:
    """``int(value)``, or ``error`` when ``value`` is not a whole number.

    The one integral rule of every JSON loader: ``7``, ``7.0`` and ``"7"``
    pass, while ``7.5``, ``inf``, ``nan``, ``"abc"`` and ``None`` raise.
    """
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{field} must be an integer, got {value!r}") from None
    if not isinstance(value, str) and number != value:
        raise error(f"{field} must be an integer, got {value!r}")
    return number
