"""Demographic attributes of synthetic Facebook users.

The paper breaks its panel down by gender, by the Erikson age groups
(adolescence 13-19, early adulthood 20-39, adulthood 40-64, maturity 65+)
and by country of residence, and Appendix C repeats the uniqueness analysis
per demographic group.  The FDVT panel generator, the columnar store and
the analyses share the enums, the code tables and the age sampler here.
"""

from __future__ import annotations

import enum

from .._rng import SeedLike, as_generator
from ..errors import PopulationError


class Gender(enum.Enum):
    """Self-declared gender of a user (optional at FDVT registration)."""

    MALE = "male"
    FEMALE = "female"
    UNDISCLOSED = "undisclosed"


class AgeGroup(enum.Enum):
    """Erikson life-cycle age groups used by the paper (Section 3)."""

    ADOLESCENCE = "adolescence"
    EARLY_ADULTHOOD = "early_adulthood"
    ADULTHOOD = "adulthood"
    MATURITY = "maturity"
    UNDISCLOSED = "undisclosed"


#: Age bounds (inclusive) of each disclosed age group.
AGE_GROUP_BOUNDS: dict[AgeGroup, tuple[int, int]] = {
    AgeGroup.ADOLESCENCE: (13, 19),
    AgeGroup.EARLY_ADULTHOOD: (20, 39),
    AgeGroup.ADULTHOOD: (40, 64),
    AgeGroup.MATURITY: (65, 90),
}

#: Fixed code tables of the columnar panel store
#: (:mod:`repro.population.columnar`): ``gender_index`` / ``age_group_index``
#: columns hold positions into these tuples.  They live here, next to the
#: enums, so builders can emit codes without importing the store.
GENDER_TABLE: tuple[Gender, ...] = (
    Gender.MALE,
    Gender.FEMALE,
    Gender.UNDISCLOSED,
)

AGE_GROUP_TABLE: tuple[AgeGroup, ...] = (
    AgeGroup.ADOLESCENCE,
    AgeGroup.EARLY_ADULTHOOD,
    AgeGroup.ADULTHOOD,
    AgeGroup.MATURITY,
    AgeGroup.UNDISCLOSED,
)

GENDER_CODES: dict[Gender, int] = {g: i for i, g in enumerate(GENDER_TABLE)}
AGE_GROUP_CODES: dict[AgeGroup, int] = {g: i for i, g in enumerate(AGE_GROUP_TABLE)}


def classify_age(age: int | None) -> AgeGroup:
    """Map an age in years to its :class:`AgeGroup` (None -> UNDISCLOSED)."""
    if age is None:
        return AgeGroup.UNDISCLOSED
    if age < 13:
        raise PopulationError("Facebook users must be at least 13 years old")
    for group, (low, high) in AGE_GROUP_BOUNDS.items():
        if low <= age <= high:
            return group
    return AgeGroup.MATURITY


def sample_age(group: AgeGroup, seed: SeedLike = None) -> int | None:
    """Sample an age (in years) uniformly within ``group``'s bounds."""
    if group is AgeGroup.UNDISCLOSED:
        return None
    rng = as_generator(seed)
    low, high = AGE_GROUP_BOUNDS[group]
    return int(rng.integers(low, high + 1))
