"""The Facebook country user base used in the uniqueness analysis.

Appendix A (Table 3) of the paper lists the 50 countries with the largest
number of Facebook users at the time the dataset was collected (January
2017).  Together they account for roughly 1.5 billion monthly active users,
81% of Facebook's user base at the time, and they define the world
population ``W`` over which uniqueness is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import UnknownLocationError

#: Sentinel location meaning "no location filter" (available since ~2020).
WORLDWIDE = "WW"


@dataclass(frozen=True, slots=True)
class Country:
    """A country and its Facebook monthly-active-user count."""

    code: str
    name: str
    fb_users_millions: float

    @property
    def fb_users(self) -> int:
        """Number of Facebook users as an absolute count."""
        return int(round(self.fb_users_millions * 1_000_000))


#: Table 3 of the paper: the 50 largest Facebook countries in January 2017.
TOP_50_COUNTRIES: tuple[Country, ...] = (
    Country("US", "United States", 203),
    Country("IN", "India", 161),
    Country("BR", "Brazil", 114),
    Country("ID", "Indonesia", 91),
    Country("MX", "Mexico", 70),
    Country("PH", "Philippines", 56),
    Country("TR", "Turkey", 46),
    Country("TH", "Thailand", 42),
    Country("VN", "Vietnam", 42),
    Country("GB", "United Kingdom", 39),
    Country("EG", "Egypt", 33),
    Country("FR", "France", 33),
    Country("DE", "Germany", 30),
    Country("IT", "Italy", 30),
    Country("AR", "Argentina", 29),
    Country("PK", "Pakistan", 28),
    Country("CO", "Colombia", 26),
    Country("JP", "Japan", 26),
    Country("BD", "Bangladesh", 23),
    Country("ES", "Spain", 23),
    Country("CA", "Canada", 22),
    Country("MY", "Malaysia", 20),
    Country("PE", "Peru", 19),
    Country("KR", "South Korea", 18),
    Country("TW", "Taiwan", 18),
    Country("DZ", "Algeria", 16),
    Country("NG", "Nigeria", 16),
    Country("AU", "Australia", 15),
    Country("IQ", "Iraq", 14),
    Country("PL", "Poland", 14),
    Country("SA", "Saudi Arabia", 14),
    Country("ZA", "South Africa", 14),
    Country("MA", "Morocco", 13),
    Country("VE", "Venezuela", 13),
    Country("CL", "Chile", 12),
    Country("MM", "Myanmar", 12),
    Country("RU", "Russia", 12),
    Country("NL", "Netherlands", 10),
    Country("EC", "Ecuador", 9.80),
    Country("RO", "Romania", 8.60),
    Country("AE", "UA Emirates", 7.70),
    Country("NP", "Nepal", 6.70),
    Country("BE", "Belgium", 6.50),
    Country("SE", "Sweden", 6.20),
    Country("TN", "Tunisia", 6.10),
    Country("KE", "Kenya", 6),
    Country("PT", "Portugal", 5.90),
    Country("UA", "Ukraine", 5.90),
    Country("GT", "Guatemala", 5.50),
    Country("HU", "Hungary", 5.30),
)

_BY_CODE: dict[str, Country] = {country.code: country for country in TOP_50_COUNTRIES}

#: Each Table 3 country's user count, and their sum (the 50-country base),
#: computed once: ``location_fraction`` runs on every reach query that has
#: a location list.
_FB_USERS_BY_CODE: dict[str, int] = {
    country.code: country.fb_users for country in TOP_50_COUNTRIES
}
_TOP_50_USER_BASE = sum(_FB_USERS_BY_CODE.values())

#: Facebook monthly active users worldwide at the end of 2020 (Section 5).
FB_WORLDWIDE_MAU_2020 = 2_800_000_000


def country_codes() -> tuple[str, ...]:
    """Codes of the 50 countries, in Table 3 order."""
    return tuple(country.code for country in TOP_50_COUNTRIES)


def get_country(code: str) -> Country:
    """Return the country for ``code`` or raise :class:`UnknownLocationError`."""
    try:
        return _BY_CODE[code]
    except KeyError:
        raise UnknownLocationError(code) from None

def is_known_location(code: str) -> bool:
    """True if ``code`` is the worldwide sentinel or a Table 3 country."""
    return code == WORLDWIDE or code in _BY_CODE


def total_user_base(codes: Iterable[str] | None = None) -> int:
    """Total Facebook users across ``codes`` (default: all 50 countries).

    Passing the worldwide sentinel anywhere in ``codes`` returns the 2020
    worldwide MAU figure, matching the behaviour of the nanotargeting
    experiment, which targeted the whole platform.
    """
    if codes is None:
        return _TOP_50_USER_BASE
    codes = tuple(codes)
    if WORLDWIDE in codes:
        return FB_WORLDWIDE_MAU_2020
    try:
        return sum(_FB_USERS_BY_CODE[code] for code in codes)
    except KeyError as error:
        raise UnknownLocationError(error.args[0]) from None


def location_fraction(codes: Iterable[str] | None = None) -> float:
    """Fraction of the 50-country user base covered by ``codes``.

    The worldwide sentinel yields a fraction greater than 1 because the
    2020 worldwide MAU exceeds the January 2017 50-country base.
    """
    return total_user_base(codes) / _TOP_50_USER_BASE
