"""Tests for the country user-base data (Appendix A, Table 3)."""

from __future__ import annotations

import pytest

from repro.errors import UnknownLocationError
from repro.reach import (
    FB_WORLDWIDE_MAU_2020,
    TOP_50_COUNTRIES,
    WORLDWIDE,
    country_codes,
    get_country,
    is_known_location,
    location_fraction,
    total_user_base,
)


class TestTable3Data:
    def test_exactly_50_countries(self):
        assert len(TOP_50_COUNTRIES) == 50

    def test_codes_are_unique(self):
        codes = country_codes()
        assert len(set(codes)) == 50

    def test_total_user_base_is_about_1_5_billion(self):
        total = total_user_base()
        assert 1.4e9 < total < 1.6e9

    def test_us_is_largest(self):
        assert TOP_50_COUNTRIES[0].code == "US"
        assert TOP_50_COUNTRIES[0].fb_users_millions == 203

    def test_hungary_is_smallest_listed(self):
        assert TOP_50_COUNTRIES[-1].code == "HU"
        assert TOP_50_COUNTRIES[-1].fb_users_millions == pytest.approx(5.30)

    def test_counts_are_descending(self):
        values = [country.fb_users_millions for country in TOP_50_COUNTRIES]
        assert values == sorted(values, reverse=True)


class TestLookups:
    def test_get_country(self):
        spain = get_country("ES")
        assert spain.name == "Spain"
        assert spain.fb_users == 23_000_000

    def test_get_unknown_country_raises(self):
        with pytest.raises(UnknownLocationError):
            get_country("XX")

    def test_is_known_location(self):
        assert is_known_location("FR")
        assert is_known_location(WORLDWIDE)
        assert not is_known_location("XX")


class TestUserBaseArithmetic:
    def test_subset_user_base(self):
        assert total_user_base(["ES", "FR"]) == 23_000_000 + 33_000_000

    def test_worldwide_user_base_is_2_8_billion(self):
        assert total_user_base([WORLDWIDE]) == FB_WORLDWIDE_MAU_2020

    def test_location_fraction_of_everything_is_one(self):
        assert location_fraction(country_codes()) == pytest.approx(1.0)

    def test_location_fraction_is_monotone_in_subsets(self):
        assert location_fraction(["ES"]) < location_fraction(["ES", "FR"])

    def test_unknown_location_raises(self):
        with pytest.raises(UnknownLocationError):
            total_user_base(["ES", "XX"])
        with pytest.raises(UnknownLocationError) as raised:
            location_fraction(["ES", "XX", "YY"])
        assert raised.value.code == "XX"

    def test_location_fraction_matches_per_country_sums(self):
        base = sum(country.fb_users for country in TOP_50_COUNTRIES)
        assert location_fraction() == location_fraction(None) == 1.0
        for codes in (["ES"], ["US", "IN", "HU"], list(country_codes())):
            expected = sum(get_country(code).fb_users for code in codes) / base
            assert location_fraction(codes) == expected
        assert location_fraction([WORLDWIDE]) == FB_WORLDWIDE_MAU_2020 / base
