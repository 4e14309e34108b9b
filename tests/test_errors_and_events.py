"""Tests for the exception hierarchy and small value objects."""

from __future__ import annotations

import pytest

from repro import errors
from repro.adsapi import AdsManagerAPI, TargetingSpec
from repro.config import PlatformConfig
from repro.delivery import ClickEvent, ImpressionEvent
from repro.simclock import SimClock


class TestErrorHierarchy:
    def test_every_library_error_derives_from_repro_error(self):
        error_types = [
            errors.ConfigurationError,
            errors.CatalogError,
            errors.UnknownInterestError,
            errors.PopulationError,
            errors.PanelError,
            errors.AdsApiError,
            errors.TargetingValidationError,
            errors.UnknownLocationError,
            errors.RateLimitExceededError,
            errors.AccountSuspendedError,
            errors.CampaignRejectedError,
            errors.CustomAudienceError,
            errors.DeliveryError,
            errors.ModelError,
            errors.InsufficientDataError,
        ]
        for error_type in error_types:
            assert issubclass(error_type, errors.ReproError)

    def test_api_errors_are_ads_api_errors(self):
        for error_type in (
            errors.TargetingValidationError,
            errors.RateLimitExceededError,
            errors.AccountSuspendedError,
            errors.CampaignRejectedError,
            errors.CustomAudienceError,
        ):
            assert issubclass(error_type, errors.AdsApiError)

    def test_unknown_interest_error_carries_the_id(self):
        error = errors.UnknownInterestError(42)
        assert error.interest_id == 42
        assert "42" in str(error)

    def test_rate_limit_error_carries_retry_hint(self):
        error = errors.RateLimitExceededError(1.5)
        assert error.retry_after_seconds == pytest.approx(1.5)

    def test_catching_repro_error_catches_everything(self, reach_model):
        api = AdsManagerAPI(
            reach_model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        with pytest.raises(errors.ReproError):
            # Worldwide location is invalid on the legacy platform.
            api.estimate_reach(TargetingSpec.for_interests([0]))


class TestDeliveryEvents:
    def test_impression_event_fields(self):
        event = ImpressionEvent(campaign_id="c1", user_id=3, hour=2.5, is_target=True)
        assert event.campaign_id == "c1"
        assert event.is_target

    def test_click_event_fields(self):
        click = ClickEvent(
            campaign_id="c1", user_id=3, hour=2.6, is_target=False, ip_address="203.0.113.9"
        )
        assert not click.is_target
        assert click.ip_address == "203.0.113.9"

    def test_events_are_hashable_value_objects(self):
        first = ImpressionEvent("c1", 1, 1.0, True)
        second = ImpressionEvent("c1", 1, 1.0, True)
        assert first == second
        assert len({first, second}) == 1


class TestApiCallStats:
    def test_stats_snapshot_is_immutable_and_counts(self, reach_model, catalog):
        api = AdsManagerAPI(
            reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
        )
        interest = next(iter(catalog))
        api.estimate_reach(TargetingSpec.for_interests([interest.interest_id]))
        stats = api.call_stats()
        assert stats.reach_estimates == 1
        assert stats.campaigns_authorized == 0
        with pytest.raises(AttributeError):
            stats.reach_estimates = 5
