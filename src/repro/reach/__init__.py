"""World-scale audience (reach) modelling."""

from .backend import ReachBackend
from .countries import (
    FB_WORLDWIDE_MAU_2020,
    TOP_50_COUNTRIES,
    WORLDWIDE,
    Country,
    country_codes,
    get_country,
    is_known_location,
    location_fraction,
    total_user_base,
)
from .jitter import lognormal_jitter
from .model import ReachModelSpec, StatisticalReachModel

__all__ = [
    "Country",
    "FB_WORLDWIDE_MAU_2020",
    "ReachBackend",
    "ReachModelSpec",
    "StatisticalReachModel",
    "lognormal_jitter",
    "TOP_50_COUNTRIES",
    "WORLDWIDE",
    "country_codes",
    "get_country",
    "is_known_location",
    "location_fraction",
    "total_user_base",
]
