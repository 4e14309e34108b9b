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
from .jitter import combination_seed, lognormal_jitter, prefix_seeds
from .model import ReachModelSpec, StatisticalReachModel

__all__ = [
    "Country",
    "FB_WORLDWIDE_MAU_2020",
    "ReachBackend",
    "ReachModelSpec",
    "StatisticalReachModel",
    "combination_seed",
    "lognormal_jitter",
    "prefix_seeds",
    "TOP_50_COUNTRIES",
    "WORLDWIDE",
    "country_codes",
    "get_country",
    "is_known_location",
    "location_fraction",
    "total_user_base",
]
