"""Popularity model for interest audience sizes.

Figure 2 of the paper shows the CDF of the audience size of the 98,982
unique interests observed in the FDVT panel.  The distribution is very
heavy-tailed: the 25th/50th/75th percentiles are 113,193 / 418,530 /
1,719,925, the smallest audiences are in the tens of users (clamped at the
20-user reporting floor) and the largest reach hundreds of millions.

We model the bulk of the distribution as a log-normal calibrated to the
published quartiles, mixed with a small "rare tail" component that produces
the very unpopular interests the least-popular selection strategy relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import SeedLike, as_generator
from ..config import CatalogConfig
from ..errors import ConfigurationError


@dataclass(frozen=True)
class PopularityModel:
    """Samples worldwide audience sizes for synthetic interests."""

    median_audience: float = 418_530.0
    log10_sigma: float = 0.878
    min_audience: int = 20
    max_audience: int = 525_000_000
    rare_tail_fraction: float = 0.04
    rare_tail_log10_mean: float = 2.6
    rare_tail_log10_sigma: float = 0.55

    def __post_init__(self) -> None:
        if self.median_audience <= 0:
            raise ConfigurationError("median_audience must be positive")
        if self.log10_sigma <= 0:
            raise ConfigurationError("log10_sigma must be positive")
        if self.min_audience < 1:
            raise ConfigurationError("min_audience must be >= 1")
        if self.max_audience <= self.min_audience:
            raise ConfigurationError("max_audience must exceed min_audience")
        if not 0.0 <= self.rare_tail_fraction < 1.0:
            raise ConfigurationError("rare_tail_fraction must be in [0, 1)")

    @staticmethod
    def from_config(config: CatalogConfig, world_population: float) -> "PopularityModel":
        """Build a popularity model from a :class:`CatalogConfig`."""
        return PopularityModel(
            median_audience=config.median_audience,
            log10_sigma=config.log10_sigma,
            min_audience=config.min_audience,
            max_audience=int(world_population * config.max_audience_fraction),
            rare_tail_fraction=config.rare_tail_fraction,
            rare_tail_log10_mean=config.rare_tail_log10_mean,
            rare_tail_log10_sigma=config.rare_tail_log10_sigma,
        )

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        """Sample ``n`` audience sizes as an integer array.

        The result mixes the log-normal bulk with the rare tail and clamps
        every value into ``[min_audience, max_audience]``.
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        rng = as_generator(seed)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        log10_bulk = rng.normal(np.log10(self.median_audience), self.log10_sigma, size=n)
        is_rare = rng.random(n) < self.rare_tail_fraction
        log10_rare = rng.normal(
            self.rare_tail_log10_mean, self.rare_tail_log10_sigma, size=n
        )
        log10_sizes = np.where(is_rare, log10_rare, log10_bulk)
        sizes = np.power(10.0, log10_sizes)
        sizes = np.clip(sizes, self.min_audience, self.max_audience)
        return np.rint(sizes).astype(np.int64)

    def quantile(self, q: float) -> float:
        """Approximate quantile of the bulk component (ignores the rare tail).

        Useful for calibration checks against the Figure 2 percentiles.
        """
        if not 0.0 < q < 1.0:
            raise ConfigurationError("q must lie in (0, 1)")
        from statistics import NormalDist

        z = NormalDist().inv_cdf(q)
        value = 10 ** (np.log10(self.median_audience) + z * self.log10_sigma)
        return float(np.clip(value, self.min_audience, self.max_audience))
