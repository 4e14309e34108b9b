"""Synthetic benign-advertiser campaign workload.

The countermeasure argument of Section 8.3 rests on how real advertisers
configure audiences: according to the DSP operators consulted by the paper,
fewer than 1% of campaigns combine more than 9 interests.  This generator
produces a configurable workload of benign campaign specs with that shape so
the revenue impact of the interest-cap rule can be quantified.

Every campaign draws its interests from a pool of the catalog's most
popular interests.  The pools of one :meth:`AdvertiserWorkloadGenerator.generate`
call are prefixes of a single ``most_popular`` result, since a smaller
``most_popular`` call returns a prefix of a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import SeedLike, as_generator
from ..adsapi.targeting import TargetingSpec
from ..catalog import InterestCatalog
from ..errors import ConfigurationError
from ..reach.countries import country_codes


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the benign advertiser workload."""

    #: Probability mass over the number of interests per campaign, indexed
    #: from 1 interest upwards.  The default gives ~0.7% of campaigns more
    #: than 9 interests, matching the figure quoted by the paper.
    interest_count_weights: tuple[float, ...] = (
        0.36, 0.24, 0.15, 0.09, 0.055, 0.035, 0.022, 0.014, 0.009,
        0.004, 0.002, 0.0007, 0.0003,
    )
    max_locations: int = 5
    worldwide_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not self.interest_count_weights:
            raise ConfigurationError("interest_count_weights must not be empty")
        if any(weight < 0 for weight in self.interest_count_weights):
            raise ConfigurationError("interest_count_weights must be non-negative")
        if sum(self.interest_count_weights) <= 0:
            raise ConfigurationError("interest_count_weights must have positive mass")
        if self.max_locations < 1:
            raise ConfigurationError("max_locations must be >= 1")
        if not 0.0 <= self.worldwide_fraction <= 1.0:
            raise ConfigurationError("worldwide_fraction must lie in [0, 1]")

    def fraction_above(self, n_interests: int) -> float:
        """Fraction of campaigns configured with more than ``n_interests``."""
        weights = np.asarray(self.interest_count_weights, dtype=float)
        weights = weights / weights.sum()
        return float(weights[n_interests:].sum())


class AdvertiserWorkloadGenerator:
    """Generates benign campaign targeting specs."""

    def __init__(
        self,
        catalog: InterestCatalog,
        config: WorkloadConfig | None = None,
    ) -> None:
        self._catalog = catalog
        self._config = config or WorkloadConfig()

    @property
    def config(self) -> WorkloadConfig:
        """The workload configuration in use."""
        return self._config

    def generate(self, n_campaigns: int, seed: SeedLike = None) -> list[TargetingSpec]:
        """Generate ``n_campaigns`` benign campaign specs."""
        if n_campaigns < 0:
            raise ConfigurationError("n_campaigns must be non-negative")
        rng = as_generator(seed)
        weights = np.asarray(self._config.interest_count_weights, dtype=float)
        weights = weights / weights.sum()
        interest_counts = rng.choice(
            np.arange(1, weights.size + 1), size=n_campaigns, p=weights
        )
        codes = country_codes()
        # Benign advertisers target broadly popular interests: a campaign
        # picks from the most popular max(200, 20 x its count) interests,
        # a prefix of one most_popular call sized for the largest pool.
        pool_sizes = np.minimum(
            len(self._catalog), np.maximum(200, 20 * interest_counts)
        )
        pool_ids = []
        if n_campaigns:
            popular = self._catalog.most_popular(int(pool_sizes.max()))
            pool_ids = [interest.interest_id for interest in popular]
        specs = []
        for count, pool_size in zip(interest_counts, pool_sizes):
            chosen = rng.choice(int(pool_size), size=int(count), replace=False)
            interests = [pool_ids[int(i)] for i in chosen]
            if rng.random() < self._config.worldwide_fraction:
                locations = None
            else:
                n_locations = int(rng.integers(1, self._config.max_locations + 1))
                location_idx = rng.choice(len(codes), size=n_locations, replace=False)
                locations = [codes[int(i)] for i in location_idx]
            specs.append(TargetingSpec.for_interests(interests, locations=locations))
        return specs
