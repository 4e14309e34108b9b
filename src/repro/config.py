"""Configuration objects for the reproduction pipeline.

Each stage of the pipeline is driven by a small frozen dataclass.  The
defaults reproduce the conditions of the paper: a world user base of roughly
1.5 billion users spread over the 50 largest Facebook countries, a minimum
reported audience ("Potential Reach" floor) of 20 users as in the January
2017 dataset, at most 25 interests and 50 locations per audience, and a
2,390-user FDVT panel.

Fingerprint contract
--------------------
Every config exposes :meth:`FingerprintedConfig.to_dict` (its dataclass
fields as plain data) and :meth:`FingerprintedConfig.fingerprint` — the
SHA-256 digest of the canonical sorted-key JSON encoding of
``{"kind": <class name>, "payload": to_dict()}`` (see
:func:`repro.cache.stable_fingerprint`).  The digest is *content
addressed*: stable across dict insertion order, process restarts and
``PYTHONHASHSEED``, seed-aware (seeds are ordinary fields), and two
configs fingerprint equal exactly when they compare equal.  The build
cache (:mod:`repro.cache`) and the staged pipeline
(:mod:`repro.pipeline`) key every expensive artifact on these digests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from .cache import stable_fingerprint
from .errors import ConfigurationError

#: Potential Reach floor applied by Facebook when the paper's dataset was
#: collected (January 2017).
LEGACY_REACH_FLOOR = 20

#: Potential Reach floor applied by Facebook since 2018.
MODERN_REACH_FLOOR = 1_000

#: Maximum number of interests that can be combined in a single audience.
MAX_INTERESTS_PER_AUDIENCE = 25

#: Maximum number of locations that can be combined in a single audience.
MAX_LOCATIONS_PER_QUERY = 50

#: Minimum number of matched users required in a Custom Audience.
MIN_CUSTOM_AUDIENCE_SIZE = 100


class FingerprintedConfig:
    """Mixin giving every config dataclass the stable fingerprint contract."""

    def to_dict(self) -> dict:
        """The config's fields (recursively) as JSON-serialisable plain data."""
        return asdict(self)  # type: ignore[call-overload]

    def fingerprint(self) -> str:
        """Stable SHA-256 content fingerprint (see the module docstring).

        Equal configs — and only equal configs — share a fingerprint; any
        field change, including a seed change, produces a new digest.
        """
        return stable_fingerprint(type(self).__name__, self.to_dict())


@dataclass(frozen=True)
class CatalogConfig(FingerprintedConfig):
    """Configuration of the synthetic interest catalog.

    The paper observes 98,982 unique interests across its panel whose
    audience sizes have quartiles 113,193 / 418,530 / 1,719,925 (Figure 2).
    ``median_audience`` and ``log10_sigma`` parameterise the log-normal
    popularity model calibrated to those quartiles.
    """

    n_interests: int = 99_000
    n_topics: int = 24
    median_audience: float = 418_530.0
    log10_sigma: float = 0.878
    min_audience: int = 20
    max_audience_fraction: float = 0.35
    rare_tail_fraction: float = 0.07
    rare_tail_log10_mean: float = 2.0
    rare_tail_log10_sigma: float = 0.7
    seed: int = 1701

    def __post_init__(self) -> None:
        if self.n_interests <= 0:
            raise ConfigurationError("n_interests must be positive")
        if self.n_topics <= 0:
            raise ConfigurationError("n_topics must be positive")
        if self.median_audience <= self.min_audience:
            raise ConfigurationError("median_audience must exceed min_audience")
        if not 0.0 <= self.rare_tail_fraction < 1.0:
            raise ConfigurationError("rare_tail_fraction must be in [0, 1)")
        if not 0.0 < self.max_audience_fraction <= 1.0:
            raise ConfigurationError("max_audience_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ReachModelConfig(FingerprintedConfig):
    """Configuration of the analytic world-scale reach model.

    ``correlation_alpha`` is the conditional-retention exponent: given that a
    user holds the rarest interest of a combination, the probability that
    they also hold another interest with marginal probability ``p`` is
    modelled as ``p ** correlation_alpha`` (instead of ``p`` under
    independence).  The default is calibrated so that the random-selection
    uniqueness cutpoints land in the ranges reported by Table 1.
    """

    correlation_alpha: float = 0.185
    jitter_log10_sigma: float = 0.06
    topic_affinity_boost: float = 0.35
    seed: int = 9218

    def __post_init__(self) -> None:
        if not 0.0 < self.correlation_alpha <= 1.0:
            raise ConfigurationError("correlation_alpha must be in (0, 1]")
        if self.jitter_log10_sigma < 0.0:
            raise ConfigurationError("jitter_log10_sigma must be non-negative")
        if self.topic_affinity_boost < 0.0:
            raise ConfigurationError("topic_affinity_boost must be non-negative")


@dataclass(frozen=True)
class PlatformConfig(FingerprintedConfig):
    """Limits and behaviour of the simulated Facebook advertising platform."""

    reach_floor: int = LEGACY_REACH_FLOOR
    max_interests_per_audience: int = MAX_INTERESTS_PER_AUDIENCE
    max_locations_per_query: int = MAX_LOCATIONS_PER_QUERY
    min_custom_audience_size: int = MIN_CUSTOM_AUDIENCE_SIZE
    allow_worldwide_location: bool = True
    narrow_audience_warning_threshold: int = 1_000
    rate_limit_requests_per_minute: int = 600
    rate_limit_burst: int = 60
    suspension_review_delay_hours: float = 96.0

    def __post_init__(self) -> None:
        if self.reach_floor < 1:
            raise ConfigurationError("reach_floor must be at least 1")
        if self.max_interests_per_audience < 1:
            raise ConfigurationError("max_interests_per_audience must be >= 1")
        if self.max_locations_per_query < 1:
            raise ConfigurationError("max_locations_per_query must be >= 1")
        if self.rate_limit_requests_per_minute <= 0:
            raise ConfigurationError("rate_limit_requests_per_minute must be > 0")
        if self.rate_limit_burst <= 0:
            raise ConfigurationError("rate_limit_burst must be > 0")

    @staticmethod
    def legacy_2017() -> "PlatformConfig":
        """Platform limits at the time the paper's dataset was collected."""
        return PlatformConfig(reach_floor=LEGACY_REACH_FLOOR, allow_worldwide_location=False)

    @staticmethod
    def modern_2020() -> "PlatformConfig":
        """Platform limits at the time the nanotargeting experiment ran."""
        return PlatformConfig(reach_floor=MODERN_REACH_FLOOR, allow_worldwide_location=True)


@dataclass(frozen=True)
class PanelConfig(FingerprintedConfig):
    """Configuration of the synthetic FDVT panel (Section 3 of the paper)."""

    n_users: int = 2_390
    n_men: int = 1_949
    n_women: int = 347
    n_gender_undisclosed: int = 94
    n_adolescents: int = 117
    n_early_adults: int = 1_374
    n_adults: int = 578
    n_matures: int = 19
    n_age_undisclosed: int = 302
    median_interests_per_user: float = 426.0
    interests_log10_sigma: float = 0.62
    min_interests_per_user: int = 1
    max_interests_per_user: int = 8_950
    popularity_bias_jitter: float = 0.28
    seed: int = 2390

    def __post_init__(self) -> None:
        if self.n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        if self.n_men + self.n_women + self.n_gender_undisclosed != self.n_users:
            raise ConfigurationError("gender counts must sum to n_users")
        age_total = (
            self.n_adolescents
            + self.n_early_adults
            + self.n_adults
            + self.n_matures
            + self.n_age_undisclosed
        )
        if age_total != self.n_users:
            raise ConfigurationError("age-group counts must sum to n_users")
        if self.min_interests_per_user < 1:
            raise ConfigurationError("min_interests_per_user must be >= 1")
        if self.max_interests_per_user < self.min_interests_per_user:
            raise ConfigurationError("max_interests_per_user must be >= min")
        if self.popularity_bias_jitter < 0:
            raise ConfigurationError("popularity_bias_jitter must be non-negative")


@dataclass(frozen=True)
class UniquenessConfig(FingerprintedConfig):
    """Configuration of the uniqueness analysis (Section 4)."""

    max_interests: int = 25
    probabilities: tuple[float, ...] = (0.5, 0.8, 0.9, 0.95)
    n_bootstrap: int = 10_000
    confidence_level: float = 0.95
    seed: int = 4242

    def __post_init__(self) -> None:
        if self.max_interests < 2:
            raise ConfigurationError("max_interests must be >= 2")
        for p in self.probabilities:
            if not 0.0 < p < 1.0:
                raise ConfigurationError("probabilities must lie in (0, 1)")
        if self.n_bootstrap < 1:
            raise ConfigurationError("n_bootstrap must be >= 1")
        if not 0.0 < self.confidence_level < 1.0:
            raise ConfigurationError("confidence_level must lie in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig(FingerprintedConfig):
    """Configuration of the nanotargeting experiment (Section 5)."""

    n_targets: int = 3
    interest_counts: tuple[int, ...] = (5, 7, 9, 12, 18, 20, 22)
    daily_budget_eur: float = 10.0
    initial_budget_eur: float = 70.0
    active_hours: float = 33.0
    cpm_eur: float = 3.5
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.n_targets <= 0:
            raise ConfigurationError("n_targets must be positive")
        if not self.interest_counts:
            raise ConfigurationError("interest_counts must not be empty")
        if any(count < 1 for count in self.interest_counts):
            raise ConfigurationError("interest_counts must be positive")
        if self.daily_budget_eur <= 0 or self.initial_budget_eur <= 0:
            raise ConfigurationError("budgets must be positive")
        if self.active_hours <= 0:
            raise ConfigurationError("active_hours must be positive")
        if self.cpm_eur <= 0:
            raise ConfigurationError("cpm_eur must be positive")

    @property
    def success_group(self) -> tuple[int, ...]:
        """Interest counts the paper expects to succeed (12, 18, 20, 22)."""
        return tuple(count for count in self.interest_counts if count >= 12)

    @property
    def failure_group(self) -> tuple[int, ...]:
        """Interest counts the paper expects to fail (5, 7, 9)."""
        return tuple(count for count in self.interest_counts if count < 12)


@dataclass(frozen=True)
class ReproductionConfig(FingerprintedConfig):
    """Top-level configuration bundling every stage of the reproduction."""

    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    reach: ReachModelConfig = field(default_factory=ReachModelConfig)
    panel: PanelConfig = field(default_factory=PanelConfig)
    uniqueness: UniquenessConfig = field(default_factory=UniquenessConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def with_panel_users(self, n_users: int) -> "ReproductionConfig":
        """Return a copy whose panel holds ``n_users`` users.

        Gender and age quotas are rescaled proportionally (rounded, with
        the undisclosed groups absorbing the remainder), keeping the
        paper's panel composition intact at any size.  This is the panel
        population knob of declarative scenario specs
        (:class:`repro.scenarios.ScenarioSpec`).
        """
        if n_users < 1:
            raise ConfigurationError("n_users must be >= 1")
        panel = _rescale_panel(self.panel, n_users)
        return replace(self, panel=panel)

    def scaled_down(self, factor: int = 20) -> "ReproductionConfig":
        """Return a copy sized for quick tests and examples.

        ``factor`` divides the catalog size, the panel size and the bootstrap
        count, keeping every ratio used by the paper intact.  Gender and age
        quotas of the panel are rescaled proportionally.
        """
        if factor < 1:
            raise ConfigurationError("factor must be >= 1")
        panel = _rescale_panel(self.panel, max(20, self.panel.n_users // factor))
        catalog = replace(
            self.catalog, n_interests=max(500, self.catalog.n_interests // factor)
        )
        uniqueness = replace(
            self.uniqueness, n_bootstrap=max(50, self.uniqueness.n_bootstrap // factor)
        )
        return replace(self, panel=panel, catalog=catalog, uniqueness=uniqueness)


def _rescale_panel(panel: PanelConfig, n_users: int) -> PanelConfig:
    """A copy of ``panel`` with ``n_users`` users and proportional quotas."""
    n_men = round(n_users * panel.n_men / panel.n_users)
    n_women = round(n_users * panel.n_women / panel.n_users)
    n_und = n_users - n_men - n_women
    n_adol = round(n_users * panel.n_adolescents / panel.n_users)
    n_early = round(n_users * panel.n_early_adults / panel.n_users)
    n_adult = round(n_users * panel.n_adults / panel.n_users)
    n_mature = round(n_users * panel.n_matures / panel.n_users)
    n_age_und = n_users - n_adol - n_early - n_adult - n_mature
    return replace(
        panel,
        n_users=n_users,
        n_men=n_men,
        n_women=n_women,
        n_gender_undisclosed=n_und,
        n_adolescents=n_adol,
        n_early_adults=n_early,
        n_adults=n_adult,
        n_matures=n_mature,
        n_age_undisclosed=n_age_und,
    )


def default_config() -> ReproductionConfig:
    """Return the full-scale configuration used by the paper reproduction."""
    return ReproductionConfig()


def quick_config(factor: int = 20) -> ReproductionConfig:
    """Return a scaled-down configuration suitable for tests and examples."""
    return default_config().scaled_down(factor)
