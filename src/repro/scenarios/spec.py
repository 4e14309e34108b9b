"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the ~20-line description of one paper-style
experiment: which study to run (uniqueness, nanotargeting, the
countermeasure workload impact or the FDVT risk reports), at what scale,
with which seed, selection strategies, countermeasure rules and delivery
knobs.  The spec is pure data — a frozen dataclass of primitives,
picklable and round-trippable through :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict` — and compiles into a fully wired
:class:`~repro.pipeline.Simulation` via :meth:`ScenarioSpec.compile`
(which rides :func:`repro.pipeline.build_simulation`, so a scenario run is
bit-identical to hand-wiring the same components).

Seed discipline: a spec either pins ``seed`` explicitly or leaves it
``None`` (the library's config-default seeds, exactly like
``build_simulation(config)``).  Sweeps derive per-scenario seeds
deterministically with :meth:`ScenarioSpec.derived` —
``_rng.derive_seed(base, "scenario", name)`` — so the same spec produces
the same simulation whether it runs alone or inside any sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .._rng import derive_seed
from ..cache import BuildCache, stable_fingerprint
from ..config import ReproductionConfig, quick_config
from ..errors import ConfigurationError
from ..pipeline import (
    Simulation,
    build_simulation,
    catalog_fingerprint,
    panel_fingerprint,
    simulation_fingerprint,
)

#: The four paper studies a scenario can run.
STUDIES = ("uniqueness", "nanotargeting", "workload_impact", "fdvt_risk")

#: Interest-selection strategies a uniqueness scenario can request.
STRATEGY_NAMES = ("least_popular", "random")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: a study plus every knob it honours.

    Unused knobs are simply ignored by the other studies (a uniqueness
    scenario does not read ``workload_size``), so one spec shape covers the
    whole family and grids can sweep any axis.
    """

    name: str
    study: str
    description: str = ""
    #: Scale divisor applied to the paper-scale configuration (1 = full scale).
    factor: int = 20
    #: Top-level seed; ``None`` keeps the library's config-default seeds.
    seed: int | None = None
    #: Panel-size override (users); quotas rescale proportionally.
    panel_users: int | None = None
    #: Selection strategies evaluated by the uniqueness study.
    strategies: tuple[str, ...] = STRATEGY_NAMES
    #: Uniqueness probabilities (empty = the config default).
    probabilities: tuple[float, ...] = ()
    #: Bootstrap replicate override for the uniqueness study.
    n_bootstrap: int | None = None
    #: Nanotargeting target-count override.
    n_targets: int | None = None
    #: Nanotargeting campaign interest counts (empty = the paper's seven).
    interest_counts: tuple[int, ...] = ()
    #: Delivery knob: daily campaign budget override (EUR).
    daily_budget_eur: float | None = None
    #: Countermeasure rules, e.g. ("interest_cap:9", "min_active_audience:1000").
    countermeasures: tuple[str, ...] = ()
    #: Campaigns in the benign workload (workload_impact study).
    workload_size: int = 500
    #: Panel users covered by the FDVT risk-report study.
    risk_users: int = 25

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a name")
        if self.study not in STUDIES:
            raise ConfigurationError(
                f"unknown study: {self.study!r} (expected one of {STUDIES})"
            )
        if self.factor < 1:
            raise ConfigurationError("factor must be >= 1")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        object.__setattr__(self, "interest_counts", tuple(self.interest_counts))
        object.__setattr__(self, "countermeasures", tuple(self.countermeasures))
        if not self.strategies:
            raise ConfigurationError("at least one strategy is required")
        for strategy in self.strategies:
            if strategy not in STRATEGY_NAMES:
                raise ConfigurationError(
                    f"unknown strategy: {strategy!r} (expected one of {STRATEGY_NAMES})"
                )
        if self.panel_users is not None and self.panel_users < 1:
            raise ConfigurationError("panel_users must be >= 1")
        if self.n_bootstrap is not None and self.n_bootstrap < 1:
            raise ConfigurationError("n_bootstrap must be >= 1")
        if self.workload_size < 1:
            raise ConfigurationError("workload_size must be >= 1")
        if self.risk_users < 1:
            raise ConfigurationError("risk_users must be >= 1")

    # -- seed derivation -----------------------------------------------------------

    def derived(self, base_seed: int) -> "ScenarioSpec":
        """A copy with a deterministic per-scenario seed derived from ``base_seed``.

        Specs that already pin a seed are returned unchanged, so a sweep
        seed never overrides an explicit scenario seed.
        """
        if self.seed is not None:
            return self
        return replace(self, seed=derive_seed(base_seed, "scenario", self.name))

    # -- compilation ---------------------------------------------------------------

    def config(self) -> ReproductionConfig:
        """The :class:`~repro.config.ReproductionConfig` this spec describes."""
        config = quick_config(self.factor)
        if self.panel_users is not None:
            config = config.with_panel_users(self.panel_users)
        uniqueness = config.uniqueness
        if self.probabilities:
            uniqueness = replace(uniqueness, probabilities=self.probabilities)
        if self.n_bootstrap is not None:
            uniqueness = replace(uniqueness, n_bootstrap=self.n_bootstrap)
        experiment = config.experiment
        if self.n_targets is not None:
            experiment = replace(experiment, n_targets=self.n_targets)
        if self.interest_counts:
            experiment = replace(experiment, interest_counts=self.interest_counts)
        if self.daily_budget_eur is not None:
            experiment = replace(experiment, daily_budget_eur=self.daily_budget_eur)
        return replace(config, uniqueness=uniqueness, experiment=experiment)

    def compile(self, *, cache: BuildCache | None = None) -> Simulation:
        """Build the fully wired simulation this spec describes.

        Exactly ``build_simulation(self.config(), seed=self.seed)`` — the
        same call the hand-wired examples and the CLI make, which is what
        keeps scenario runs bit-identical to direct invocations.  With a
        :class:`~repro.cache.BuildCache` the catalog and panel stages are
        fetched by fingerprint when another compile already built them
        (bit-identical either way; see :mod:`repro.pipeline`).
        """
        return build_simulation(self.config(), seed=self.seed, cache=cache)

    def stage_fingerprints(self) -> dict[str, str]:
        """The content fingerprints of this spec's build stages.

        Keys: ``"catalog"``, ``"panel"``, ``"simulation"`` — the digests
        :func:`repro.pipeline.catalog_fingerprint` /
        :func:`~repro.pipeline.panel_fingerprint` /
        :func:`~repro.pipeline.simulation_fingerprint` assign to the
        resolved config + seed.  Two specs share a stage fingerprint
        exactly when compiling them builds a bit-identical stage artifact,
        which is what :class:`~repro.scenarios.sweep.SweepRunner` groups
        grid rows by.
        """
        config = self.config()
        return {
            "catalog": catalog_fingerprint(config, self.seed),
            "panel": panel_fingerprint(config, self.seed),
            "simulation": simulation_fingerprint(config, self.seed),
        }

    def fingerprint(self) -> str:
        """Content fingerprint of the *whole* spec (every knob + seed).

        Unlike :meth:`stage_fingerprints` (which keys build artifacts and
        deliberately ignores analysis knobs), this digest changes when any
        field changes — it identifies "the same experiment".  Sweep
        manifests key per-spec outcomes on it, so a resumed sweep only
        trusts a recorded result when the spec that produced it matches
        bit-for-bit.
        """
        return stable_fingerprint("scenario-spec", self.to_dict())

    # -- round-trip ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialisable view; :meth:`from_dict` restores the exact spec."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (lists become tuples)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario fields: {sorted(unknown)}"
            )
        data = dict(payload)
        for field_name in ("strategies", "probabilities", "interest_counts", "countermeasures"):
            if field_name in data and data[field_name] is not None:
                data[field_name] = tuple(data[field_name])
        return cls(**data)
