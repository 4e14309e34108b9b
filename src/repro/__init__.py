"""repro — reproduction of "Unique on Facebook" (IMC 2021).

The package reproduces, on fully synthetic substrates, the two contributions
of González-Cabañas et al., IMC '21:

* a data-driven model of ``N_P`` — the number of (non-PII) interests that
  make a Facebook user unique with probability ``P`` (Section 4);
* a systematic nanotargeting experiment showing that an attacker knowing
  enough interests of a user can deliver ads exclusively to that user
  (Section 5) — plus the FDVT-side and platform-side countermeasures of
  Sections 6 and 8.

Quick start::

    from repro import build_simulation, quick_config

    simulation = build_simulation(quick_config())
    model = simulation.uniqueness_model()
    lp, random = simulation.strategies()
    report = model.estimate(random)
    print(report.summary_lines())
"""

from .cache import (
    BuildCache,
    CacheInfo,
    DiskCache,
    build_cache,
    reset_build_cache,
    resolve_cache_root,
    resolve_cache_size,
    stable_fingerprint,
)
from .config import (
    CatalogConfig,
    ExperimentConfig,
    PanelConfig,
    PlatformConfig,
    ReachModelConfig,
    ReproductionConfig,
    UniquenessConfig,
    default_config,
    quick_config,
)
from .errors import (
    AdsApiError,
    ArtifactError,
    CatalogError,
    ConfigurationError,
    DeliveryError,
    ExecError,
    InsufficientDataError,
    ModelError,
    PanelError,
    PopulationError,
    ReproError,
    ServiceError,
    ShardFailedError,
    TransientApiError,
)
from .faults import FaultPlan, RetryPolicy
from .pipeline import (
    Simulation,
    assemble_simulation,
    build_catalog,
    build_panel,
    build_simulation,
    catalog_fingerprint,
    panel_fingerprint,
    simulation_fingerprint,
)
from .scenarios import (
    RunManifest,
    ScenarioSpec,
    SweepReport,
    SweepRunner,
    expand_grid,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)
from .service import (
    ReachRequest,
    ReachResponse,
    ReachService,
    RequestTrace,
    ServiceConfig,
    run_trace,
)
from .simclock import SimClock

__version__ = "1.0.0"

__all__ = [
    "AdsApiError",
    "ArtifactError",
    "BuildCache",
    "CacheInfo",
    "CatalogConfig",
    "CatalogError",
    "ConfigurationError",
    "DeliveryError",
    "DiskCache",
    "ExecError",
    "ExperimentConfig",
    "FaultPlan",
    "InsufficientDataError",
    "ModelError",
    "PanelConfig",
    "PanelError",
    "PlatformConfig",
    "PopulationError",
    "ReachModelConfig",
    "ReachRequest",
    "ReachResponse",
    "ReachService",
    "ReproError",
    "ReproductionConfig",
    "RequestTrace",
    "RetryPolicy",
    "RunManifest",
    "ScenarioSpec",
    "ServiceConfig",
    "ServiceError",
    "ShardFailedError",
    "SimClock",
    "Simulation",
    "SweepReport",
    "SweepRunner",
    "TransientApiError",
    "UniquenessConfig",
    "__version__",
    "assemble_simulation",
    "build_cache",
    "build_catalog",
    "build_panel",
    "build_simulation",
    "catalog_fingerprint",
    "default_config",
    "expand_grid",
    "get_scenario",
    "list_scenarios",
    "panel_fingerprint",
    "quick_config",
    "register_scenario",
    "reset_build_cache",
    "resolve_cache_root",
    "resolve_cache_size",
    "run_scenario",
    "run_trace",
    "simulation_fingerprint",
    "stable_fingerprint",
]
