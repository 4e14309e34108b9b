"""High-level pipeline: build every component of the reproduction in one call.

Examples, tests and benchmarks all need the same stack: an interest catalog,
the world-scale reach model, the simulated Ads API, the FDVT panel and a
delivery engine.  :func:`build_simulation` wires them together from a single
:class:`~repro.config.ReproductionConfig`, keeping every component consistent
(same catalog, same seeds).

This is also the compilation target of the declarative scenario layer:
:meth:`repro.scenarios.ScenarioSpec.compile` resolves a spec to a config
and calls :func:`build_simulation`, so scenario runs and hand-wired runs
build byte-for-byte the same stack.

Stage decomposition
-------------------
The build is three stages, split along its cost structure:

* :func:`build_catalog` — generate the interest catalog (the dominant cost
  together with the panel);
* :func:`build_panel` — assign interests to the FDVT panel on top of a
  catalog, straight into its columnar store (the only panel layout, and
  what a cache's disk tier hydrates too);
* :func:`assemble_simulation` — wire the cheap, *mutable* per-run shell
  (reach model, the two platform APIs with fresh clocks and rate limiters,
  delivery engine, click log) around the two expensive artifacts.

The first two stages are pure functions of (config, resolved stage seed)
and accept a :class:`~repro.cache.BuildCache`: their results are keyed by
the content fingerprints :func:`catalog_fingerprint` /
:func:`panel_fingerprint` (seed-aware, see the contract in
:mod:`repro.config`), so sweeps whose grid rows only vary analysis knobs
share one catalog + panel build across every row.  Cached artifacts are
treated as immutable; the assembled shell is always fresh, which is why a
cached and an uncached build are bit-identical — including rate-limit and
clock accounting.  ``build_simulation(config, seed=seed)`` without a cache
is byte-for-byte the pre-cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rng import derive_seed
from .cache import BuildCache, catalog_stage_key, stable_fingerprint
from .adsapi import AdsManagerAPI
from .catalog import DEFAULT_WORLD_POPULATION, InterestCatalog
from .config import PlatformConfig, ReproductionConfig, default_config
from .core import (
    LeastPopularSelection,
    NanotargetingExperiment,
    RandomSelection,
    UniquenessModel,
)
from .delivery import ClickLog, DeliveryEngine
from .exec import ShardExecutor
from .fdvt import FDVTExtension, FDVTPanel, PanelBuilder
from .io.artifacts import CATALOG_CODEC, PanelArtifactCodec
from .population import AssignerSpec, InterestAssigner
from .population.generation import ASSIGNMENT_STREAM_VERSION
from .reach import ReachModelSpec, StatisticalReachModel, country_codes
from .simclock import SimClock

@dataclass(frozen=True)
class Simulation:
    """Every component needed to reproduce the paper, pre-wired.

    The constructors below are the one place each study is wired: the
    scenario adapters (:mod:`repro.scenarios.experiments`), and through
    them the CLI's study commands, take their model, experiment, extension
    and strategies from here.
    """

    config: ReproductionConfig
    catalog: InterestCatalog
    reach_model: StatisticalReachModel
    uniqueness_api: AdsManagerAPI
    campaign_api: AdsManagerAPI
    panel: FDVTPanel
    delivery_engine: DeliveryEngine
    click_log: ClickLog

    # -- constructors of the paper's studies -------------------------------------

    def uniqueness_model(self) -> UniquenessModel:
        """The Section 4 model, bound to the 2017 platform and the 50-country base."""
        return UniquenessModel(
            self.uniqueness_api,
            self.panel,
            self.config.uniqueness,
            locations=country_codes(),
        )

    def nanotargeting_experiment(self, seed: int | None = None) -> NanotargetingExperiment:
        """The Section 5 experiment, bound to the 2020 platform."""
        return NanotargetingExperiment(
            self.campaign_api,
            self.delivery_engine,
            self.config.experiment,
            click_log=self.click_log,
            seed=seed,
        )

    def fdvt_extension(self) -> FDVTExtension:
        """The Section 6 FDVT extension, bound to the 2017 platform API."""
        return FDVTExtension(self.uniqueness_api, self.catalog)

    def strategies(self) -> tuple[LeastPopularSelection, RandomSelection]:
        """The two interest-selection strategies of Section 4.2."""
        return (
            LeastPopularSelection(),
            RandomSelection(seed=derive_seed(self.config.uniqueness.seed, "random-strategy")),
        )


# -- stage seeds and fingerprints ---------------------------------------------------


def _catalog_seed(config: ReproductionConfig, seed: int | None) -> int:
    """The resolved catalog-stage seed for a top-level ``seed``."""
    return config.catalog.seed if seed is None else derive_seed(seed, "catalog")


def _panel_seed(config: ReproductionConfig, seed: int | None) -> int:
    """The resolved panel-stage seed for a top-level ``seed``."""
    return config.panel.seed if seed is None else derive_seed(seed, "panel")


def catalog_fingerprint(config: ReproductionConfig, seed: int | None = None) -> str:
    """The content fingerprint of the catalog stage under ``(config, seed)``.

    Two (config, seed) pairs share this digest exactly when
    :func:`build_catalog` would produce bit-identical catalogs.
    """
    return catalog_stage_key(
        config.catalog, _catalog_seed(config, seed), DEFAULT_WORLD_POPULATION
    )


def panel_fingerprint(config: ReproductionConfig, seed: int | None = None) -> str:
    """The content fingerprint of the panel stage under ``(config, seed)``.

    The panel depends on the catalog it is assigned from, its own config
    and seed, the interest assigner's topic-affinity boost (derived from
    the reach config) and the version of the assignment stream, so all
    five feed the digest.
    """
    return stable_fingerprint(
        "stage:panel",
        {
            "assignment_stream": ASSIGNMENT_STREAM_VERSION,
            "catalog": catalog_fingerprint(config, seed),
            "panel": config.panel.to_dict(),
            "topic_affinity_boost": config.reach.topic_affinity_boost,
            "seed": int(_panel_seed(config, seed)),
        },
    )


def simulation_fingerprint(config: ReproductionConfig, seed: int | None = None) -> str:
    """The content fingerprint of a fully assembled simulation.

    Not a cache key (the assembled shell is mutable and always built
    fresh) but the identity tests and fixtures key shared builds on.
    """
    return stable_fingerprint(
        "stage:simulation",
        {"config": config.to_dict(), "seed": None if seed is None else int(seed)},
    )


# -- cacheable build stages ---------------------------------------------------------


def build_catalog(
    config: ReproductionConfig,
    *,
    seed: int | None = None,
    cache: BuildCache | None = None,
) -> InterestCatalog:
    """Build (or fetch) the interest catalog stage of ``config``.

    ``seed`` is the *top-level* simulation seed, resolved to the catalog
    stage seed exactly like :func:`build_simulation` does.  With a
    ``cache``, the catalog is keyed by :func:`catalog_fingerprint` and
    shared with every other build of the same stage — including the reach
    model rebuilds of process-pool shard workers, which use the same key
    (:meth:`repro.reach.ReachModelSpec.build`).  A cache with a disk tier
    hydrates the catalog from (and publishes it to) its root, so cold
    processes load instead of regenerating; loaded catalogs are
    bit-identical to generated ones.
    """
    stage_seed = _catalog_seed(config, seed)

    def generate() -> InterestCatalog:
        return InterestCatalog.generate(config.catalog, seed=stage_seed)

    if cache is None:
        return generate()
    return cache.get_or_build(
        catalog_fingerprint(config, seed), generate, codec=CATALOG_CODEC
    )


def build_panel(
    config: ReproductionConfig,
    *,
    seed: int | None = None,
    catalog: InterestCatalog | None = None,
    cache: BuildCache | None = None,
    executor: ShardExecutor | None = None,
) -> FDVTPanel:
    """Build (or fetch) the FDVT panel stage of ``config``.

    Builds on ``catalog`` when given (it must be the catalog stage of the
    same (config, seed) — the fingerprint assumes so), otherwise resolves
    the catalog stage itself through the same ``cache``.  ``executor``
    shards the generation loop (serial by default); every plan builds the
    same columns, so it does not enter the cache key.
    """
    if catalog is None:
        catalog = build_catalog(config, seed=seed, cache=cache)
    stage_seed = _panel_seed(config, seed)

    def assemble() -> FDVTPanel:
        boost = 1.0 + 10.0 * config.reach.topic_affinity_boost
        catalog_seed = _catalog_seed(config, seed)
        # The spec lets process-pool generation shards rebuild the assigner
        # from config + seed instead of unpickling the whole catalog.
        spec = AssignerSpec(
            catalog_config=config.catalog,
            catalog_seed=None if catalog_seed is None else int(catalog_seed),
            topic_affinity_boost=boost,
        )
        assigner = InterestAssigner(catalog, topic_affinity_boost=boost, spec=spec)
        builder = PanelBuilder(catalog, config.panel, assigner=assigner)
        return builder.build(seed=stage_seed, executor=executor)

    if cache is None:
        return assemble()
    return cache.get_or_build(
        panel_fingerprint(config, seed), assemble, codec=PanelArtifactCodec(catalog)
    )


def assemble_simulation(
    config: ReproductionConfig,
    catalog: InterestCatalog,
    panel: FDVTPanel,
    *,
    seed: int | None = None,
) -> Simulation:
    """Wire the per-run shell around the (possibly cached) build artifacts.

    Everything mutable lives here — reach-model memo caches, the two
    platform APIs with fresh clocks and token buckets, the delivery engine
    and the click log — so simulations sharing cached artifacts never
    share run state.
    """
    catalog_seed = _catalog_seed(config, seed)
    delivery_seed = (
        config.experiment.seed if seed is None else derive_seed(seed, "delivery")
    )
    # The spec lets process-pool shard workers rebuild this exact model from
    # config + seed instead of unpickling the whole catalog.
    reach_spec = ReachModelSpec(
        catalog_config=config.catalog,
        reach_config=config.reach,
        catalog_seed=None if catalog_seed is None else int(catalog_seed),
    )
    reach_model = StatisticalReachModel(catalog, config.reach, spec=reach_spec)
    uniqueness_api = AdsManagerAPI(
        reach_model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
    )
    campaign_api = AdsManagerAPI(
        reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
    )
    delivery_engine = DeliveryEngine(catalog, seed=delivery_seed)
    return Simulation(
        config=config,
        catalog=catalog,
        reach_model=reach_model,
        uniqueness_api=uniqueness_api,
        campaign_api=campaign_api,
        panel=panel,
        delivery_engine=delivery_engine,
        click_log=ClickLog(),
    )


def build_simulation(
    config: ReproductionConfig | None = None,
    *,
    seed: int | None = None,
    cache: BuildCache | None = None,
) -> Simulation:
    """Build a fully wired :class:`Simulation` from ``config``.

    The uniqueness API uses the January 2017 platform limits (reporting floor
    of 20 users, no worldwide location) while the campaign API uses the late
    2020 limits (floor of 1,000 users, worldwide location available), exactly
    matching the two phases of the paper.

    ``cache`` threads a :class:`~repro.cache.BuildCache` through the
    catalog and panel stages; results are bit-identical with and without
    it (catalog generation and panel assembly are deterministic in their
    fingerprinted inputs), so callers opt in purely for speed.
    """
    config = config or default_config()
    catalog = build_catalog(config, seed=seed, cache=cache)
    panel = build_panel(config, seed=seed, catalog=catalog, cache=cache)
    return assemble_simulation(config, catalog, panel, seed=seed)
