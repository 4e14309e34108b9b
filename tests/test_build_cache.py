"""The fingerprinted build cache: digests, LRU accounting, cached sweeps.

Pins the layer's three contracts:

* **fingerprint stability** — :func:`repro.cache.stable_fingerprint` and the
  config ``fingerprint()`` methods are content addressed: independent of
  dict insertion order, ``PYTHONHASHSEED`` and process restarts (checked
  against a subprocess and a pinned golden digest);
* **cache accounting** — :class:`repro.cache.BuildCache` builds each key at
  most once (including under concurrent callers), counts hits, misses and
  evictions, and ``clear()`` resets everything;
* **bit-identical sharing** — cached builds (``build_simulation(cache=...)``,
  ``ReachModelSpec.build(cache=...)``) and cached sweeps
  (``SweepRunner(share_builds=True)``) return results identical to the
  uncached paths on every backend and worker count, while an
  analysis-knob-only sweep builds its catalog and panel exactly once.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import build_simulation, quick_config
from repro._rng import derive_seed
from repro.cache import BuildCache, build_cache, stable_fingerprint
from repro.catalog import DEFAULT_WORLD_POPULATION
from repro.config import CatalogConfig
from repro.exec import ShardExecutor
from repro.pipeline import (
    assemble_simulation,
    build_catalog,
    build_panel,
    catalog_fingerprint,
    panel_fingerprint,
    simulation_fingerprint,
)
from repro.scenarios import ScenarioSpec, SweepRunner, expand_grid, run_scenario

FACTOR = 80


def cache_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="cache-uniqueness",
        study="uniqueness",
        factor=FACTOR,
        seed=17,
        strategies=("random",),
        probabilities=(0.9,),
        n_bootstrap=12,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def analysis_knob_grid() -> tuple[ScenarioSpec, ...]:
    """Eight rows that share one (catalog, panel) build fingerprint."""
    grid = expand_grid(
        cache_spec(),
        {
            "strategies": [("least_popular",), ("random",)],
            "probabilities": [(0.8,), (0.9,), (0.95,), (0.8, 0.9)],
        },
    )
    assert len(grid) == 8
    return grid


class TestStableFingerprint:
    def test_dict_order_does_not_matter(self):
        forward = {"a": 1, "b": 2, "nested": {"x": [1, 2], "y": None}}
        backward = {"nested": {"y": None, "x": [1, 2]}, "b": 2, "a": 1}
        assert stable_fingerprint("k", forward) == stable_fingerprint("k", backward)

    def test_kind_tag_separates_equal_payloads(self):
        assert stable_fingerprint("catalog", {"seed": 1}) != stable_fingerprint(
            "panel", {"seed": 1}
        )

    def test_golden_digest_is_pinned(self):
        # Any change to the canonical encoding (key order, separators,
        # float repr, the kind/payload envelope) breaks every persisted
        # fingerprint; this literal makes such a change loud.
        assert (
            stable_fingerprint("CatalogConfig", {"a": 1, "b": [1.5, None, "x"]})
            == "d9ad6ec5cca5c7a1b19dc06360e8e8ef5d3536f684e531e40332da7d4e297c7f"
        )

    def test_tuples_fingerprint_like_lists(self):
        assert stable_fingerprint("k", {"v": (1, 2)}) == stable_fingerprint(
            "k", {"v": [1, 2]}
        )

    def test_unfingerprintable_payloads_are_rejected(self):
        with pytest.raises(TypeError):
            stable_fingerprint("k", {"v": object()})
        with pytest.raises(ValueError):
            stable_fingerprint("k", {"v": float("nan")})

    def test_config_fingerprint_tracks_equality(self):
        assert CatalogConfig().fingerprint() == CatalogConfig().fingerprint()
        assert (
            CatalogConfig(seed=1).fingerprint() != CatalogConfig(seed=2).fingerprint()
        )


class TestFingerprintStability:
    def test_stable_across_process_restarts_and_hash_seeds(self):
        config = quick_config(factor=FACTOR)
        expected = [
            config.fingerprint(),
            catalog_fingerprint(config, 17),
            panel_fingerprint(config, 17),
            simulation_fingerprint(config, 17),
        ]
        script = (
            "from repro import quick_config\n"
            "from repro.pipeline import (catalog_fingerprint, panel_fingerprint,\n"
            "    simulation_fingerprint)\n"
            f"config = quick_config(factor={FACTOR})\n"
            "print(config.fingerprint())\n"
            "print(catalog_fingerprint(config, 17))\n"
            "print(panel_fingerprint(config, 17))\n"
            "print(simulation_fingerprint(config, 17))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
        )
        assert result.stdout.split() == expected

    def test_scenario_stage_fingerprints_round_trip(self):
        spec = cache_spec()
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.stage_fingerprints() == spec.stage_fingerprints()

    def test_panels_of_the_old_assignment_stream_never_load(self):
        # The payloads keys had before they named the assignment stream:
        # a root warmed then must miss every panel and re-run every sweep
        # row, while its catalogs still hit.
        config = quick_config(factor=FACTOR)
        old_panel_key = stable_fingerprint(
            "stage:panel",
            {
                "catalog": catalog_fingerprint(config, 17),
                "panel": config.panel.to_dict(),
                "topic_affinity_boost": config.reach.topic_affinity_boost,
                "seed": int(derive_seed(17, "panel")),
            },
        )
        assert panel_fingerprint(config, 17) != old_panel_key
        assert catalog_fingerprint(config, 17) == stable_fingerprint(
            "stage:catalog",
            {
                "config": config.catalog.to_dict(),
                "seed": int(derive_seed(17, "catalog")),
                "world_population": DEFAULT_WORLD_POPULATION,
            },
        )
        spec = cache_spec()
        assert spec.fingerprint() != stable_fingerprint("scenario-spec", spec.to_dict())


class TestBuildCache:
    def test_builds_once_and_counts(self):
        cache = BuildCache(maxsize=4)
        calls = []
        build = lambda: calls.append(1) or "artifact"
        assert cache.get_or_build("k", build) == "artifact"
        assert cache.get_or_build("k", build) == "artifact"
        assert calls == [1]
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 1, 1, 4)
        assert "k" in cache and len(cache) == 1

    def test_lru_evicts_oldest_entry(self):
        cache = BuildCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")  # refresh a: b is now oldest
        cache.get_or_build("c", lambda: "C")
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.cache_info().evictions == 1

    def test_clear_resets_entries_and_counters(self):
        cache = BuildCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("a", lambda: "A")
        cache.clear()
        info = cache.cache_info()
        assert (info.hits, info.misses, info.evictions, info.currsize) == (0, 0, 0, 0)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            BuildCache(maxsize=0)

    def test_concurrent_misses_build_exactly_once(self):
        cache = BuildCache()
        release = threading.Event()
        calls = []

        def slow_build():
            calls.append(1)
            release.wait(timeout=5)
            return "artifact"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_build("k", slow_build))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert calls == [1]
        assert results == ["artifact"] * 4
        info = cache.cache_info()
        assert info.misses == 1 and info.hits == 3

    def test_process_global_cache_is_a_singleton(self):
        assert build_cache() is build_cache()

    def test_failing_builder_releases_its_key_lock(self):
        cache = BuildCache()

        def explode():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", explode)
        assert "k" not in cache
        assert not cache._key_locks  # no leaked per-key lock
        # The next caller retries the build and can succeed.
        assert cache.get_or_build("k", lambda: "artifact") == "artifact"


class TestCachedBuildParity:
    def test_cached_build_is_bit_identical_to_uncached(self):
        config = quick_config(factor=FACTOR)
        cache = BuildCache()
        cached = build_simulation(config, seed=17, cache=cache)
        plain = build_simulation(config, seed=17)
        assert [u.interest_ids for u in cached.panel.users] == [
            u.interest_ids for u in plain.panel.users
        ]
        ids = plain.catalog.interest_ids[:20].reshape(2, 10)
        counts = np.array([10, 7], dtype=np.int64)
        assert np.array_equal(
            cached.reach_model.prefix_audiences_panel(ids, counts, None),
            plain.reach_model.prefix_audiences_panel(ids, counts, None),
            equal_nan=True,
        )

    def test_artifacts_shared_but_shell_fresh(self):
        config = quick_config(factor=FACTOR)
        cache = BuildCache()
        first = build_simulation(config, seed=17, cache=cache)
        second = build_simulation(config, seed=17, cache=cache)
        assert first.catalog is second.catalog
        assert first.panel is second.panel
        assert first.uniqueness_api is not second.uniqueness_api
        assert first.campaign_api is not second.campaign_api
        assert first.click_log is not second.click_log
        info = cache.cache_info()
        assert info.misses == 2 and info.hits == 2

    def test_stage_composition_matches_monolithic_build(self):
        config = quick_config(factor=FACTOR)
        cache = BuildCache()
        catalog = build_catalog(config, seed=17, cache=cache)
        panel = build_panel(config, seed=17, catalog=catalog, cache=cache)
        staged = assemble_simulation(config, catalog, panel, seed=17)
        monolithic = build_simulation(config, seed=17)
        assert [u.interest_ids for u in staged.panel.users] == [
            u.interest_ids for u in monolithic.panel.users
        ]
        assert staged.reach_model.spec == monolithic.reach_model.spec

    def test_reach_spec_rebuild_shares_the_catalog_stage(self):
        config = quick_config(factor=FACTOR)
        cache = BuildCache()
        simulation = build_simulation(config, seed=17, cache=cache)
        rebuilt = simulation.reach_model.spec.build(cache=cache)
        # The worker-side rebuild keys the same catalog-stage fingerprint,
        # so it reuses the sweep's cached catalog object outright.
        assert rebuilt.catalog is simulation.catalog

    def test_conftest_builder_matches_direct_build(
        self, simulation_factory, suite_build_cache
    ):
        config = quick_config(factor=FACTOR)
        cached = simulation_factory(config, seed=17)
        plain = build_simulation(config, seed=17)
        assert [u.interest_ids for u in cached.panel.users] == [
            u.interest_ids for u in plain.panel.users
        ]
        # The session fixture routes through the suite-wide cache: a
        # second compile of the same fingerprints reuses the artifacts.
        again = simulation_factory(config, seed=17)
        assert again.catalog is cached.catalog
        assert again.panel is cached.panel
        assert panel_fingerprint(config, 17) in suite_build_cache


class TestSweepBuildSharing:
    def test_analysis_knob_sweep_builds_catalog_and_panel_once(self):
        grid = analysis_knob_grid()
        runner = SweepRunner()
        assert len(runner.build_groups(grid)) == 1
        build_cache().clear()
        results = runner.run(grid)
        info = build_cache().cache_info()
        # One catalog + one panel fetched from outside memory for all 8
        # rows.  When REPRO_CACHE_ROOT points the process cache at a
        # warmed disk root those two arrive as disk hits instead of
        # builds; either way nothing is built more than once.
        assert info.misses + info.disk_hits == 2
        assert info.memory_hits == 2 * (len(grid) - 1)
        assert results.names == tuple(spec.name for spec in grid)

    def test_seed_axis_rows_do_not_share_builds(self):
        grid = expand_grid(cache_spec(seed=None), {"seed": [1, 2, 3]})
        assert len(SweepRunner().build_groups(grid)) == 3

    @pytest.mark.parametrize(
        "executor",
        [
            ShardExecutor(),
            pytest.param(
                ShardExecutor(backend="thread", workers=2), marks=pytest.mark.slow
            ),
            pytest.param(
                ShardExecutor(backend="thread", workers=4, shard_size=1),
                marks=pytest.mark.slow,
            ),
        ],
        ids=["serial", "thread-2", "thread-4-row-shards"],
    )
    def test_cached_sweep_matches_uncached_sweep(self, executor):
        grid = analysis_knob_grid()
        cached = SweepRunner(executor=executor).run(grid)
        uncached = SweepRunner(executor=executor, share_builds=False).run(grid)
        assert cached == uncached
        assert cached.names == tuple(spec.name for spec in grid)

    @pytest.mark.slow
    def test_process_backend_sweep_is_bit_identical(self):
        grid = analysis_knob_grid()[:4]
        reference = SweepRunner(share_builds=False).run(grid)
        processed = SweepRunner(
            executor=ShardExecutor(backend="process", workers=2, shard_size=2)
        ).run(grid)
        assert processed == reference

    def test_cached_sweep_matches_direct_runs(self):
        grid = analysis_knob_grid()[:3]
        swept = SweepRunner().run(grid)
        for spec in grid:
            assert swept.get(spec.name) == run_scenario(spec)

    def test_mixed_build_groups_keep_grid_order(self):
        # Two build groups interleaved in the grid: regrouping must not
        # leak into the result order.
        grid = expand_grid(
            cache_spec(seed=None),
            {"seed": [5, 6], "strategies": [("least_popular",), ("random",)]},
        )
        assert len(SweepRunner().build_groups(grid)) == 2
        cached = SweepRunner().run(grid)
        uncached = SweepRunner(share_builds=False).run(grid)
        assert cached == uncached
        assert cached.names == tuple(spec.name for spec in grid)
