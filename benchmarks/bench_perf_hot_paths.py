#!/usr/bin/env python
"""Wall-clock benchmark of the batched reach-pipeline hot paths.

Unlike the ``bench_fig*`` / ``bench_table*`` modules (pytest-benchmark
harness reproducing the paper's figures), this is a plain script that times
the hot paths industrialised by the batched pipeline —

* audience-size **collection** (the shard engine behind
  ``AudienceSizeCollector.collect``: per-shard vectorised ordering +
  prefix kernel + one merged bill) against the per-user batched prefix
  query and the scalar per-(user, N) loop, both taken from the parity
  oracles in ``tests/oracles.py``,
* **sharded collection** (the same engine on a multi-worker runner vs a
  one-shard plan, i.e. one fused whole-panel pass, measured on a tiled
  panel large enough that the fused pass falls out of cache),
* the **fault-tolerance layer** (the same sharded pass with a retry policy
  and a zero-rate ``FaultPlan`` engaged, verifying the guard plumbing is
  effectively free when no faults fire),
* **streaming estimation** (``collect_stream`` blocks drained into the
  mergeable ``AudienceAccumulator`` and bootstrapped off the column store,
  vs the materialised matrix),
* the **FDVT risk reports** (deduped bulk query vs one scalar query per
  (user, interest) occurrence),
* **estimation** (quantiles + log-log fits + confidence intervals),
* the **bootstrap** (vectorised resampling + ``fit_vas_many`` vs the
  per-replicate Python loop),
* the **scenario sweep** (an 8-spec grid through ``repro.scenarios``'s
  ``SweepRunner`` vs the same studies hand-wired, measuring the
  orchestration layer's per-scenario overhead),
* the **reach service** (the always-on ``repro.service`` loop: a healthy
  trace at half capacity for sustained throughput and P50/P99 latency,
  then a 2x-overload trace under chaos for shed rate and admitted-P99 —
  every served answer hard-checked against a direct bulk call),
* the **columnar scale stage** (``--scale-users`` panellists built straight
  into the CSR column store via the sharded generation path, then collected
  shard-by-shard and bootstrapped off the streamed accumulator — measuring
  build rate in users/s and peak memory via ``tracemalloc`` +
  ``resource.getrusage``, with parity against the oracle-built object
  panel pinned at an overlap scale; ``--scale-users 1000000`` is the
  million-user acceptance run),

* the **assignment-rate stage** (the batched ``assign_rows`` interest
  kernel vs the oracle's per-user ``assign`` loop on one panel-shaped
  shard, outputs hard-checked bit-identical; ``--min-assign-rate`` /
  ``--min-assign-gain`` gate the kernel's users/s and its speedup),

* the **cold-start stage** (hydrating the panel from the disk-backed
  content-addressed artifact store vs rebuilding it from scratch, with
  the hydrated columns hard-checked bit-identical;
  ``--min-cache-load-gain`` gates the load-vs-rebuild speedup),

— verifies that the tiers agree bit-for-bit, and appends the timings to a
``BENCH_perf.json`` trajectory file so future PRs can track the speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_hot_paths.py            # benchmark scale
    PYTHONPATH=src python benchmarks/bench_perf_hot_paths.py --quick    # CI smoke scale
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import (
    assemble_simulation,
    build_catalog,
    build_panel,
    build_simulation,
    quick_config,
)
from repro._rng import as_generator, derive_generator
from repro.cache import BuildCache, DiskCache, build_cache
from repro.adsapi import AdsManagerAPI
from repro.config import PlatformConfig, UniquenessConfig
from repro.core import (
    AudienceAccumulator,
    AudienceSizeCollector,
    LeastPopularSelection,
    RandomSelection,
    UniquenessModel,
    bootstrap_cutpoints,
)
from repro.core.fitting import fit_vas
from repro.errors import ModelError
from repro.exec import FaultPlan, RetryPolicy, ShardExecutor, drain
from repro.fdvt import FDVTExtension, FDVTPanel
from repro.population import (
    AGE_GROUP_TABLE,
    InterestAssigner,
    InterestCountModel,
    InterestShardTask,
    PanelColumns,
    SyntheticUser,
    run_interest_shard,
)
from repro.reach import country_codes
from repro.scenarios import ScenarioSpec, SweepRunner, expand_grid
from repro.service import ReachService, RequestTrace, ServiceConfig, run_trace
from repro.simclock import SimClock

# The reference baselines of the parity gates live with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

#: Scale divisor matching benchmarks/conftest.py's mid-scale simulation.
BENCH_SCALE_FACTOR = 8
QUICK_SCALE_FACTOR = 50

QUANTILES = (50.0, 90.0, 95.0)

#: Users covered by the risk-report stage (the scalar reference issues one
#: API call per (user, interest) occurrence, so the stage runs on a slice).
RISK_REPORT_USERS = 30

#: Panel tiling for the sharded-collection stage.  The sharding gains come
#: from per-shard cache residency (and, on multi-core hosts, parallelism),
#: so the stage needs a panel large enough that the fused whole-panel
#: ordering + kernel fall out of cache; the small quick-scale panel is
#: tiled harder to reach that regime.
SHARD_TILES = 16
QUICK_SHARD_TILES = 64
SHARD_WORKERS = 4

#: Reach-service stage knobs.  Capacity is ``max_batch_cells /
#: tick_seconds / mean request cost``; the healthy trace runs at half of
#: it, the overload trace at twice it (the acceptance scenario).
SERVICE_BATCH_CELLS = 64
SERVICE_TICK_SECONDS = 1.0
SERVICE_MEAN_COST = 5.0  # trace costs are uniform on [2, 8] interests
SERVICE_TRACE_SECONDS = 30.0
SERVICE_CHAOS = FaultPlan(
    seed=20211102, transient_rate=0.1, error_rate=0.05, slow_rate=0.05
)


def _timed(label: str, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    print(f"  {label:<38s} {elapsed * 1000.0:10.1f} ms")
    return elapsed, result


def _paired_best(repeats: int, baseline_fn, variant_fn):
    """Interleaved best-of-N timing of two functions.

    Overhead ratios in the low single-digit percent range drown in
    scheduler/thermal drift when the two sides are timed back-to-back in
    blocks; alternating the runs exposes both sides to the same drift.
    """
    baseline_best = variant_best = float("inf")
    variant_result = None
    for _ in range(repeats):
        start = time.perf_counter()
        baseline_fn()
        baseline_best = min(baseline_best, time.perf_counter() - start)
        start = time.perf_counter()
        variant_result = variant_fn()
        variant_best = min(variant_best, time.perf_counter() - start)
    return baseline_best, variant_best, variant_result


def _scalar_bootstrap_reference(samples, qs, n_bootstrap: int, seed: int):
    """The pre-vectorisation bootstrap: one percentile + fit per replicate."""
    rng = as_generator(seed)
    results: dict[float, list[float]] = {q: [] for q in qs}
    matrix = samples.matrix
    n_users = samples.n_users
    for _ in range(n_bootstrap):
        indices = rng.integers(0, n_users, size=n_users)
        resampled = matrix[indices]
        with np.errstate(all="ignore"):
            vas_rows = np.atleast_2d(np.nanpercentile(resampled, list(qs), axis=0))
        for q, vas in zip(qs, vas_rows):
            try:
                results[q].append(fit_vas(vas, samples.floor).cutpoint)
            except ModelError:
                results[q].append(float("nan"))
    return {q: np.asarray(values, dtype=float) for q, values in results.items()}


def _tiled_panel(panel: FDVTPanel, tiles: int) -> FDVTPanel:
    """Replicate a panel's users ``tiles`` times with fresh user ids.

    The tiled users are encoded into the columnar store up front, so no
    timed collection pays the one-off encode.
    """
    users = []
    user_id = 0
    for _ in range(tiles):
        for user in panel.users:
            users.append(
                SyntheticUser(
                    user_id=user_id,
                    country=user.country,
                    gender=user.gender,
                    age=user.age,
                    interest_ids=user.interest_ids,
                )
            )
            user_id += 1
    return FDVTPanel.from_columns(PanelColumns.from_users(users), panel.catalog)


def _service_stage(simulation) -> dict:
    """Time the always-on reach service: healthy load, then 2x overload.

    The healthy run (half capacity, no chaos) measures sustained wall
    throughput and virtual P50/P99 of a service that never sheds.  The
    overload run (twice capacity, chaos plan active) measures graceful
    degradation: typed rejections, shed rate, and the admitted-P99 bound.
    Both runs hard-check bit-parity of every served answer against a
    direct ``estimate_reach_matrix`` call on a fresh API.
    """

    def modern_api() -> AdsManagerAPI:
        return AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )

    config = ServiceConfig(
        tenant_requests_per_minute=6_000.0,
        tenant_burst=200,
        max_queue_cells=256,
        max_batch_cells=SERVICE_BATCH_CELLS,
        tick_seconds=SERVICE_TICK_SECONDS,
        default_timeout_seconds=10.0,
    )
    capacity_rps = SERVICE_BATCH_CELLS / SERVICE_TICK_SECONDS / SERVICE_MEAN_COST

    def run(load: float, faults: FaultPlan | None):
        service = ReachService(modern_api(), config=config, faults=faults)
        trace = RequestTrace.generate(
            simulation.catalog,
            seed=20211102,
            duration_seconds=SERVICE_TRACE_SECONDS,
            requests_per_second=load * capacity_rps,
            tenants=4,
        )
        start = time.perf_counter()
        report = run_trace(service, trace)
        wall = time.perf_counter() - start
        summary = report.summary()
        served = len(report.completed)
        digest = {
            "load_factor": load,
            "requests": summary["responses"],
            "served": served,
            "wall_seconds": wall,
            "wall_qps": served / wall if wall > 0 else float("inf"),
            "virtual_qps": summary["virtual_qps"],
            "shed_rate": summary["shed_rate"],
            "status_counts": summary["status_counts"],
            "latency_p50_seconds": summary["latency_p50_seconds"],
            "latency_p99_seconds": summary["latency_p99_seconds"],
        }
        parity_ok = not report.parity_failures(modern_api())
        return digest, parity_ok

    healthy, healthy_parity = run(0.5, None)
    print(
        f"  {'healthy (0.5x capacity)':<38s} {healthy['wall_seconds'] * 1000.0:10.1f} ms"
    )
    print(
        f"    served {healthy['served']}/{healthy['requests']}  "
        f"wall qps {healthy['wall_qps']:.0f}  "
        f"p50 {healthy['latency_p50_seconds']:g}s  "
        f"p99 {healthy['latency_p99_seconds']:g}s"
    )
    overload, overload_parity = run(2.0, SERVICE_CHAOS)
    print(
        f"  {'overload (2x capacity + chaos)':<38s} "
        f"{overload['wall_seconds'] * 1000.0:10.1f} ms"
    )
    print(
        f"    served {overload['served']}/{overload['requests']}  "
        f"shed rate {overload['shed_rate']:.3f}  "
        f"admitted p99 {overload['latency_p99_seconds']:g}s"
    )
    sheds_typed = overload["shed_rate"] > 0.0 and all(
        status in (
            "ok", "invalid", "throttled", "overloaded",
            "deadline_exceeded", "circuit_open", "failed",
        )
        for status in overload["status_counts"]
    )
    print(f"  served answers bit-identical to direct calls: "
          f"{healthy_parity and overload_parity}")
    print(f"  typed shedding under overload: {sheds_typed}")
    return {
        "capacity_rps": capacity_rps,
        "config": config.describe(),
        "chaos": SERVICE_CHAOS.describe(),
        "healthy": healthy,
        "overload": overload,
        "parity": {
            "service_parity": healthy_parity,
            "service_chaos_parity": overload_parity,
            "service_sheds_typed_under_overload": sheds_typed,
        },
    }


#: Scale-stage defaults: panellist count for the columnar build stage and
#: the (small) overlap scale where object-vs-columnar parity is pinned.
SCALE_USERS = 50_000
QUICK_SCALE_USERS = 5_000
SCALE_PARITY_USERS = 1_000
SCALE_BOOTSTRAP = 50
SCALE_SEED = 20211102

#: Row count for the assignment-rate stage.  The per-user reference loop
#: runs at a few thousand users/s, so the stage is capped rather than
#: scaled with ``--scale-users`` (the kernel's gain is row-count
#: independent once past a few hundred rows).
ASSIGN_RATE_USERS = 5_000


def _assignment_stage(config, catalog) -> dict:
    """Assignment-rate stage: batched kernel vs the per-user reference loop.

    Times :func:`~repro.population.generation.run_interest_shard` (the
    batched ``assign_rows`` kernel) against the oracle
    ``oracles.run_interest_shard_reference`` (the per-user ``assign``
    loop) on one panel-shaped shard —
    jittered per-row biases, per-row age draws, preferred-topic draws —
    and hard-checks the outputs bit-identical.  ``--min-assign-rate`` /
    ``--min-assign-gain`` gate the kernel's users/s and its speedup.
    """
    n_rows = ASSIGN_RATE_USERS
    print(f"interest assignment ({n_rows:,} panel rows, batched kernel vs loop):")
    assigner = InterestAssigner(catalog)
    counts = InterestCountModel(
        median=config.panel.median_interests_per_user,
        log10_sigma=config.panel.interests_log10_sigma,
        minimum=config.panel.min_interests_per_user,
        maximum=config.panel.max_interests_per_user,
    ).clipped_to_catalog(len(catalog)).sample(
        n_rows, derive_generator(SCALE_SEED, "panel-interest-counts")
    )
    stage_rng = np.random.default_rng(SCALE_SEED)
    age_group_index = stage_rng.integers(
        0, len(AGE_GROUP_TABLE), size=n_rows
    ).astype(np.int16)
    base_bias = np.full(n_rows, 0.5, dtype=np.float64)

    def make_task(stop: int) -> InterestShardTask:
        return InterestShardTask(
            assigner=assigner,
            base_seed=SCALE_SEED,
            seed_key="panel-user",
            start=0,
            stop=stop,
            counts=counts[:stop],
            topics_per_user=3,
            age_group_index=age_group_index[:stop],
            base_bias=base_bias[:stop],
            bias_jitter=float(config.panel.popularity_bias_jitter),
        )

    # Warm the per-bias derived tables so neither side pays first-call
    # table builds inside its timed run.
    run_interest_shard(make_task(min(200, n_rows)))
    oracles.run_interest_shard_reference(make_task(min(200, n_rows)))

    # Interleaved best-of-3: the ~3-4x margin is real but single-shot
    # timings of the two sides drift enough on shared runners to flirt
    # with the 3x gate.
    outputs: dict[str, tuple] = {}

    def reference_run():
        outputs["reference"] = oracles.run_interest_shard_reference(make_task(n_rows))

    def kernel_run():
        outputs["kernel"] = run_interest_shard(make_task(n_rows))

    reference_s, kernel_s, _ = _paired_best(3, reference_run, kernel_run)
    reference_out = outputs["reference"]
    kernel_out = outputs["kernel"]
    print(f"  {'per-user reference loop (best of 3)':<38s} {reference_s * 1000.0:10.1f} ms")
    print(f"  {'batched assign_rows kernel (best of 3)':<38s} {kernel_s * 1000.0:10.1f} ms")
    assign_parity = bool(
        np.array_equal(reference_out[0], kernel_out[0])
        and np.array_equal(reference_out[1], kernel_out[1])
        and np.array_equal(reference_out[2], kernel_out[2])
    )
    reference_rate = n_rows / reference_s if reference_s > 0 else float("inf")
    kernel_rate = n_rows / kernel_s if kernel_s > 0 else float("inf")
    assign_gain = reference_s / kernel_s if kernel_s > 0 else float("inf")
    print(
        f"  assignment rate: {reference_rate:,.0f} -> {kernel_rate:,.0f} "
        f"users/s ({assign_gain:.2f}x)"
    )
    print(f"  shard outputs bit-identical: {assign_parity}")
    return {
        "rows": n_rows,
        "interests_assigned": int(kernel_out[1].sum()),
        "reference_seconds": reference_s,
        "kernel_seconds": kernel_s,
        "reference_rate_users_per_s": reference_rate,
        "kernel_rate_users_per_s": kernel_rate,
        "assign_gain": assign_gain,
        "parity": {"assignment_kernel_bit_identical": assign_parity},
    }


def _scale_config(scale_users: int):
    """A scale-stage config: small catalog, ``scale_users`` panellists.

    The interest distribution is capped (median 20, max 200) so the stage
    measures the columnar machinery at row scale rather than the raw
    per-interest assignment cost; the CSR store then holds ~20 ids/user
    (the memory model's dominant term at a few bytes per occurrence).
    """
    config = quick_config(factor=QUICK_SCALE_FACTOR).with_panel_users(scale_users)
    return replace(
        config,
        panel=replace(
            config.panel,
            median_interests_per_user=20.0,
            max_interests_per_user=200,
        ),
    )


def _scale_stage(scale_users: int, parity_users: int) -> dict:
    """Columnar million-user path: build rate, peak memory, end-to-end stream.

    Builds ``scale_users`` panellists straight into the CSR column store
    (sharded generation on a thread pool), collects the full users x 25
    matrix shard-by-shard, and bootstraps off the streamed accumulator —
    the end-to-end chain the columnar store keeps inside a bounded
    footprint.  Parity against the oracle-built object panel is pinned at
    ``parity_users`` (building an object panel of the scale size would
    defeat the point of the stage).
    """
    print(
        f"columnar scale stage ({scale_users:,} users, "
        f"parity at {parity_users:,}):"
    )
    config = _scale_config(scale_users)
    catalog = build_catalog(config, seed=SCALE_SEED)
    executor = ShardExecutor(backend="thread", workers=SHARD_WORKERS)

    assignment = _assignment_stage(config, catalog)

    tracemalloc.start()
    build_s, panel = _timed(
        "columnar panel build (sharded)",
        lambda: build_panel(
            config, seed=SCALE_SEED, catalog=catalog, executor=executor
        ),
    )
    build_rate = scale_users / build_s if build_s > 0 else float("inf")
    print(f"  build rate: {build_rate:,.0f} users/s")

    locations = country_codes()
    simulation = assemble_simulation(config, catalog, panel, seed=SCALE_SEED)
    strategy = LeastPopularSelection()
    collector = AudienceSizeCollector(
        simulation.uniqueness_api, panel, max_interests=25, locations=locations
    )
    collect_s, _ = _timed(
        "collect (thread pool)",
        lambda: collector.collect(strategy, executor=executor),
    )
    stream_collector = AudienceSizeCollector(
        AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.legacy_2017(),
            clock=SimClock(),
        ),
        panel,
        max_interests=25,
        locations=locations,
    )
    stream_s, streamed_store = _timed(
        "collect_stream + accumulator",
        lambda: drain(
            stream_collector.collect_stream(strategy, executor=executor),
            AudienceAccumulator(),
        ),
    )
    bootstrap_s, _ = _timed(
        "bootstrap off the column store",
        lambda: bootstrap_cutpoints(
            streamed_store, QUANTILES, n_bootstrap=SCALE_BOOTSTRAP, seed=7
        ),
    )
    _, tracemalloc_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # ru_maxrss is the process-lifetime peak (KB on Linux) — the stage's
    # scale dwarfs the smoke stages before it, so it bounds this chain.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc_peak_mb = tracemalloc_peak / (1024.0 * 1024.0)
    nbytes_mb = panel.columns.nbytes / (1024.0 * 1024.0)
    print(
        f"  CSR store {nbytes_mb:.1f} MB, tracemalloc peak "
        f"{tracemalloc_peak_mb:.1f} MB, process peak RSS {peak_rss_mb:.1f} MB"
    )

    parity_config = _scale_config(parity_users)
    parity_executor = ShardExecutor(backend="thread", workers=2, shard_size=97)
    parity_catalog = build_catalog(parity_config, seed=SCALE_SEED)
    object_panel = oracles.reference_build_panel(
        parity_config, seed=SCALE_SEED, catalog=parity_catalog
    )
    columnar_panel = build_panel(
        parity_config,
        seed=SCALE_SEED,
        catalog=parity_catalog,
        executor=parity_executor,
    )
    users_identical = object_panel.users == columnar_panel.users
    parity_sim = assemble_simulation(
        parity_config, parity_catalog, columnar_panel, seed=SCALE_SEED
    )
    object_samples = oracles.fused_collect(
        AdsManagerAPI(
            parity_sim.reach_model,
            platform=PlatformConfig.legacy_2017(),
            clock=SimClock(),
        ),
        object_panel,
        strategy,
        max_interests=25,
        locations=locations,
    )
    columnar_samples = AudienceSizeCollector(
        parity_sim.uniqueness_api,
        columnar_panel,
        max_interests=25,
        locations=locations,
    ).collect(strategy)
    parity_ok = bool(
        users_identical
        and np.array_equal(
            object_samples.matrix, columnar_samples.matrix, equal_nan=True
        )
        and object_samples.user_ids == columnar_samples.user_ids
    )
    print(f"  oracle-vs-columnar parity at overlap scale: {parity_ok}")

    return {
        "users": scale_users,
        "parity_users": parity_users,
        "median_interests": config.panel.median_interests_per_user,
        "nnz": panel.columns.nnz,
        "csr_store_mb": nbytes_mb,
        "build_seconds": build_s,
        "build_rate_users_per_s": build_rate,
        "collect_sharded_seconds": collect_s,
        "stream_collect_seconds": stream_s,
        "stream_bootstrap_seconds": bootstrap_s,
        "tracemalloc_peak_mb": tracemalloc_peak_mb,
        "peak_rss_mb": peak_rss_mb,
        "assignment": {
            key: value for key, value in assignment.items() if key != "parity"
        },
        "parity": {
            "scale_columnar_parity": parity_ok,
            **assignment["parity"],
        },
    }


def run_benchmark(factor: int, n_bootstrap: int, shard_tiles: int) -> dict:
    simulation = build_simulation(quick_config(factor=factor))
    locations = country_codes()
    strategy = RandomSelection(seed=20211102)

    def fresh_api() -> AdsManagerAPI:
        return AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.legacy_2017(),
            clock=SimClock(),
        )

    def fresh_collector() -> AudienceSizeCollector:
        return AudienceSizeCollector(
            fresh_api(), simulation.panel, max_interests=25, locations=locations
        )

    print(
        f"panel={len(simulation.panel)} users, catalog={len(simulation.catalog)} "
        f"interests, bootstrap={n_bootstrap} replicates"
    )

    oracle_kwargs = dict(max_interests=25, locations=locations)
    print("collection (users x 25 prefix audiences):")
    panel_collect_s, panel_samples = _timed(
        "panel (collect: shard engine)",
        lambda: fresh_collector().collect(strategy),
    )
    batch_collect_s, batch_samples = _timed(
        "batched oracle (one query per user)",
        lambda: oracles.batched_collect(
            fresh_api(), simulation.panel, strategy, **oracle_kwargs
        ),
    )
    scalar_collect_s, scalar_samples = _timed(
        "scalar oracle (one call per cell)",
        lambda: oracles.scalar_collect(
            fresh_api(), simulation.panel, strategy, **oracle_kwargs
        ),
    )
    collection_identical = bool(
        np.array_equal(batch_samples.matrix, scalar_samples.matrix, equal_nan=True)
        and np.array_equal(panel_samples.matrix, batch_samples.matrix, equal_nan=True)
    )
    print(f"  matrices bit-identical: {collection_identical}")

    big_panel = _tiled_panel(simulation.panel, shard_tiles)
    shard_size = max(64, len(big_panel) // 16)
    executor = ShardExecutor(
        backend="thread", workers=SHARD_WORKERS, shard_size=shard_size
    )
    print(
        f"sharded collection ({len(big_panel)} tiled users, "
        f"{executor.describe()}):"
    )

    def big_collector() -> AudienceSizeCollector:
        return AudienceSizeCollector(
            fresh_api(), big_panel, max_interests=25, locations=locations
        )

    lp_strategy = LeastPopularSelection()
    one_shard = ShardExecutor(shard_size=len(big_panel))
    fused_collect_s, fused_samples = _timed(
        "fused (one-shard plan)",
        lambda: big_collector().collect(lp_strategy, executor=one_shard),
    )
    sharded_collect_s, sharded_samples = _timed(
        "sharded (multi-worker shard plan)",
        lambda: big_collector().collect(lp_strategy, executor=executor),
    )
    sharded_identical = bool(
        np.array_equal(sharded_samples.matrix, fused_samples.matrix, equal_nan=True)
    )
    shard_gain = fused_collect_s / sharded_collect_s if sharded_collect_s else float("inf")
    print(f"  matrices bit-identical: {sharded_identical}")
    print(f"  multi-worker vs one-shard plan: {shard_gain:.2f}x")

    # The fault layer must be free when nothing fires: same sharded pass,
    # but with the retry/injection plumbing engaged via an all-zero plan.
    guarded_executor = ShardExecutor(
        backend="thread",
        workers=SHARD_WORKERS,
        shard_size=shard_size,
        retry=RetryPolicy(max_attempts=3),
        faults=FaultPlan(seed=20211102),
    )
    print("fault-tolerance layer (retry + zero-rate plan, sharded path):")
    plain_shard_s, guarded_shard_s, guarded_samples = _paired_best(
        5,
        lambda: big_collector().collect(lp_strategy, executor=executor),
        lambda: big_collector().collect(lp_strategy, executor=guarded_executor),
    )
    print(f"  {'plain sharded (best of 5)':<38s} {plain_shard_s * 1000.0:10.1f} ms")
    print(
        f"  {'guarded sharded (best of 5)':<38s} {guarded_shard_s * 1000.0:10.1f} ms"
    )
    fault_overhead = (
        guarded_shard_s / plain_shard_s - 1.0 if plain_shard_s else 0.0
    )
    fault_identical = bool(
        np.array_equal(guarded_samples.matrix, fused_samples.matrix, equal_nan=True)
    )
    print(f"  matrices bit-identical: {fault_identical}")
    print(f"  fault-layer overhead: {fault_overhead:+.1%} when no faults fire")
    del big_panel, fused_samples, sharded_samples, guarded_samples

    print("streaming estimate (blocks -> accumulator -> bootstrap):")
    stream_collect_s, streamed_store = _timed(
        "collect_stream + accumulator",
        lambda: drain(
            AudienceSizeCollector(
                fresh_api(), simulation.panel, max_interests=25, locations=locations
            ).collect_stream(strategy),
            AudienceAccumulator(),
        ),
    )
    stream_bootstrap_s, streamed_cutpoints = _timed(
        "bootstrap off the column store",
        lambda: bootstrap_cutpoints(
            streamed_store, QUANTILES, n_bootstrap=n_bootstrap, seed=7
        ),
    )
    stream_identical = bool(
        np.array_equal(
            streamed_store.to_samples().matrix, panel_samples.matrix, equal_nan=True
        )
    )
    print(f"  streamed samples bit-identical: {stream_identical}")

    print(f"FDVT risk reports ({RISK_REPORT_USERS} users, deduped interests):")
    risk_users = list(simulation.panel)[:RISK_REPORT_USERS]
    batched_extension = FDVTExtension(fresh_api(), simulation.catalog)
    risk_batch_s, batched_reports = _timed(
        "batched (one query per unique interest)",
        lambda: batched_extension.build_risk_reports(risk_users),
    )
    scalar_extension = FDVTExtension(fresh_api(), simulation.catalog)
    risk_scalar_s, scalar_reports = _timed(
        "scalar (one query per occurrence)",
        lambda: [scalar_extension.build_risk_report(user) for user in risk_users],
    )
    risk_identical = list(batched_reports) == list(scalar_reports)
    print(f"  reports identical: {risk_identical}")

    print("bootstrap cutpoints:")
    vector_bootstrap_s, vector_cutpoints = _timed(
        "vectorised (fit_vas_many, chunked)",
        lambda: bootstrap_cutpoints(
            panel_samples, QUANTILES, n_bootstrap=n_bootstrap, seed=7
        ),
    )
    scalar_bootstrap_s, scalar_cutpoints = _timed(
        "scalar reference (per-replicate loop)",
        lambda: _scalar_bootstrap_reference(
            panel_samples, QUANTILES, n_bootstrap, seed=7
        ),
    )
    bootstrap_identical = all(
        np.array_equal(vector_cutpoints[q], scalar_cutpoints[q], equal_nan=True)
        for q in QUANTILES
    )
    print(f"  cutpoint distributions bit-identical: {bootstrap_identical}")
    streamed_bootstrap_identical = all(
        np.array_equal(vector_cutpoints[q], streamed_cutpoints[q], equal_nan=True)
        for q in QUANTILES
    )
    print(
        f"  streamed cutpoint distributions bit-identical: "
        f"{streamed_bootstrap_identical}"
    )

    print("scenario sweep (8-spec grid vs hand-wired studies):")
    sweep_bootstrap = min(n_bootstrap, 100)
    base_spec = ScenarioSpec(
        name="bench-uniqueness",
        study="uniqueness",
        factor=factor,
        probabilities=(0.9,),
        n_bootstrap=sweep_bootstrap,
    )
    grid = expand_grid(
        base_spec,
        {"seed": [1, 2, 3, 4], "strategies": [("least_popular",), ("random",)]},
    )

    def hand_wired_grid() -> dict[str, float]:
        """The same eight studies, wired by hand (the pre-scenario style)."""
        values: dict[str, float] = {}
        for spec in grid:
            grid_simulation = build_simulation(spec.config(), seed=spec.seed)
            model = grid_simulation.uniqueness_model()
            least_popular, random_selection = grid_simulation.strategies()
            chosen = (
                least_popular
                if spec.strategies == ("least_popular",)
                else random_selection
            )
            report = model.estimate(chosen, probabilities=(0.9,))
            values[spec.name] = report.estimates[0.9].n_p
        return values

    handwired_sweep_s, handwired_values = _timed(
        "hand-wired (direct model calls)", hand_wired_grid
    )
    # share_builds off: this stage measures pure orchestration overhead
    # against hand-wired runs that each build their own simulation.
    scenario_sweep_s, sweep_results = _timed(
        "SweepRunner (scenario layer)",
        lambda: SweepRunner(share_builds=False).run(grid),
    )
    scenario_overhead = scenario_sweep_s / handwired_sweep_s - 1.0
    sweep_identical = bool(
        len(sweep_results) == len(grid)
        and all(
            sweep_results.get(spec.name).metric(f"{spec.strategies[0]}:n_p@0.9")
            == handwired_values[spec.name]
            for spec in grid
        )
    )
    print(f"  sweep results bit-identical: {sweep_identical}")
    print(f"  orchestration overhead: {scenario_overhead:+.1%} per sweep")

    print("sweep build cache (8-row analysis-knob-only grid):")
    cache_grid = expand_grid(
        ScenarioSpec(
            name="bench-cache",
            study="uniqueness",
            factor=factor,
            seed=20211102,
            n_bootstrap=sweep_bootstrap,
        ),
        {
            "strategies": [("least_popular",), ("random",)],
            "probabilities": [(0.5,), (0.8,), (0.9,), (0.5, 0.9)],
        },
    )
    uncached_sweep_s, uncached_results = _timed(
        "uncached (one build per grid row)",
        lambda: SweepRunner(share_builds=False).run(cache_grid),
    )
    build_cache().clear()
    cached_sweep_s, cached_results = _timed(
        "cached (fingerprint-shared builds)", lambda: SweepRunner().run(cache_grid)
    )
    cache_info = build_cache().cache_info()
    sweep_cache_gain = (
        uncached_sweep_s / cached_sweep_s if cached_sweep_s else float("inf")
    )
    sweep_cache_identical = bool(cached_results == uncached_results)
    # One catalog + one panel fetched from outside memory for the whole
    # grid = built (or disk-hydrated, when REPRO_CACHE_ROOT points the
    # process cache at a warmed root) exactly once.
    sweep_cache_built_once = bool(cache_info.misses + cache_info.disk_hits == 2)
    print(f"  results bit-identical: {sweep_cache_identical}")
    print(
        f"  catalog+panel built once: {sweep_cache_built_once} "
        f"(misses={cache_info.misses}, disk_hits={cache_info.disk_hits}, "
        f"hits={cache_info.hits})"
    )
    print(f"  shared-build speedup: {sweep_cache_gain:.2f}x")

    print("cold start (disk-hydrated panel load vs rebuild):")
    cold_config = quick_config(factor=factor)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        disk = DiskCache(Path(tmp))

        def rebuild() -> FDVTPanel:
            fresh = BuildCache()
            catalog = build_catalog(cold_config, seed=20211102, cache=fresh)
            return build_panel(
                cold_config, seed=20211102, catalog=catalog, cache=fresh
            )

        rebuild_s, rebuilt_panel = _timed("rebuild (cold, no disk tier)", rebuild)

        warm = BuildCache(disk=disk)
        warm_catalog = build_catalog(cold_config, seed=20211102, cache=warm)
        build_panel(
            cold_config, seed=20211102, catalog=warm_catalog, cache=warm
        )
        if warm.cache_info().disk_store_errors:
            raise RuntimeError("cold-start stage failed to publish artifacts")

        def hydrate() -> tuple[FDVTPanel, object]:
            cold = BuildCache(disk=disk)
            catalog = build_catalog(cold_config, seed=20211102, cache=cold)
            panel = build_panel(
                cold_config, seed=20211102, catalog=catalog, cache=cold
            )
            return panel, cold.cache_info()

        cold_load_s, (hydrated_panel, cold_info) = _timed(
            "load (fresh process, warmed disk)", hydrate
        )
        cold_start_identical = bool(
            cold_info.disk_hits == 2
            and cold_info.misses == 0
            and hydrated_panel.columns.content_equals(rebuilt_panel.columns)
            and hydrated_panel.catalog.to_dicts() == rebuilt_panel.catalog.to_dicts()
        )
    cache_load_gain = rebuild_s / cold_load_s if cold_load_s else float("inf")
    print(f"  disk-hydrated panel bit-identical: {cold_start_identical}")
    print(f"  load-vs-rebuild gain: {cache_load_gain:.2f}x")

    print("reach service (admission, coalescing, overload):")
    service_stage = _service_stage(simulation)

    print("end-to-end estimation (collect cached):")
    model = UniquenessModel(
        fresh_api(),
        simulation.panel,
        UniquenessConfig(n_bootstrap=n_bootstrap, seed=20211102),
        locations=locations,
    )
    estimate_s, report = _timed(
        "UniquenessModel.estimate",
        lambda: model.estimate(strategy, samples=panel_samples),
    )

    batched_total = panel_collect_s + vector_bootstrap_s
    scalar_total = scalar_collect_s + scalar_bootstrap_s
    speedup = scalar_total / batched_total if batched_total > 0 else float("inf")
    print(
        f"collect+bootstrap: scalar oracle {scalar_total:.3f}s vs collect "
        f"{batched_total:.3f}s -> {speedup:.1f}x speedup"
    )
    panel_vs_batch = (
        batch_collect_s / panel_collect_s if panel_collect_s > 0 else float("inf")
    )
    print(
        f"collect vs per-user batched oracle: {panel_vs_batch:.1f}x "
        f"({batch_collect_s * 1000.0:.0f} ms -> {panel_collect_s * 1000.0:.0f} ms)"
    )

    stream_total = stream_collect_s + stream_bootstrap_s
    panel_total = panel_collect_s + vector_bootstrap_s
    print(
        f"streaming collect+bootstrap: {stream_total:.3f}s vs materialised "
        f"{panel_total:.3f}s ({panel_total / stream_total:.2f}x)"
    )

    return {
        "scale_factor": factor,
        "n_users": len(simulation.panel),
        "n_interests_catalog": len(simulation.catalog),
        "max_interests": 25,
        "n_bootstrap": n_bootstrap,
        "n_risk_report_users": len(risk_users),
        "n_tiled_users": len(simulation.panel) * shard_tiles,
        "n_sweep_scenarios": len(grid),
        "shard_executor": executor.describe(),
        "timings_seconds": {
            "collect_panel": panel_collect_s,
            "collect_batched": batch_collect_s,
            "collect_scalar": scalar_collect_s,
            "collect_fused_tiled": fused_collect_s,
            "collect_sharded_tiled": sharded_collect_s,
            "collect_sharded_plain_best": plain_shard_s,
            "collect_sharded_guarded_best": guarded_shard_s,
            "stream_collect": stream_collect_s,
            "bootstrap_streamed": stream_bootstrap_s,
            "risk_reports_batched": risk_batch_s,
            "risk_reports_scalar": risk_scalar_s,
            "bootstrap_vectorised": vector_bootstrap_s,
            "bootstrap_scalar_reference": scalar_bootstrap_s,
            "scenario_sweep": scenario_sweep_s,
            "scenario_handwired": handwired_sweep_s,
            "sweep_cache_uncached": uncached_sweep_s,
            "sweep_cache_cached": cached_sweep_s,
            "cold_start_rebuild": rebuild_s,
            "cold_start_disk_load": cold_load_s,
            "service_healthy_run": service_stage["healthy"]["wall_seconds"],
            "service_overload_run": service_stage["overload"]["wall_seconds"],
            "estimate": estimate_s,
        },
        "service": {
            key: value
            for key, value in service_stage.items()
            if key != "parity"
        },
        "speedups": {
            "collect": scalar_collect_s / panel_collect_s,
            "collect_panel_vs_batched": panel_vs_batch,
            "collect_sharded_vs_fused": shard_gain,
            "stream_vs_materialised": panel_total / stream_total,
            "risk_reports": risk_scalar_s / risk_batch_s,
            "bootstrap": scalar_bootstrap_s / vector_bootstrap_s,
            "collect_plus_bootstrap": speedup,
            "scenario_overhead": scenario_overhead,
            "sweep_cache_gain": sweep_cache_gain,
            "cache_load_gain": cache_load_gain,
            "fault_overhead": fault_overhead,
        },
        "parity": {
            "collection_bit_identical": collection_identical,
            "sharded_bit_identical": sharded_identical,
            "fault_layer_bit_identical": fault_identical,
            "stream_bit_identical": stream_identical,
            "streamed_bootstrap_bit_identical": streamed_bootstrap_identical,
            "risk_reports_identical": risk_identical,
            "bootstrap_bit_identical": bootstrap_identical,
            "scenario_sweep_identical": sweep_identical,
            "sweep_cache_identical": sweep_cache_identical,
            "sweep_cache_built_once": sweep_cache_built_once,
            "cold_start_bit_identical": cold_start_identical,
            **service_stage["parity"],
        },
        "sample_cutpoints": {
            str(probability): estimate.n_p
            for probability, estimate in report.estimates.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale (small panel, few replicates)",
    )
    parser.add_argument("--factor", type=int, default=None, help="scale divisor")
    parser.add_argument(
        "--bootstrap", type=int, default=None, help="bootstrap replicates"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_perf.json",
        help="trajectory JSON file to append to",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero unless collect+bootstrap speedup reaches this",
    )
    parser.add_argument(
        "--min-panel-gain",
        type=float,
        default=None,
        help="exit non-zero unless collect beats the per-user batched oracle "
        "by this factor on the collect stage",
    )
    parser.add_argument(
        "--min-shard-gain",
        type=float,
        default=None,
        help="exit non-zero unless multi-worker sharded collection beats "
        "a one-shard (fused) collect by this factor on the tiled panel",
    )
    parser.add_argument(
        "--shard-tiles",
        type=int,
        default=None,
        help="panel tiling factor for the sharded-collection stage",
    )
    parser.add_argument(
        "--max-fault-overhead",
        type=float,
        default=None,
        help="exit non-zero when the fault-tolerance layer (retry policy + "
        "zero-rate fault plan) costs more than this fraction on the sharded "
        "collect when no faults fire",
    )
    parser.add_argument(
        "--min-service-qps",
        type=float,
        default=None,
        help="exit non-zero unless the reach service sustains this wall-clock "
        "qps on the healthy (half-capacity) trace",
    )
    parser.add_argument(
        "--max-service-p99",
        type=float,
        default=None,
        help="exit non-zero when the admitted-request P99 (virtual seconds) "
        "under the 2x-overload trace exceeds this bound",
    )
    parser.add_argument(
        "--max-scenario-overhead",
        type=float,
        default=None,
        help="exit non-zero when the scenario layer's per-sweep orchestration "
        "overhead (sweep time / hand-wired time - 1) exceeds this fraction",
    )
    parser.add_argument(
        "--min-sweep-cache-gain",
        type=float,
        default=None,
        help="exit non-zero unless the fingerprint-shared build cache beats "
        "the uncached sweep by this factor on the analysis-knob-only grid",
    )
    parser.add_argument(
        "--min-cache-load-gain",
        type=float,
        default=None,
        help="exit non-zero unless hydrating the panel from the disk-backed "
        "artifact store beats rebuilding it from scratch by this factor on "
        "the cold-start stage",
    )
    parser.add_argument(
        "--scale-users",
        type=int,
        default=None,
        help="panellist count for the columnar scale stage "
        "(1000000 is the million-user acceptance run)",
    )
    parser.add_argument(
        "--min-build-rate",
        type=float,
        default=None,
        help="exit non-zero unless the columnar panel build sustains this "
        "many users/s on the scale stage",
    )
    parser.add_argument(
        "--max-scale-rss-mb",
        type=float,
        default=None,
        help="exit non-zero when the process peak RSS after the scale "
        "stage's build->collect->bootstrap chain exceeds this many MB",
    )
    parser.add_argument(
        "--min-assign-rate",
        type=float,
        default=None,
        help="exit non-zero unless the batched assign_rows kernel sustains "
        "this many users/s on the assignment-rate stage",
    )
    parser.add_argument(
        "--min-assign-gain",
        type=float,
        default=None,
        help="exit non-zero unless the batched assign_rows kernel beats the "
        "oracle's per-user loop by this factor on the assignment-rate stage",
    )
    args = parser.parse_args()

    factor = args.factor or (QUICK_SCALE_FACTOR if args.quick else BENCH_SCALE_FACTOR)
    n_bootstrap = args.bootstrap or (100 if args.quick else 2_000)
    shard_tiles = args.shard_tiles or (
        QUICK_SHARD_TILES if args.quick else SHARD_TILES
    )

    scale_users = args.scale_users or (
        QUICK_SCALE_USERS if args.quick else SCALE_USERS
    )

    record = run_benchmark(factor, n_bootstrap, shard_tiles)
    scale = _scale_stage(scale_users, min(SCALE_PARITY_USERS, scale_users))
    record["scale"] = {
        key: value for key, value in scale.items() if key != "parity"
    }
    record["parity"].update(scale["parity"])
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    record["python"] = platform.python_version()
    record["numpy"] = np.__version__

    trajectory: list[dict] = []
    if args.output.exists():
        try:
            existing = json.loads(args.output.read_text())
            trajectory = existing if isinstance(existing, list) else [existing]
        except (ValueError, OSError):
            trajectory = []
    trajectory.append(record)
    args.output.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = False
    if args.min_speedup is not None:
        achieved = record["speedups"]["collect_plus_bootstrap"]
        if achieved < args.min_speedup:
            print(f"FAIL: speedup {achieved:.1f}x < required {args.min_speedup:.1f}x")
            failed = True
    if args.min_panel_gain is not None:
        achieved = record["speedups"]["collect_panel_vs_batched"]
        if achieved < args.min_panel_gain:
            print(
                f"FAIL: panel-vs-batched gain {achieved:.1f}x < required "
                f"{args.min_panel_gain:.1f}x"
            )
            failed = True
    if args.min_shard_gain is not None:
        achieved = record["speedups"]["collect_sharded_vs_fused"]
        if achieved < args.min_shard_gain:
            print(
                f"FAIL: sharded-vs-fused gain {achieved:.2f}x < required "
                f"{args.min_shard_gain:.2f}x"
            )
            failed = True
    if args.min_sweep_cache_gain is not None:
        achieved = record["speedups"]["sweep_cache_gain"]
        if achieved < args.min_sweep_cache_gain:
            print(
                f"FAIL: sweep-cache gain {achieved:.2f}x < required "
                f"{args.min_sweep_cache_gain:.2f}x"
            )
            failed = True
    if args.min_cache_load_gain is not None:
        achieved = record["speedups"]["cache_load_gain"]
        if achieved < args.min_cache_load_gain:
            print(
                f"FAIL: cache load-vs-rebuild gain {achieved:.2f}x < required "
                f"{args.min_cache_load_gain:.2f}x"
            )
            failed = True
    if args.max_fault_overhead is not None:
        achieved = record["speedups"]["fault_overhead"]
        if achieved > args.max_fault_overhead:
            print(
                f"FAIL: fault-layer overhead {achieved:+.1%} > allowed "
                f"{args.max_fault_overhead:+.1%}"
            )
            failed = True
    if args.min_service_qps is not None:
        achieved = record["service"]["healthy"]["wall_qps"]
        if achieved < args.min_service_qps:
            print(
                f"FAIL: service wall qps {achieved:.0f} < required "
                f"{args.min_service_qps:.0f}"
            )
            failed = True
    if args.max_service_p99 is not None:
        achieved = record["service"]["overload"]["latency_p99_seconds"]
        if achieved > args.max_service_p99:
            print(
                f"FAIL: service admitted P99 {achieved:g}s under 2x overload "
                f"> allowed {args.max_service_p99:g}s"
            )
            failed = True
    if args.min_build_rate is not None:
        achieved = record["scale"]["build_rate_users_per_s"]
        if achieved < args.min_build_rate:
            print(
                f"FAIL: columnar build rate {achieved:,.0f} users/s < required "
                f"{args.min_build_rate:,.0f} users/s"
            )
            failed = True
    if args.min_assign_rate is not None:
        achieved = record["scale"]["assignment"]["kernel_rate_users_per_s"]
        if achieved < args.min_assign_rate:
            print(
                f"FAIL: assignment rate {achieved:,.0f} users/s < required "
                f"{args.min_assign_rate:,.0f} users/s"
            )
            failed = True
    if args.min_assign_gain is not None:
        achieved = record["scale"]["assignment"]["assign_gain"]
        if achieved < args.min_assign_gain:
            print(
                f"FAIL: assignment kernel gain {achieved:.2f}x < required "
                f"{args.min_assign_gain:.2f}x"
            )
            failed = True
    if args.max_scale_rss_mb is not None:
        achieved = record["scale"]["peak_rss_mb"]
        if achieved > args.max_scale_rss_mb:
            print(
                f"FAIL: scale-stage peak RSS {achieved:.0f} MB > allowed "
                f"{args.max_scale_rss_mb:.0f} MB"
            )
            failed = True
    if args.max_scenario_overhead is not None:
        achieved = record["speedups"]["scenario_overhead"]
        if achieved > args.max_scenario_overhead:
            print(
                f"FAIL: scenario overhead {achieved:+.1%} > allowed "
                f"{args.max_scenario_overhead:+.1%}"
            )
            failed = True
    if not all(record["parity"].values()):
        print(f"FAIL: parity check failed: {record['parity']}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
