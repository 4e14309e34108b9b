"""Sharded, streaming execution layer for panel-scale measurements.

The heavy stages of the reproduction — the users × 25 Potential Reach sweep
and everything downstream of it — are embarrassingly row-parallel: every
panel user's prefix family is independent of every other user's.  This
package turns that observation into an explicit execution layer, shaped
like a staged pipeline (plans → shards → sinks) instead of monolithic
collect calls:

* :class:`~repro.exec.plan.ExecutionPlan` partitions a panel into
  contiguous row :class:`~repro.exec.plan.Shard`\\ s;
* :class:`~repro.exec.runner.ShardRunner` backends execute the per-shard
  work — :class:`~repro.exec.runner.SerialRunner` in the calling thread,
  :class:`~repro.exec.runner.ThreadRunner` on a thread pool,
  :class:`~repro.exec.runner.ProcessRunner` on a process pool (shard tasks
  carry a :class:`~repro.reach.ReachModelSpec` instead of the live model so
  they stay picklable and workers rebuild the model from config + seed);
* :class:`~repro.exec.sink.Sink`\\ s consume per-shard result blocks as they
  stream out, so downstream aggregation (the mergeable
  :class:`~repro.core.quantiles.AudienceAccumulator`) never needs the whole
  result at once;
* :class:`~repro.exec.executor.ShardExecutor` bundles a backend choice, a
  worker count and a shard-size policy into the single handle the
  measurement stack (``AudienceSizeCollector.collect`` /
  ``collect_stream``, ``UniquenessModel``, the countermeasure evaluation,
  the CLI) threads through.

Sharding is not only a multi-core story: even single-threaded, per-shard
ordering and kernels beat one whole-panel pass because the working set of
one shard stays cache-resident (see ``benchmarks/bench_perf_hot_paths.py``).
Every backend, worker count and shard size is pinned bit-identical —
samples *and* rate-limit accounting — by ``tests/test_exec_sharding.py``.

The layer carries more than collection: ``bootstrap_cutpoints`` fans its
replicate chunks (drawn up front, each carrying the sorted sample columns
built once per call) over the same runners,
``FDVTExtension.build_risk_reports`` shards its deduplicated bulk query,
and the scenario layer's :class:`~repro.scenarios.SweepRunner` partitions
whole experiment grids with the same :class:`ExecutionPlan` machinery —
one execution vocabulary from a single kernel block up to a
multi-scenario sweep.

Fault model (see :mod:`repro.faults` for the full contract)
-----------------------------------------------------------
Runners optionally carry a :class:`~repro.faults.RetryPolicy` and a
seeded :class:`~repro.faults.FaultPlan`; :class:`ShardExecutor` threads
both through as the ``retry`` / ``faults`` fields.  Three invariants hold
whenever the layer is active:

* **Determinism** — every injected fault is a pure hash of
  ``(plan.seed, shard_index, attempt)``, so chaos runs replay
  bit-identically across backends, worker counts and processes.
* **Exactly-once billing** — shard tasks are pure compute; the
  coordinator computes and settles each collection's merged
  :class:`~repro.adsapi.CallBill` exactly once regardless of how many
  attempts any shard burned, so ``CallStats`` and
  :class:`~repro.adsapi.TokenBucket` levels match the fault-free run
  bit-for-bit.
* **Attribution** — failures that survive their retries surface as
  :class:`~repro.errors.ShardFailedError` naming the shard index and
  backend; process-pool breakage (real or injected via worker
  ``os._exit``) is recovered by rebuilding the pool and resubmitting
  unfinished shards with advanced attempt counters.
"""

from ..faults import FaultPlan, RetryPolicy
from .executor import DEFAULT_SHARD_ROWS, ShardExecutor
from .plan import ExecutionPlan, Shard
from .runner import (
    ProcessRunner,
    SerialRunner,
    ShardRunner,
    ThreadRunner,
    make_runner,
)
from .sink import Sink, drain
from .tasks import (
    ReachShardTask,
    clear_spec_memo,
    run_reach_shard,
    shard_backend_payload,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "ExecutionPlan",
    "FaultPlan",
    "ProcessRunner",
    "ReachShardTask",
    "RetryPolicy",
    "SerialRunner",
    "Shard",
    "ShardExecutor",
    "ShardRunner",
    "Sink",
    "ThreadRunner",
    "clear_spec_memo",
    "drain",
    "make_runner",
    "run_reach_shard",
    "shard_backend_payload",
]
