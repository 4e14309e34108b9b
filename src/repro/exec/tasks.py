"""Picklable shard tasks for the reach kernels.

A :class:`ReachShardTask` is the unit of work the sharded collection paths
hand to a :class:`~repro.exec.runner.ShardRunner`: one contiguous block of
ordered interest-id rows, the shared location filter and the reporting
floor.  The task is *pure compute* — validation and rate-limit accounting
stay with the coordinating :class:`~repro.adsapi.AdsManagerAPI`, which
settles one merged :class:`~repro.adsapi.CallBill` for the whole plan so
sharded accounting is bit-identical to the fused single pass.

For in-process runners the task carries the live reach backend.  Across a
process boundary it carries the backend's
:class:`~repro.reach.ReachModelSpec` instead: workers rebuild the model
from config + seed on first use and memoise it per spec, so tasks pickle a
few dataclasses rather than a whole interest catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..adsapi.reachestimate import floored_prefix_audiences
from ..cache import SpecMemo, build_cache
from ..faults import fire_inner
from ..reach.model import ReachModelSpec

#: Bounded per-process memo of models rebuilt from specs, keyed by the
#: spec's content fingerprint so equal specs arriving from different
#: sweeps (or pickling round-trips) share one rebuild per worker process.
#: A small LRU rather than a plain dict: long-lived sweep/service workers
#: see unboundedly many spec variants over their lifetime.
_SPEC_MEMO = SpecMemo()


def clear_spec_memo() -> None:
    """Drop every memoised model rebuild (test isolation hook)."""
    _SPEC_MEMO.clear()


@dataclass(frozen=True)
class ReachShardTask:
    """One shard of a panel-scale prefix-audience computation."""

    #: A live reach backend, or a :class:`ReachModelSpec` to rebuild one.
    backend: Any
    #: Padded ``(rows, width)`` int64 matrix of ordered interest ids.
    id_matrix: np.ndarray
    #: Valid prefix length of each row — one entry per ``id_matrix`` row.
    counts: np.ndarray
    #: Shared location filter (``None`` means worldwide).
    locations: tuple[str, ...] | None
    #: Reporting floor to clip to, or ``None`` to return raw audiences.
    floor: int | None


def resolve_backend(payload: Any) -> Any:
    """Return a live backend for ``payload``, rebuilding specs once per process.

    Rebuilds route through the process-global
    :class:`~repro.cache.BuildCache`, so a worker that already generated
    the catalog for a cached sweep chunk reuses it for the reach model
    (and vice versa) instead of paying the build twice.  When
    ``REPRO_CACHE_ROOT`` is set, that cache carries a disk tier — workers
    inherit the environment, so a cold process pool hydrates every
    catalog rebuild from the shared root instead of regenerating it
    per worker.
    """
    if isinstance(payload, ReachModelSpec):
        return _SPEC_MEMO.get_or_build(
            payload, lambda spec: spec.build(cache=build_cache())
        )
    return payload


def shard_backend_payload(backend: Any, runner: Any) -> Any:
    """Pick what a shard task should carry for ``backend`` under ``runner``.

    Process runners get the backend's :class:`ReachModelSpec` when it has
    one (cheap to pickle, rebuilt worker-side); otherwise — including
    backends constructed without a spec — the live object is shipped and
    must pickle on its own.
    """
    if getattr(runner, "requires_pickling", False):
        spec = getattr(backend, "spec", None)
        if spec is not None:
            return spec
    return backend


def run_reach_shard(task: ReachShardTask) -> np.ndarray:
    """Compute one shard's prefix-audience block (kernel + optional floor).

    Bit-identical to the matching rows of the fused panel pass: the prefix
    kernel is row-local, and the reporting floor is applied per cell.

    This is a kernel-depth injection site: a ``FaultPlan(depth="kernel")``
    published by the enclosing :func:`~repro.faults.guarded_call` raises
    here — *inside* the task body, after any streaming consumer upstream
    has already merged earlier blocks — so chaos runs exercise the
    accumulator merge paths mid-stream rather than only at the guard
    boundary.
    """
    fire_inner("kernel")
    return floored_prefix_audiences(
        resolve_backend(task.backend),
        task.id_matrix,
        task.counts,
        task.locations,
        task.floor,
    )
