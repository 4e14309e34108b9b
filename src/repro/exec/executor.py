"""The user-facing handle bundling a runner backend with a shard policy.

Measurement entry points (``AudienceSizeCollector.collect`` /
``collect_stream``, ``UniquenessModel``, the countermeasure evaluation, the
CLI's ``--workers`` / ``--exec-backend`` flags) accept one
:class:`ShardExecutor` instead of loose knobs, so the same execution choice
threads through every layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..faults import FaultPlan, RetryPolicy
from .plan import ExecutionPlan
from .runner import RUNNER_BACKENDS, ShardRunner, make_runner

#: Default rows per shard.  Small enough that one shard's working set stays
#: cache-resident (which is where the single-core sharding gains come from,
#: see ``benchmarks/bench_perf_hot_paths.py``), large enough that per-shard
#: dispatch overhead stays negligible.
DEFAULT_SHARD_ROWS = 512


@dataclass(frozen=True)
class ShardExecutor:
    """A runner backend plus a shard-size policy, as one frozen handle."""

    backend: str = "serial"
    workers: int = 1
    shard_size: int | None = None
    #: Retry policy for the fault-tolerance layer (None = no retries).
    #: Excluded from :attr:`fingerprint` and comparison: with the
    #: exactly-once billing contract the retry layer never changes what a
    #: collection computes, only whether it survives faults.
    retry: RetryPolicy | None = field(default=None, compare=False)
    #: Fault-injection plan (None = no injected faults).
    faults: FaultPlan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.backend not in RUNNER_BACKENDS:
            raise ConfigurationError(
                f"unknown runner backend: {self.backend!r} "
                f"(expected one of {RUNNER_BACKENDS})"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.backend == "serial" and self.workers != 1:
            raise ConfigurationError("the serial backend runs with exactly 1 worker")
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")

    @property
    def fingerprint(self) -> tuple:
        """Hashable identity used in collection cache keys.

        Deliberately excludes ``retry``/``faults``: fault tolerance is
        pinned bit-identical to the fault-free path
        (``tests/test_faults.py``), so it must never split a cache key.
        """
        return (self.backend, self.workers, self.shard_size)

    def plan(self, n_rows: int) -> ExecutionPlan:
        """Partition ``n_rows`` rows under this executor's shard policy.

        With an explicit ``shard_size`` the plan follows it exactly;
        otherwise rows are cut into :data:`DEFAULT_SHARD_ROWS`-row shards,
        with at least one shard per worker so every worker has work.
        """
        if self.shard_size is not None:
            return ExecutionPlan.partition(n_rows, shard_size=self.shard_size)
        n_shards = max(self.workers, -(-n_rows // DEFAULT_SHARD_ROWS))
        return ExecutionPlan.partition(n_rows, n_shards=n_shards)

    def runner(self) -> ShardRunner:
        """Build this executor's runner (fault layer included, if any)."""
        return make_runner(
            self.backend, self.workers, retry=self.retry, faults=self.faults
        )

    def describe(self) -> str:
        """Human-readable summary for logs and benchmark records."""
        size = self.shard_size if self.shard_size is not None else DEFAULT_SHARD_ROWS
        return f"{self.backend} x{self.workers} (shard_size={size})"
