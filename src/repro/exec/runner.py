"""Shard runners: serial, thread-pool and process-pool backends.

A runner executes one picklable-or-not task function over the shards of an
:class:`~repro.exec.plan.ExecutionPlan`.  All runners preserve shard order
(results line up with the submitted tasks), so callers can concatenate
blocks without bookkeeping, and all offer two consumption styles:

* :meth:`ShardRunner.run` — execute everything and return the result list;
* :meth:`ShardRunner.stream` — an iterator yielding results in shard order
  as they become available (lazily computed on the serial backend), which
  is what feeds streaming sinks without buffering the whole result set.

The process backend requires tasks to be picklable; shard tasks built by
:func:`~repro.exec.tasks.shard_backend_payload` swap the live reach model
for its :class:`~repro.reach.ReachModelSpec` so workers rebuild the model
from config + seed instead of shipping catalog objects around.

Fault tolerance
---------------
Every runner optionally carries a :class:`~repro.faults.RetryPolicy` and a
:class:`~repro.faults.FaultPlan` (see :mod:`repro.faults`).  With either
configured, each shard executes through :func:`~repro.faults.guarded_call`
— deterministic fault injection plus a bounded number of immediate
re-runs (shards are pure and keep no clock, so there is no backoff) — and
any failure that survives its retries surfaces as
:class:`~repro.errors.ShardFailedError` carrying the shard index and the
backend name.  The pooled backends always wrap failures that way (shard
attribution was the original gap); the serial backend stays a raw,
zero-overhead passthrough when no retry/fault layer is configured, so the
fused fault-free path is untouched.

On the process backend a (simulated or real) worker crash kills the pool:
the coordinator catches ``BrokenExecutor``, rebuilds the pool, and
resubmits every shard that has no result yet with its attempt counter
advanced — results stay deterministic because shard tasks are pure, so
whichever attempt wins computes the same value.  Without a retry policy a
broken pool is re-raised as a :class:`ShardFailedError` wrapping a
:class:`~repro.errors.WorkerCrashError`.
"""

from __future__ import annotations

from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence, TypeVar, runtime_checkable

from ..errors import ConfigurationError, ShardFailedError, WorkerCrashError
from ..faults import FaultPlan, RetryPolicy, ambient_chaos, guarded_call

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Names of the available runner backends, serial first.
RUNNER_BACKENDS = ("serial", "thread", "process")


@runtime_checkable
class ShardRunner(Protocol):
    """Executes a task function over shard tasks, preserving order."""

    #: Backend name ("serial", "thread" or "process").
    name: str
    #: Worker count (1 for the serial backend).
    workers: int
    #: True when tasks cross a pickling boundary (process pool).
    requires_pickling: bool

    def run(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> list[_R]:
        """Execute ``fn`` over every task and return results in task order."""
        ...  # pragma: no cover - protocol definition

    def stream(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> Iterator[_R]:
        """Yield results in task order as they complete."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class _GuardedCall:
    """Picklable wrapper running one shard through the fault/retry layer.

    Instances are what pooled runners actually submit: the frozen
    dataclass (task fn + policy + plan) pickles cleanly into process
    workers, and each call receives ``(index, base_attempt, task)`` so
    the deterministic fault stream is keyed by shard index, not by
    submission order.  ``hard_crash`` turns "crash" decisions into real
    worker exits (process pools only).
    """

    fn: Callable
    retry: RetryPolicy | None
    faults: FaultPlan | None
    hard_crash: bool = False

    def __call__(self, job: tuple[int, int, object]):
        index, base_attempt, task = job
        if self.retry is None and self.faults is None:
            return self.fn(task)
        return guarded_call(
            self.fn,
            task,
            index=index,
            retry=self.retry,
            faults=self.faults,
            base_attempt=base_attempt,
            hard_crash=self.hard_crash,
        )[0]


class SerialRunner:
    """Runs every shard in the calling thread, lazily when streamed.

    Without a retry policy or fault plan this is the raw zero-overhead
    passthrough it always was (exceptions propagate unwrapped); with
    either configured, shards run guarded and surviving failures are
    wrapped in :class:`ShardFailedError`.
    """

    name = "serial"
    workers = 1
    requires_pickling = False

    def __init__(
        self,
        *,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.retry = retry
        self.faults = faults

    def run(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> list[_R]:
        if self.retry is None and self.faults is None:
            return [fn(task) for task in tasks]
        return list(self.stream(fn, tasks))

    def stream(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> Iterator[_R]:
        if self.retry is None and self.faults is None:
            for task in tasks:
                yield fn(task)
            return
        guarded = _GuardedCall(fn, self.retry, self.faults)
        for index, task in enumerate(tasks):
            try:
                yield guarded((index, 0, task))
            except Exception as error:
                raise ShardFailedError(index, self.name, error) from error


class _PoolRunner:
    """Shared machinery of the pooled backends (one pool per call)."""

    name: str
    requires_pickling: bool
    #: True when "crash" faults should hard-exit the worker process.
    _hard_crash = False

    def __init__(
        self,
        workers: int,
        *,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = int(workers)
        self.retry = retry
        self.faults = faults

    def _pool(self):
        raise NotImplementedError  # pragma: no cover - abstract hook

    def run(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> list[_R]:
        return list(self.stream(fn, tasks))

    def stream(self, fn: Callable[[_T], _R], tasks: Sequence[_T]) -> Iterator[_R]:
        if not tasks:
            return
        guarded = _GuardedCall(fn, self.retry, self.faults, self._hard_crash)
        # Attempts already burned per shard; bumped when a broken pool
        # forces a resubmission so the fault stream moves forward.
        attempts = [0] * len(tasks)
        results: list = [None] * len(tasks)
        done = [False] * len(tasks)
        # A crash can break the pool more than once; each rebuild advances
        # every unfinished shard's attempt counter, and the fault plan
        # stops crashing a shard once it passes max_faults_per_task, so
        # the loop terminates whenever retries allow enough attempts.
        rebuilds_left = self.retry.max_attempts if self.retry is not None else 1
        next_index = 0
        while not all(done):
            pool = self._pool()
            pending = [index for index in range(len(tasks)) if not done[index]]
            try:
                futures = {
                    index: pool.submit(guarded, (index, attempts[index], tasks[index]))
                    for index in pending
                }
                while next_index < len(tasks):
                    index = next_index
                    if done[index]:
                        # Finished during an earlier pool round (before a
                        # crash forced a rebuild); emit it in order now.
                        next_index += 1
                        yield results[index]
                        continue
                    try:
                        results[index] = futures[index].result()
                    except BrokenExecutor as error:
                        rebuilds_left -= 1
                        if rebuilds_left <= 0:
                            cause = WorkerCrashError(
                                f"worker pool broke while running shard {index}: {error}"
                            )
                            raise ShardFailedError(index, self.name, cause) from error
                        # Mark everything that *did* finish, bump the rest.
                        for other, future in futures.items():
                            if future.done() and not future.cancelled():
                                crashed = future.exception()
                                if crashed is None:
                                    results[other] = future.result()
                                    done[other] = True
                                elif not isinstance(crashed, BrokenExecutor):
                                    raise ShardFailedError(
                                        other, self.name, crashed
                                    ) from crashed
                        for other in range(len(tasks)):
                            if not done[other]:
                                attempts[other] += 1
                        break
                    except Exception as error:
                        raise ShardFailedError(index, self.name, error) from error
                    done[index] = True
                    next_index += 1
                    yield results[index]
            finally:
                # Abandoned streams cancel whatever has not started yet.
                pool.shutdown(wait=True, cancel_futures=True)


class ThreadRunner(_PoolRunner):
    """Runs shards on a thread pool.

    NumPy releases the GIL inside its array kernels, so thread workers
    overlap on multi-core hosts without any pickling; on a single core the
    per-shard cache locality still beats the fused whole-panel pass.
    """

    name = "thread"
    requires_pickling = False

    def _pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.workers)


class ProcessRunner(_PoolRunner):
    """Runs shards on a process pool (tasks must be picklable).

    "crash" faults hard-exit the worker here (``os._exit``), producing a
    genuine ``BrokenProcessPool`` that exercises the rebuild-and-resubmit
    recovery path rather than a polite exception.
    """

    name = "process"
    requires_pickling = True
    _hard_crash = True

    def _pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)


def make_runner(
    backend: str,
    workers: int = 1,
    *,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
) -> ShardRunner:
    """Build the runner for ``backend`` ("serial", "thread" or "process").

    ``retry`` / ``faults`` wire the fault-tolerance layer into the runner
    (see :mod:`repro.faults`).  When *neither* is given the environment's
    ambient chaos settings apply (:func:`repro.faults.ambient_chaos` —
    the CI chaos lane), so an explicitly configured runner always wins
    over the environment.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if retry is None and faults is None:
        retry, faults = ambient_chaos()
    if backend == "serial":
        if workers != 1:
            raise ConfigurationError("the serial backend runs with exactly 1 worker")
        return SerialRunner(retry=retry, faults=faults)
    if backend == "thread":
        return ThreadRunner(workers, retry=retry, faults=faults)
    if backend == "process":
        return ProcessRunner(workers, retry=retry, faults=faults)
    raise ConfigurationError(
        f"unknown runner backend: {backend!r} (expected one of {RUNNER_BACKENDS})"
    )
