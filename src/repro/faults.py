"""Deterministic fault injection and bounded retries for the exec layer.

The paper's attacker runs multi-week campaigns against a flaky,
rate-limited Ads Manager API: requests time out, workers die, rate limits
bite.  This module gives the reproduction the same adversity **on
demand and bit-reproducibly**:

* :class:`FaultPlan` — a seeded, picklable description of *which* faults
  fire *where*.  Every decision is a pure function of
  ``(plan.seed, task_index, attempt)`` via :func:`repro._rng.stable_hash`,
  so a chaos run replays identically across processes, backends and
  worker counts.  Rates select between four fault kinds: transient API
  errors (:class:`~repro.errors.TransientApiError`), injected shard-task
  exceptions (:class:`~repro.errors.InjectedFaultError`), slow attempts
  (latency the reach service adds to a request's virtual completion
  time) and worker crashes (:class:`~repro.errors.WorkerCrashError`
  in-process, a genuine ``os._exit`` inside process-pool workers).

* :class:`RetryPolicy` — the attempt budget, plus the exponential
  backoff (floored by ``retry_after_seconds`` hints from rate-limit style
  errors) that the reach service waits on its virtual clock before
  requeueing a failed request.

* :func:`guarded_call` — the retry loop itself: injects faults from a
  plan, re-runs a task that failed with one of :data:`RETRYABLE_ERRORS`
  at once, up to the policy's attempt budget, and returns
  ``(value, attempts)``.

* Injection depth — a plan fires either at the **guard** boundary (the
  default: before the task body, where PR 6 injected) or, with
  ``depth="kernel"``, *inside* the task body at the sites that opted in
  via :func:`fire_inner` (the bulk reach kernel in
  :mod:`repro.exec.tasks`, hence mid-stream inside ``collect_stream``
  blocks).  Kernel-depth faults surface while accumulators hold partial
  state, chaos-testing the merge paths; the decision stream is the same
  pure function of ``(seed, task_index, attempt)`` either way.

Determinism contract
--------------------
``FaultPlan.max_faults_per_task`` bounds how many attempts of one task
can fault.  Whenever ``RetryPolicy.max_attempts > max_faults_per_task``
every task is *guaranteed* to eventually run clean, and because shard
tasks are pure functions of their inputs the winning attempt's result is
bit-identical to the fault-free run.  Billing stays exactly-once for the
same reason: shard tasks never touch the API budget — bills are computed
and settled once by the coordinator (see :mod:`repro.core.collection`) —
so a discarded attempt leaves no billing trace by construction.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, TypeVar

from ._rng import derive_seed, stable_hash
from .errors import (
    ConfigurationError,
    InjectedFaultError,
    RateLimitExceededError,
    TransientApiError,
    WorkerCrashError,
)

_T = TypeVar("_T")
_R = TypeVar("_R")

#: The fault kinds a plan can inject, in cumulative-rate order.
FAULT_KINDS = ("transient_api", "task_error", "slow", "crash")

#: Where a plan's decisions fire: at the retry-guard boundary (before the
#: task body), inside the task body at :func:`fire_inner` sites
#: (``"kernel"``), inside the build cache's disk-tier load/store paths
#: (``"cache"`` — see :class:`repro.cache.DiskCache`), or inside the
#: API's bill-settling step (``"billing"`` — see
#: :meth:`repro.adsapi.AdsManagerAPI.settle_reach_bill`, which fires
#: *before* any accounting mutates so a faulted settle retries
#: exactly-once).
FAULT_DEPTHS = ("guard", "kernel", "cache", "billing")

#: Environment variables read by :func:`ambient_chaos` (the CI chaos lane).
FAULT_RATE_ENV = "REPRO_FAULT_RATE"
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

#: Exit status used by simulated hard crashes inside process-pool workers.
CRASH_EXIT_CODE = 23


@dataclass(frozen=True)
class FaultDecision:
    """One resolved fault: what fires for ``(task_index, attempt)``."""

    kind: str
    task_index: int
    attempt: int
    #: Simulated latency for "slow" faults, backoff hint for transient ones.
    seconds: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable schedule of injected faults.

    Rates are per-attempt probabilities in ``[0, 1]`` and must sum to at
    most 1.  The decision for a given ``(task_index, attempt)`` pair is a
    pure hash of the seed, so the same plan replays bit-identically on
    any backend, worker count or process.
    """

    seed: int
    #: Probability an attempt raises a retryable :class:`TransientApiError`.
    transient_rate: float = 0.0
    #: Probability an attempt raises an :class:`InjectedFaultError`.
    error_rate: float = 0.0
    #: Probability an attempt runs slow (simulated latency, no error).
    slow_rate: float = 0.0
    #: Probability an attempt crashes its worker.
    crash_rate: float = 0.0
    #: Latency of a slow attempt, in the reach service's virtual seconds.
    slow_seconds: float = 5.0
    #: ``retry_after_seconds`` hint carried by injected transient errors.
    retry_after_seconds: float = 2.0
    #: Hard bound on faulting attempts per task — attempts at or past this
    #: index always run clean, which (together with a retry policy allowing
    #: more attempts) guarantees every chaos run converges.
    max_faults_per_task: int = 2
    #: Where decisions fire: ``"guard"`` (before the task body, the PR 6
    #: boundary), ``"kernel"`` (inside the body at :func:`fire_inner`
    #: sites), ``"cache"`` (inside the disk tier's load/store paths —
    #: the tier degrades to rebuild, never to a partial artifact) or
    #: ``"billing"`` (inside the API's bill settle, before the bucket
    #: drains — a faulted settle leaves no billing trace, so the retry
    #: settles exactly once).  The inner depths inject error kinds only,
    #: since latency and worker exits belong to the guard layer.
    depth: str = "guard"

    def __post_init__(self) -> None:
        for name in ("transient_rate", "error_rate", "slow_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate!r}")
        if self.total_rate > 1.0 + 1e-12:
            raise ConfigurationError(
                f"fault rates must sum to <= 1, got {self.total_rate:.4f}"
            )
        if self.max_faults_per_task < 0:
            raise ConfigurationError("max_faults_per_task must be >= 0")
        if self.slow_seconds < 0 or self.retry_after_seconds < 0:
            raise ConfigurationError("fault latencies must be >= 0")
        if self.depth not in FAULT_DEPTHS:
            raise ConfigurationError(
                f"unknown fault depth: {self.depth!r} (expected one of {FAULT_DEPTHS})"
            )
        if self.depth != "guard" and (self.slow_rate > 0 or self.crash_rate > 0):
            raise ConfigurationError(
                f"{self.depth}-depth plans inject error kinds only — "
                "slow_rate and crash_rate must be 0"
            )

    @property
    def total_rate(self) -> float:
        """Summed per-attempt fault probability across all kinds."""
        return self.transient_rate + self.error_rate + self.slow_rate + self.crash_rate

    @property
    def active(self) -> bool:
        """True when any fault can ever fire."""
        return self.total_rate > 0.0 and self.max_faults_per_task > 0

    def restricted(self, *kinds: str) -> "FaultPlan":
        """A copy injecting only the named kinds (other rates zeroed).

        Used to split responsibilities between layers: a sweep keeps the
        error kinds for its per-spec guard while handing only the
        ``"crash"`` kind down to the shard runner, so one configured rate
        never double-fires.
        """
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind: {kind!r} (expected one of {FAULT_KINDS})"
                )
        keep = set(kinds)
        rate_fields = {
            "transient_api": "transient_rate",
            "task_error": "error_rate",
            "slow": "slow_rate",
            "crash": "crash_rate",
        }
        changes = {
            rate_name: 0.0
            for kind, rate_name in rate_fields.items()
            if kind not in keep
        }
        return replace(self, **changes)

    # -- decisions -----------------------------------------------------------------

    def decide(self, task_index: int, attempt: int) -> FaultDecision | None:
        """The fault (if any) for attempt ``attempt`` of task ``task_index``.

        Pure and stateless: the draw is ``stable_hash(seed, "fault",
        task_index, attempt)`` mapped to ``[0, 1)`` and compared against
        the cumulative rates, so every process computes the same answer.
        Attempts at or past ``max_faults_per_task`` never fault.
        """
        if attempt >= self.max_faults_per_task or self.total_rate <= 0.0:
            return None
        draw = stable_hash(self.seed, "fault", task_index, attempt) / 2.0**64
        edge = self.transient_rate
        if draw < edge:
            return FaultDecision(
                "transient_api", task_index, attempt, self.retry_after_seconds
            )
        edge += self.error_rate
        if draw < edge:
            return FaultDecision("task_error", task_index, attempt)
        edge += self.slow_rate
        if draw < edge:
            return FaultDecision("slow", task_index, attempt, self.slow_seconds)
        edge += self.crash_rate
        if draw < edge:
            return FaultDecision("crash", task_index, attempt)
        return None

    def fire(
        self, task_index: int, attempt: int, *, hard_crash: bool = False
    ) -> FaultDecision | None:
        """Act on the decision for ``(task_index, attempt)``.

        Raises the decided error kind, or returns the decision for
        non-raising kinds ("slow", or no fault as ``None``).  With
        ``hard_crash`` a "crash" decision terminates the interpreter via
        ``os._exit`` — only ever set inside process-pool workers, where
        it produces the genuine ``BrokenProcessPool`` the coordinator
        recovers from; in-process callers get a retryable
        :class:`WorkerCrashError` instead.
        """
        decision = self.decide(task_index, attempt)
        if decision is None:
            return None
        if decision.kind == "transient_api":
            raise TransientApiError(
                f"injected transient failure (task {task_index}, attempt {attempt})",
                retry_after_seconds=decision.seconds,
            )
        if decision.kind == "task_error":
            raise InjectedFaultError(
                f"injected task fault (task {task_index}, attempt {attempt})"
            )
        if decision.kind == "crash":
            if hard_crash:  # pragma: no cover - exits the worker process
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrashError(
                f"injected worker crash (task {task_index}, attempt {attempt})"
            )
        return decision  # "slow": latency only, handled by the caller's clock.

    # -- introspection -------------------------------------------------------------

    def describe(self) -> dict:
        """A JSON-friendly view of the plan's knobs."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def preview(self, n_tasks: int, attempts: int = 1) -> list[FaultDecision]:
        """Every fault the plan would fire over ``n_tasks`` x ``attempts``.

        Purely informational (powers ``repro-facebook faults``): lists the
        decisions in (task, attempt) order without raising anything.
        """
        if n_tasks < 0 or attempts < 0:
            raise ConfigurationError("preview dimensions must be >= 0")
        decisions = []
        for index in range(n_tasks):
            for attempt in range(attempts):
                decision = self.decide(index, attempt)
                if decision is not None:
                    decisions.append(decision)
        return decisions


#: Per-attempt injection context published by :func:`guarded_call` for
#: plans with ``depth != "guard"``: ``(plan, task_index, attempt)``.
#: Contextvars propagate through the task body only, so kernel-depth
#: faults cannot leak into unrelated code; process pools work because
#: the guarded call itself executes inside the worker.
_INNER_FAULTS: contextvars.ContextVar = contextvars.ContextVar(
    "repro_inner_faults", default=None
)


def fire_inner(site: str) -> None:
    """Fire the ambient fault plan at a named inner injection site.

    Deep code (the bulk API kernel, mid-stream collection blocks) calls
    this with its site name; it raises iff a :func:`guarded_call` higher
    up the stack published a plan whose ``depth`` matches ``site`` and
    that plan decides a fault for the current ``(task, attempt)``.  A
    no-op (and near-free) in every other situation, so hot paths can
    call it unconditionally.
    """
    context = _INNER_FAULTS.get()
    if context is None:
        return
    plan, task_index, attempt = context
    if plan.depth == site:
        plan.fire(task_index, attempt)


#: Errors a retry may recover from; everything else fails fast.
RETRYABLE_ERRORS: tuple[type[Exception], ...] = (
    TransientApiError,
    RateLimitExceededError,
    WorkerCrashError,
    InjectedFaultError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts, and the backoff the reach service waits between them.

    :func:`guarded_call` re-runs a failed task at once: shard and sweep
    tasks are pure and keep no clock, so waiting would change nothing.
    :class:`~repro.service.ReachService` requeues a failed request on its
    virtual clock, :meth:`backoff_delay` seconds later.
    """

    #: Total attempts allowed (first try included); must be >= 1.
    max_attempts: int = 3
    #: Backoff before the first retry, in seconds.
    base_delay_seconds: float = 0.5
    #: Exponential growth factor between consecutive backoffs.
    multiplier: float = 2.0
    #: Ceiling on a single backoff delay.
    max_delay_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")

    def backoff_delay(self, attempt: int, error: BaseException | None = None) -> float:
        """Seconds to back off after failed attempt ``attempt``.

        Exponential in the attempt index, capped by ``max_delay_seconds``;
        a ``retry_after_seconds`` hint on the error (rate-limit style)
        raises the floor — the caller must wait at least that long.
        """
        delay = min(
            self.base_delay_seconds * self.multiplier ** max(attempt, 0),
            self.max_delay_seconds,
        )
        hint = getattr(error, "retry_after_seconds", None)
        if hint is not None:
            delay = max(delay, float(hint))
        return delay

    def describe(self) -> dict:
        """A JSON-friendly view of the policy's knobs and what it retries."""
        payload: dict = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["retryable"] = tuple(cls.__name__ for cls in RETRYABLE_ERRORS)
        return payload


def guarded_call(
    fn: Callable[[_T], _R],
    task: _T,
    *,
    index: int,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    base_attempt: int = 0,
    hard_crash: bool = False,
) -> tuple[_R, int]:
    """Run ``fn(task)`` under fault injection and bounded retries.

    Returns ``(result, attempts)`` where ``attempts`` counts every try
    made here (earlier tries folded in via ``base_attempt`` are not
    re-counted).  Guard-depth faults fire *before* the task body — shard
    tasks are pure, so a failed attempt leaves no partial state and the
    winning attempt's result is bit-identical to a fault-free call; a
    "slow" decision costs nothing here, because the task has no clock to
    delay.  Kernel-depth plans are instead published for the duration of
    the task body so :func:`fire_inner` sites deep inside it (the bulk
    API kernel, mid-stream collection blocks) raise mid-work.  A
    :data:`RETRYABLE_ERRORS` failure re-runs the task at once while
    ``retry`` allows more attempts; any other error, or the failure of
    the last allowed attempt, re-raises.

    ``base_attempt`` offsets the fault-decision stream: a coordinator
    resubmitting work after a pool crash passes the attempts already
    burned so the plan does not replay the same fault forever.
    """
    max_attempts = retry.max_attempts if retry is not None else 1
    tries = 0
    while True:
        attempt = base_attempt + tries
        tries += 1
        try:
            if faults is not None and faults.depth == "guard":
                faults.fire(index, attempt, hard_crash=hard_crash)
            if faults is not None and faults.depth != "guard":
                token = _INNER_FAULTS.set((faults, index, attempt))
                try:
                    return fn(task), tries
                finally:
                    _INNER_FAULTS.reset(token)
            return fn(task), tries
        except Exception as error:
            if not isinstance(error, RETRYABLE_ERRORS) or tries >= max_attempts:
                _attach_attempts(error, tries)
                raise


def _attach_attempts(error: BaseException, tries: int) -> None:
    """Best-effort annotation of how many attempts a failure burned.

    Dead-letter reporting reads this back via ``getattr(error,
    "attempts", 1)``; exceptions without a ``__dict__`` just go without.
    """
    try:
        error.attempts = tries  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover - slotted exceptions
        pass


def ambient_chaos() -> tuple[RetryPolicy | None, FaultPlan | None]:
    """The (retry, faults) pair requested via the environment, if any.

    The CI chaos lane sets :data:`FAULT_RATE_ENV` (and optionally
    :data:`FAULT_SEED_ENV`) so the *entire* test suite runs under fault
    injection with retries enabled — any parity break the retry layer
    would cause surfaces suite-wide.  Returns ``(None, None)`` when the
    rate variable is unset or zero.  The rate is split evenly across the
    three error kinds (crashes are opt-in only: ambient crashes inside
    arbitrary test processes would be indistinguishable from real bugs).
    """
    raw = os.environ.get(FAULT_RATE_ENV)
    if raw is None:
        return None, None
    try:
        rate = float(raw)
    except ValueError as error:
        raise ConfigurationError(
            f"{FAULT_RATE_ENV} must be a float, got {raw!r}"
        ) from error
    if rate == 0.0:
        return None, None
    if not 0.0 < rate <= 1.0:
        raise ConfigurationError(f"{FAULT_RATE_ENV} must be in (0, 1], got {rate!r}")
    seed = int(os.environ.get(FAULT_SEED_ENV, "0") or "0")
    plan = FaultPlan(
        seed=derive_seed(seed, "ambient-chaos"),
        transient_rate=rate / 3.0,
        error_rate=rate / 3.0,
        slow_rate=rate / 3.0,
    )
    retry = RetryPolicy(max_attempts=plan.max_faults_per_task + 1)
    return retry, plan
