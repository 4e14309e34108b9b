"""The always-on reach service: a deterministic virtual-time event loop.

:class:`ReachService` serves the paper's interactive Ads-Manager reach
workload from a warm :class:`~repro.pipeline.Simulation` without ever
queueing unboundedly.  The request path, in order:

1. **Admission** (:meth:`ReachService.submit`) — the request is checked
   once, in full (``invalid``): the service's own limits (non-empty, at
   most one tick's batch budget and one tenant burst), then, in the bulk
   endpoint's order and with its messages, the account state, the
   location list (resolved once, when the service is built), the
   interest-row rules of :mod:`repro.adsapi.validation`, and finally
   catalog membership, so an unknown id is rejected here rather than
   failing the tick that would batch it.  The request is then checked
   against the tenant's circuit breaker (``circuit_open``), charged to
   the tenant's per-account :class:`~repro.adsapi.ratelimit.TokenBucket`
   at one token per prefix cell (``throttled``), and finally placed in
   the bounded :class:`~repro.service.queue.PendingQueue` — or shed
   ``overloaded`` when the queue bound is hit.  Every rejection is an
   immediate typed :class:`~repro.service.responses.ReachResponse` with
   a ``retry_after_seconds`` hint where one exists; admission returns
   ``None`` and the answer arrives from a later tick.

2. **Ticks** (:meth:`ReachService.tick`) — the virtual clock advances one
   tick, expired entries are shed ``deadline_exceeded``, and a fair
   round-robin batch is popped under the per-tick cell budget.  Injected
   faults (:class:`~repro.faults.FaultPlan`, decided per *request* by its
   admission index) fire per popped entry: transient/task errors send the
   entry back to its lane with exponential backoff (or fail it once the
   retry budget is exhausted — tripping the tenant's breaker on the way),
   slow faults add virtual latency that can itself blow the deadline
   *before* any token is billed.  Surviving entries are folded into one
   bulk call with one merged bill (:mod:`~repro.service.coalescer`), so
   billing is exactly-once per tick and every admitted answer is
   bit-identical to a direct call.  Requests are frozen, so the tick
   re-checks only what can change after admission, the account state: if
   the account was suspended in between, every popped entry is answered
   ``failed`` with the suspension message, before any token is billed
   and without charging a breaker (the fault is the account's).  Over an
   API built with ``auto_wait=False`` the merged bill can exceed the API's
   own rate limit: every popped entry is then answered ``throttled`` with
   the API's ``retry_after_seconds``, again without charging a breaker.

**What is shed, when, and what the client sees** — the overload policy in
one table: queue full at admission → ``overloaded`` (retry after one
tick); tenant bucket empty, or the API's own limit hit at a tick without
``auto_wait`` → ``throttled`` (retry when tokens refill);
breaker open → ``circuit_open`` (retry after the cooldown); deadline
passed while queued, or backoff/slow-fault latency would pass it →
``deadline_exceeded``; retry budget exhausted against faults, or the
account suspended after admission → ``failed``.  Admitted requests are
never silently dropped: every submission produces exactly one response.

Two clocks, deliberately: the *service* clock (deadlines, retry
backoff, breaker cooldowns) is the injected virtual clock that tests and
soaks drive tick by tick; the backing API keeps its own private clock for
rate-limit refills and ``auto_wait`` fast-forwards, so billing-side time
never contaminates deadline accounting.  The service is the only place a
:class:`~repro.faults.RetryPolicy`'s backoff elapses: shard and sweep
retries re-run at once.

When neither ``retry`` nor ``faults`` is given the service picks up
:func:`~repro.faults.ambient_chaos` from the environment, so the CI
chaos lane soaks the service without any test changing its construction.
Crash faults are stripped — the service owns no workers to kill.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..adsapi import AdsManagerAPI
from ..adsapi.ratelimit import TokenBucket
from ..adsapi.validation import resolve_locations, validate_interest_row
from ..errors import (
    AccountSuspendedError,
    AdsApiError,
    ConfigurationError,
    InjectedFaultError,
    RateLimitExceededError,
    TargetingValidationError,
    TransientApiError,
    UnknownInterestError,
)
from ..faults import FaultPlan, RetryPolicy, ambient_chaos
from ..simclock import SimClock
from .breaker import CircuitBreaker
from .coalescer import coalesce_reach
from .queue import PendingQueue, QueuedRequest
from .responses import ReachRequest, ReachResponse


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the reach service's overload policy."""

    #: Per-tenant admission rate (tokens per minute; one token per cell).
    tenant_requests_per_minute: float = 600.0
    #: Per-tenant admission burst (cells).
    tenant_burst: int = 50
    #: Bound on queued cells across all tenants (the load-shedding line).
    max_queue_cells: int = 256
    #: Cell budget of one coalesced batch (one bulk call per tick).
    max_batch_cells: int = 64
    #: Virtual seconds per tick.
    tick_seconds: float = 1.0
    #: Deadline granted when a request names no ``timeout_seconds``.
    default_timeout_seconds: float = 30.0
    #: Consecutive failures that open a tenant's breaker.
    breaker_failure_threshold: int = 5
    #: Virtual seconds an open breaker sheds before probing.
    breaker_cooldown_seconds: float = 30.0
    #: Probe admissions allowed while half-open.
    breaker_half_open_probes: int = 1
    #: Location filter shared by every served query (``None`` = worldwide).
    locations: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.tenant_requests_per_minute <= 0:
            raise ConfigurationError("tenant_requests_per_minute must be positive")
        if self.tenant_burst < 1:
            raise ConfigurationError("tenant_burst must be at least 1")
        if self.max_queue_cells < 1 or self.max_batch_cells < 1:
            raise ConfigurationError("queue and batch cell bounds must be >= 1")
        if self.tick_seconds <= 0:
            raise ConfigurationError("tick_seconds must be positive")
        if self.default_timeout_seconds <= 0:
            raise ConfigurationError("default_timeout_seconds must be positive")
        if self.locations is not None:
            object.__setattr__(self, "locations", tuple(self.locations))

    def describe(self) -> dict:
        """A JSON-friendly view of the service knobs."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ServiceStats:
    """Monotonic counters of everything the service did."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    retries: int = 0
    ticks: int = 0
    batches: int = 0
    cells_served: int = 0
    shed_invalid: int = 0
    shed_throttled: int = 0
    shed_overloaded: int = 0
    shed_circuit_open: int = 0
    shed_deadline: int = 0
    failed: int = 0

    @property
    def shed_total(self) -> int:
        """Every typed rejection (any status except ``ok``)."""
        return (
            self.shed_invalid
            + self.shed_throttled
            + self.shed_overloaded
            + self.shed_circuit_open
            + self.shed_deadline
            + self.failed
        )

    def as_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["shed_total"] = self.shed_total
        return payload


class ReachService:
    """A long-lived coalescing front end over one warm Ads API.

    The API's backend must carry an interest ``catalog`` (a
    :class:`~repro.reach.StatisticalReachModel` does): admission checks
    every requested id against it.
    """

    def __init__(
        self,
        api: AdsManagerAPI,
        *,
        config: ServiceConfig | None = None,
        clock: SimClock | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self._api = api
        self._config = config or ServiceConfig()
        self._clock = clock or SimClock()
        self._catalog = getattr(api.backend, "catalog", None)
        if self._catalog is None:
            raise ConfigurationError(
                "the reach service needs a backend with an interest catalog "
                f"to admit requests against, got {type(api.backend).__name__}"
            )
        # The location list and the platform are frozen: one verdict serves
        # every request.
        self._locations: tuple[str, ...] | None = None
        self._location_error: str | None = None
        try:
            self._locations = resolve_locations(self._config.locations, api.platform)
        except TargetingValidationError as error:
            self._location_error = str(error)
        if retry is None and faults is None:
            retry, faults = ambient_chaos()
        if faults is not None:
            # The service owns no workers: a "crash" has nothing to kill.
            faults = faults.restricted("transient_api", "task_error", "slow")
            if retry is None:
                retry = RetryPolicy(max_attempts=faults.max_faults_per_task + 1)
        self._retry = retry
        self._faults = faults if faults is not None and faults.active else None
        self._queue = PendingQueue(max_cells=self._config.max_queue_cells)
        self._buckets: dict[str, TokenBucket] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._stats = ServiceStats()
        self._next_index = 0

    # -- accessors --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current service virtual time."""
        return self._clock.now()

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def api(self) -> AdsManagerAPI:
        """The backing Ads API (its clock is private to billing)."""
        return self._api

    @property
    def queue_depth(self) -> int:
        """Entries currently queued."""
        return len(self._queue)

    def breaker_state(self, tenant: str) -> str:
        """The named tenant's breaker state ("closed" if never seen)."""
        breaker = self._breakers.get(tenant)
        return breaker.state if breaker is not None else "closed"

    def stats(self) -> dict:
        """Counters plus per-tenant admission/breaker snapshots."""
        return {
            "now": self.now,
            "queue_depth": self.queue_depth,
            "queued_cells": self._queue.queued_cells,
            "counters": self._stats.as_dict(),
            "tenants": {
                tenant: {
                    "bucket": self._buckets[tenant].describe(),
                    "breaker": self._breakers[tenant].describe(),
                }
                for tenant in sorted(self._buckets)
            },
        }

    @property
    def counters(self) -> ServiceStats:
        return self._stats

    # -- admission --------------------------------------------------------------

    def submit(self, request: ReachRequest) -> ReachResponse | None:
        """Admit ``request`` (returns ``None``) or shed it with a typed response.

        Admitted requests resolve from a later :meth:`tick`; rejected ones
        get their response immediately — the service never blocks a caller.
        """
        now = self.now
        self._stats.submitted += 1
        invalid = self._validate(request)
        if invalid is not None:
            self._stats.shed_invalid += 1
            return self._reject(request, "invalid", invalid, now)
        breaker = self._breaker(request.tenant)
        if not breaker.allow(now):
            self._stats.shed_circuit_open += 1
            return self._reject(
                request,
                "circuit_open",
                f"tenant {request.tenant!r} breaker is {breaker.state}",
                now,
                retry_after=breaker.retry_after(now),
            )
        bucket = self._bucket(request.tenant)
        if not bucket.try_acquire(request.cost):
            self._stats.shed_throttled += 1
            return self._reject(
                request,
                "throttled",
                f"tenant {request.tenant!r} admission budget exhausted "
                f"({request.cost} cells requested)",
                now,
                retry_after=bucket.seconds_until_available(request.cost),
            )
        if not self._queue.has_room(request.cost):
            self._stats.shed_overloaded += 1
            return self._reject(
                request,
                "overloaded",
                f"pending queue full ({self._queue.queued_cells}/"
                f"{self._config.max_queue_cells} cells)",
                now,
                retry_after=self._config.tick_seconds,
            )
        timeout = (
            request.timeout_seconds
            if request.timeout_seconds is not None
            else self._config.default_timeout_seconds
        )
        entry = QueuedRequest(
            index=self._next_index,
            request=request,
            submitted_at=now,
            deadline=now + timeout,
        )
        self._next_index += 1
        self._queue.push(entry)
        self._stats.admitted += 1
        return None

    # -- the event loop ----------------------------------------------------------

    def tick(self) -> list[ReachResponse]:
        """Advance one tick and return every response it resolved."""
        self._clock.advance(self._config.tick_seconds)
        self._stats.ticks += 1
        now = self.now
        responses: list[ReachResponse] = []
        for entry in self._queue.purge_expired(now):
            responses.append(self._expire(entry, now, "deadline passed while queued"))
        batch: list[QueuedRequest] = []
        for entry in self._queue.pop_batch(now, self._config.max_batch_cells):
            survivor = self._inject(entry, now, responses)
            if survivor is not None:
                batch.append(survivor)
        if batch:
            try:
                values = coalesce_reach(
                    self._api,
                    [entry.request for entry in batch],
                    locations=self._locations,
                )
            except AccountSuspendedError as error:
                # Suspended since admission: nothing was billed, and the
                # fault is the account's, so no breaker is charged.
                self._stats.failed += len(batch)
                responses.extend(
                    self._resolve(entry, "failed", str(error), now) for entry in batch
                )
                return responses
            except RateLimitExceededError as error:
                # Only an API built with ``auto_wait=False`` raises here; its
                # bucket is drained as far as it went.  The limit is the
                # account's, so no breaker is charged.
                self._stats.shed_throttled += len(batch)
                responses.extend(
                    self._resolve(
                        entry,
                        "throttled",
                        str(error),
                        now,
                        retry_after=error.retry_after_seconds,
                    )
                    for entry in batch
                )
                return responses
            self._stats.batches += 1
            for entry, row in zip(batch, values):
                self._breaker(entry.request.tenant).record_success()
                self._stats.completed += 1
                self._stats.cells_served += entry.cost
                responses.append(
                    ReachResponse(
                        request=entry.request,
                        status="ok",
                        values=row,
                        submitted_at=entry.submitted_at,
                        completed_at=now + entry.latency_penalty,
                        attempts=entry.attempt + 1,
                    )
                )
        return responses

    def run_until_idle(self, *, max_ticks: int = 10_000) -> list[ReachResponse]:
        """Tick until the queue drains; every entry resolves (deadlines bound it)."""
        responses: list[ReachResponse] = []
        ticks = 0
        while len(self._queue) > 0:
            if ticks >= max_ticks:
                raise ConfigurationError(
                    f"queue failed to drain within {max_ticks} ticks"
                )
            responses.extend(self.tick())
            ticks += 1
        return responses

    # -- internals --------------------------------------------------------------

    def _inject(
        self,
        entry: QueuedRequest,
        now: float,
        responses: list[ReachResponse],
    ) -> QueuedRequest | None:
        """Fire the fault plan for ``entry``; return it iff it should run now.

        Faults are decided per request — the admission index is the fault
        plan's task index, the attempt counter advances per retry — so a
        chaos trajectory is a pure function of (plan seed, arrival order),
        bit-reproducible across runs.
        """
        if self._faults is None:
            return entry
        try:
            decision = self._faults.fire(entry.index, entry.attempt)
        except (TransientApiError, InjectedFaultError) as error:
            breaker = self._breaker(entry.request.tenant)
            breaker.record_failure(now)
            next_attempt = entry.attempt + 1
            if self._retry is None or next_attempt >= self._retry.max_attempts:
                self._stats.failed += 1
                responses.append(
                    self._resolve(
                        entry,
                        "failed",
                        f"retry budget exhausted after {next_attempt} attempts: "
                        f"{type(error).__name__}: {error}",
                        now,
                    )
                )
                return None
            delay = self._retry.backoff_delay(entry.attempt, error)
            if now + delay > entry.deadline:
                responses.append(
                    self._expire(
                        entry, now, f"backoff of {delay:.2f}s lands past the deadline"
                    )
                )
                return None
            self._stats.retries += 1
            entry.attempt = next_attempt
            entry.not_before = now + delay
            self._queue.requeue(entry)
            return None
        if decision is not None and decision.kind == "slow":
            entry.latency_penalty += decision.seconds
            if now + entry.latency_penalty > entry.deadline:
                # Shed before billing: the deadline would pass mid-flight.
                responses.append(
                    self._expire(
                        entry,
                        now,
                        f"injected latency of {entry.latency_penalty:.2f}s "
                        "blows the deadline",
                    )
                )
                return None
        return entry

    def _validate(self, request: ReachRequest) -> str | None:
        """Every check a request gets, run once; the reason when invalid."""
        if request.cost == 0:
            return "a reach request needs at least one interest"
        if request.cost > self._config.max_batch_cells:
            return (
                f"request of {request.cost} cells exceeds the per-tick batch "
                f"budget of {self._config.max_batch_cells}"
            )
        if request.cost > self._config.tenant_burst:
            # A cost above the bucket capacity could never be admitted no
            # matter how long the tenant waits — reject it loudly instead
            # of throttling forever.
            return (
                f"request of {request.cost} cells exceeds the tenant burst "
                f"capacity of {self._config.tenant_burst}"
            )
        try:
            self._api.account.ensure_active()
            if self._location_error is not None:
                return self._location_error
            validate_interest_row(request.interests, self._api.platform)
        except AdsApiError as error:
            return str(error)
        for interest_id in request.interests:
            if interest_id not in self._catalog:
                return str(UnknownInterestError(interest_id))
        return None

    def _expire(self, entry: QueuedRequest, now: float, reason: str) -> ReachResponse:
        self._stats.shed_deadline += 1
        return self._resolve(entry, "deadline_exceeded", reason, now)

    def _resolve(
        self,
        entry: QueuedRequest,
        status: str,
        detail: str,
        now: float,
        *,
        retry_after: float | None = None,
    ) -> ReachResponse:
        return ReachResponse(
            request=entry.request,
            status=status,
            detail=detail,
            retry_after_seconds=retry_after,
            submitted_at=entry.submitted_at,
            completed_at=now,
            attempts=entry.attempt + (1 if status == "failed" else 0),
        )

    def _reject(
        self,
        request: ReachRequest,
        status: str,
        detail: str,
        now: float,
        *,
        retry_after: float | None = None,
    ) -> ReachResponse:
        return ReachResponse(
            request=request,
            status=status,
            detail=detail,
            retry_after_seconds=retry_after,
            submitted_at=now,
            completed_at=now,
        )

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                requests_per_minute=self._config.tenant_requests_per_minute,
                burst=self._config.tenant_burst,
                clock=self._clock,
            )
            self._buckets[tenant] = bucket
        return bucket

    def _breaker(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self._config.breaker_failure_threshold,
                cooldown_seconds=self._config.breaker_cooldown_seconds,
                half_open_probes=self._config.breaker_half_open_probes,
            )
            self._breakers[tenant] = breaker
        return breaker
