"""Tests for the always-on reach service (repro.service).

Everything runs on virtual time: deadlines, backoff, breaker cooldowns
and queue trajectories are all driven tick by tick through the injected
clocks, so each scenario — including the chaos ones — is
bit-reproducible.  The load-bearing contracts pinned here:

* queue/deadline/shedding semantics (typed rejections, never unbounded
  waits);
* circuit-breaker state transitions (closed → open → half-open →
  closed/reopen) and per-tenant isolation;
* coalescer batching boundaries and per-tenant fairness under a hot
  tenant;
* admitted-query bit-parity with direct ``estimate_reach_matrix`` calls,
  with and without injected faults;
* exactly-once billing of coalesced batches across retries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import build_cached_simulation, fresh_legacy_api, fresh_modern_api

from repro.adsapi import AdsManagerAPI
from repro.config import PlatformConfig
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    RequestFailedError,
    TargetingValidationError,
    TenantThrottledError,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.service import (
    CircuitBreaker,
    PendingQueue,
    QueuedRequest,
    ReachRequest,
    ReachResponse,
    ReachService,
    RequestTrace,
    ServiceConfig,
    coalesce_reach,
    direct_reach,
    run_trace,
)
from repro.simclock import SimClock


@pytest.fixture(scope="module")
def simulation():
    return build_cached_simulation()


@pytest.fixture(scope="module")
def interest_pool(simulation):
    return [int(x) for x in simulation.catalog.interest_ids]


def make_service(simulation, **kwargs):
    config = kwargs.pop("config", None) or ServiceConfig(**kwargs.pop("knobs", {}))
    return ReachService(fresh_modern_api(simulation), config=config, **kwargs)


def request_for(interest_pool, tenant="tenant-a", n=4, offset=0, timeout=None):
    return ReachRequest(
        tenant=tenant,
        interests=tuple(interest_pool[offset : offset + n]),
        timeout_seconds=timeout,
    )


SUSPENDED = "account act_000001 is suspended and cannot use the API"

#: Every admission rejection: (interests from the pool, service set-up,
#: exact detail).  All but the unknown-id rows are the messages a direct
#: bulk call (or the service's own limits) gave before admission ran the
#: row rules itself.
REJECTIONS = [
    pytest.param(
        lambda pool: (), "modern", "a reach request needs at least one interest",
        id="empty",
    ),
    pytest.param(
        lambda pool: (pool[0], pool[1], pool[0]), "modern",
        "interests must not contain duplicates", id="duplicate",
    ),
    pytest.param(
        lambda pool: (pool[0], -1), "modern", "interest ids must be non-negative",
        id="negative",
    ),
    pytest.param(
        lambda pool: (-1, -1), "modern", "interest ids must be non-negative",
        id="negative-repeated",
    ),
    pytest.param(
        lambda pool: tuple(pool[:26]), "modern",
        "at most 25 interests are allowed in an audience, got 26", id="26-ids",
    ),
    pytest.param(
        lambda pool: (*pool[:25], -2), "modern",
        "at most 25 interests are allowed in an audience, got 26",
        id="26-ids-with-a-negative",
    ),
    pytest.param(
        lambda pool: tuple(pool[:65]), "modern",
        "request of 65 cells exceeds the per-tick batch budget of 64", id="65-ids",
    ),
    pytest.param(
        lambda pool: tuple(pool[:51]), "modern",
        "request of 51 cells exceeds the tenant burst capacity of 50", id="51-ids",
    ),
    pytest.param(
        lambda pool: (pool[0],), "unknown-location", "unknown location code: 'XX'",
        id="unknown-location",
    ),
    pytest.param(
        lambda pool: (pool[0],), "legacy-worldwide",
        "the worldwide location is not available on this platform version; "
        "a specific location (country, region, town or ZIP code) is required",
        id="legacy-worldwide",
    ),
    pytest.param(
        lambda pool: (pool[0],), "suspended-unknown-location", SUSPENDED,
        id="suspended-and-unknown-location",
    ),
    pytest.param(
        lambda pool: (pool[0], 10**9), "modern", "unknown interest id: 1000000000",
        id="unknown-id",
    ),
    pytest.param(
        lambda pool: (2**70, pool[0]), "modern", f"unknown interest id: {2**70}",
        id="id-beyond-int64",
    ),
]


def admission_service(simulation, setup):
    if setup == "legacy-worldwide":
        return ReachService(fresh_legacy_api(simulation), config=ServiceConfig())
    locations = ("XX",) if setup.endswith("unknown-location") else None
    service = make_service(simulation, config=ServiceConfig(locations=locations))
    if setup.startswith("suspended"):
        service.api.account.suspend(at_hours=0.0)
    return service


def entry_for(interest_pool, index, tenant="tenant-a", n=2, **kwargs):
    request = ReachRequest(
        tenant=tenant, interests=tuple(interest_pool[index * n : index * n + n])
    )
    defaults = dict(submitted_at=0.0, deadline=100.0)
    defaults.update(kwargs)
    return QueuedRequest(index=index, request=request, **defaults)


class TestRequestAndResponse:
    def test_request_normalises_and_costs_per_prefix(self, interest_pool):
        request = ReachRequest(tenant="t", interests=[interest_pool[0], interest_pool[1]])
        assert request.interests == (interest_pool[0], interest_pool[1])
        assert request.cost == 2

    def test_request_rejects_empty_tenant_and_bad_timeout(self, interest_pool):
        with pytest.raises(ConfigurationError):
            ReachRequest(tenant="", interests=(interest_pool[0],))
        with pytest.raises(ConfigurationError):
            ReachRequest(tenant="t", interests=(interest_pool[0],), timeout_seconds=0)

    def test_response_status_and_values_are_coupled(self, interest_pool):
        request = request_for(interest_pool)
        with pytest.raises(ConfigurationError):
            ReachResponse(request=request, status="ok")  # ok needs values
        with pytest.raises(ConfigurationError):
            ReachResponse(request=request, status="failed", values=(1.0,))
        with pytest.raises(ConfigurationError):
            ReachResponse(request=request, status="nonsense")

    @pytest.mark.parametrize(
        "status, error_type",
        [
            ("invalid", TargetingValidationError),
            ("throttled", TenantThrottledError),
            ("overloaded", OverloadedError),
            ("deadline_exceeded", DeadlineExceededError),
            ("circuit_open", CircuitOpenError),
            ("failed", RequestFailedError),
        ],
    )
    def test_raise_for_status_maps_to_typed_errors(
        self, interest_pool, status, error_type
    ):
        response = ReachResponse(
            request=request_for(interest_pool),
            status=status,
            retry_after_seconds=3.5,
        )
        with pytest.raises(error_type):
            response.raise_for_status()
        ok = ReachResponse(
            request=request_for(interest_pool, n=1), status="ok", values=(1000.0,)
        )
        ok.raise_for_status()  # no-op

    def test_retry_after_hint_survives_raise(self, interest_pool):
        response = ReachResponse(
            request=request_for(interest_pool),
            status="overloaded",
            retry_after_seconds=2.0,
        )
        with pytest.raises(OverloadedError) as exc_info:
            response.raise_for_status()
        assert exc_info.value.retry_after_seconds == 2.0


class TestPendingQueue:
    def test_capacity_is_in_cells(self, interest_pool):
        queue = PendingQueue(max_cells=4)
        queue.push(entry_for(interest_pool, 0, n=2))
        assert queue.has_room(2) and not queue.has_room(3)
        queue.push(entry_for(interest_pool, 1, n=2))
        assert not queue.has_room(1)
        with pytest.raises(ConfigurationError):
            queue.push(entry_for(interest_pool, 2, n=1))

    def test_pop_batch_round_robins_across_tenants(self, interest_pool):
        queue = PendingQueue(max_cells=100)
        for i in range(3):
            queue.push(entry_for(interest_pool, i, tenant="hot", n=2))
        queue.push(entry_for(interest_pool, 10, tenant="cold", n=2))
        popped = queue.pop_batch(now=1.0, max_cells=4)
        tenants = {entry.request.tenant for entry in popped}
        # Budget of 4 cells = two entries; fairness gives each tenant one
        # before the hot tenant gets a second slot.
        assert tenants == {"hot", "cold"}

    def test_pop_batch_skips_lane_heads_backing_off(self, interest_pool):
        queue = PendingQueue(max_cells=100)
        head = entry_for(interest_pool, 0, tenant="a", n=2, not_before=10.0)
        queue.push(head)
        queue.push(entry_for(interest_pool, 1, tenant="a", n=2))
        queue.push(entry_for(interest_pool, 2, tenant="b", n=2))
        popped = queue.pop_batch(now=1.0, max_cells=10)
        # Tenant a's backoff head blocks its whole lane (FIFO preserved);
        # tenant b proceeds.
        assert [entry.request.tenant for entry in popped] == ["b"]
        popped = queue.pop_batch(now=11.0, max_cells=10)
        assert [entry.index for entry in popped] == [0, 1]

    def test_purge_expired_frees_cells(self, interest_pool):
        queue = PendingQueue(max_cells=4)
        queue.push(entry_for(interest_pool, 0, n=2, deadline=5.0))
        queue.push(entry_for(interest_pool, 1, n=2, deadline=50.0))
        expired = queue.purge_expired(now=6.0)
        assert [entry.index for entry in expired] == [0]
        assert queue.queued_cells == 2 and queue.has_room(2)

    def test_successive_purges_expire_each_deadline_once(self, interest_pool):
        queue = PendingQueue(max_cells=10)
        queue.push(entry_for(interest_pool, 0, deadline=30.0))
        queue.push(entry_for(interest_pool, 1, deadline=10.0))
        assert queue.purge_expired(now=5.0) == []
        assert [entry.index for entry in queue.purge_expired(now=15.0)] == [1]
        assert queue.purge_expired(now=30.0) == []
        assert [entry.index for entry in queue.purge_expired(now=35.0)] == [0]
        assert len(queue) == 0 and queue.queued_cells == 0

    def test_requeue_restores_lane_front(self, interest_pool):
        queue = PendingQueue(max_cells=10)
        first = entry_for(interest_pool, 0, n=2)
        queue.push(first)
        queue.push(entry_for(interest_pool, 1, n=2))
        popped = queue.pop_batch(now=0.0, max_cells=2)
        assert popped == [first]
        queue.requeue(first)
        assert queue.pop_batch(now=0.0, max_cells=2) == [first]


#: Virtual times on a coarse grid, so deadlines and purge times often sit
#: on either side of one another.
_TIMES = st.integers(min_value=0, max_value=10).map(lambda step: 5.0 * step)
_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from(("a", "b", "c")),
            st.integers(min_value=1, max_value=3),
            _TIMES,
            st.sampled_from((0.0, 0.0, 10.0, 30.0)),
        ),
        st.tuples(st.just("requeue"), st.integers(min_value=0, max_value=99), _TIMES),
        st.tuples(st.just("pop"), _TIMES, st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("purge"), _TIMES),
    ),
    max_size=60,
)


class TestPendingQueueProperties:
    @settings(max_examples=200, deadline=None)
    @given(_QUEUE_OPS)
    def test_purge_never_misses_an_expired_entry(self, ops):
        """Random pushes, requeues, pops and purges against a plain list.

        Deadlines arrive out of order, ``now`` moves both ways, and a
        requeued entry may carry an earlier deadline than anything queued,
        so the queue's deadline bound is exercised from every side.
        """
        queue = PendingQueue(max_cells=24)
        queued: list[QueuedRequest] = []
        popped: list[QueuedRequest] = []
        for index, op in enumerate(ops):
            if op[0] == "push":
                _, tenant, cost, deadline, not_before = op
                entry = QueuedRequest(
                    index=index,
                    request=ReachRequest(tenant=tenant, interests=tuple(range(cost))),
                    submitted_at=0.0,
                    deadline=deadline,
                    not_before=not_before,
                )
                if queue.has_room(cost):
                    queue.push(entry)
                    queued.append(entry)
            elif op[0] == "requeue" and popped:
                entry = popped.pop(op[1] % len(popped))
                entry.deadline = op[2]
                queue.requeue(entry)
                queued.append(entry)
            elif op[0] == "pop":
                _, now, budget = op
                batch = queue.pop_batch(now, budget)
                assert sum(entry.cost for entry in batch) <= budget
                for entry in batch:
                    assert entry.not_before <= now
                    queued.remove(entry)
                popped.extend(batch)
            elif op[0] == "purge":
                now = op[1]
                expired = queue.purge_expired(now)
                expected = [entry for entry in queued if now > entry.deadline]
                assert sorted(e.index for e in expired) == sorted(
                    e.index for e in expected
                )
                for entry in expected:
                    queued.remove(entry)
            assert len(queue) == len(queued)
            assert queue.queued_cells == sum(entry.cost for entry in queued)


class TestCircuitBreaker:
    def test_trips_open_on_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=10.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
        assert breaker.state == "closed" and breaker.allow(0.0)
        breaker.record_failure(now=0.0)
        assert breaker.state == "open"
        assert not breaker.allow(5.0)
        assert breaker.retry_after(2.0) == pytest.approx(8.0)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, half_open_probes=1
        )
        breaker.record_failure(now=0.0)
        assert not breaker.allow(9.9)
        assert breaker.allow(10.0)  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow(10.0)  # probe budget spent
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow(10.0)

    def test_half_open_probe_reopens_on_failure(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(now=10.0)
        assert breaker.state == "open"
        assert not breaker.allow(19.9)
        assert breaker.allow(20.0)


class TestAdmission:
    def test_admits_and_serves_one_request(self, simulation, interest_pool):
        service = make_service(simulation)
        request = request_for(interest_pool)
        assert service.submit(request) is None
        responses = service.run_until_idle()
        assert len(responses) == 1 and responses[0].ok
        assert len(responses[0].values) == request.cost

    def test_invalid_requests_shed_immediately(self, simulation, interest_pool):
        service = make_service(simulation)
        empty = ReachRequest(tenant="t", interests=())
        assert service.submit(empty).status == "invalid"
        dup = ReachRequest(
            tenant="t", interests=(interest_pool[0], interest_pool[0])
        )
        assert service.submit(dup).status == "invalid"
        huge = ReachRequest(
            tenant="t", interests=tuple(interest_pool[: 65])
        )
        response = service.submit(huge)
        assert response.status == "invalid"
        assert "batch budget" in response.detail

    @pytest.mark.parametrize("interests, setup, detail", REJECTIONS)
    def test_rejections_carry_the_exact_detail(
        self, simulation, interest_pool, interests, setup, detail
    ):
        service = admission_service(simulation, setup)
        response = service.submit(ReachRequest("t", interests(interest_pool)))
        assert (response.status, response.detail) == ("invalid", detail)
        assert service.counters.shed_invalid == 1
        assert service.queue_depth == 0
        assert service.api.call_stats().reach_estimates == 0

    def test_an_unknown_id_leaves_its_tick_mates_served(
        self, simulation, interest_pool
    ):
        service = make_service(simulation)
        valid = request_for(interest_pool, tenant="t1")
        assert service.submit(valid) is None
        unknown = service.submit(ReachRequest("t2", (10**9, interest_pool[2])))
        assert unknown.status == "invalid"
        responses = service.tick()
        assert [r.request for r in responses] == [valid]
        assert responses[0].ok
        assert responses[0].values == direct_reach(fresh_modern_api(simulation), valid)

    def test_a_backend_without_a_catalog_is_a_configuration_error(self, simulation):
        class CatalogFree:
            def audience_for(self, interest_ids, locations=None, *, combine="and"):
                return 0.0

            def world_size(self, locations=None):
                return 1.0

        with pytest.raises(ConfigurationError, match="interest catalog"):
            ReachService(AdsManagerAPI(CatalogFree()))

    def test_throttles_when_tenant_bucket_empties(self, simulation, interest_pool):
        service = make_service(
            simulation,
            knobs=dict(tenant_requests_per_minute=60.0, tenant_burst=8),
        )
        assert service.submit(request_for(interest_pool, n=8)) is None
        response = service.submit(request_for(interest_pool, n=8, offset=8))
        assert response.status == "throttled"
        assert response.retry_after_seconds > 0
        # A different tenant has its own bucket.
        assert service.submit(request_for(interest_pool, tenant="other", n=8)) is None

    def test_sheds_overloaded_when_queue_full(self, simulation, interest_pool):
        service = make_service(
            simulation,
            knobs=dict(
                max_queue_cells=8,
                tenant_requests_per_minute=6000.0,
                tenant_burst=50,
            ),
        )
        assert service.submit(request_for(interest_pool, n=4)) is None
        assert service.submit(request_for(interest_pool, n=4, offset=4)) is None
        response = service.submit(request_for(interest_pool, n=4, offset=8))
        assert response.status == "overloaded"
        assert response.retry_after_seconds == service.config.tick_seconds
        assert service.counters.shed_overloaded == 1

    def test_every_submission_gets_exactly_one_response(
        self, simulation, interest_pool
    ):
        service = make_service(
            simulation, knobs=dict(max_queue_cells=8, max_batch_cells=4)
        )
        submitted = 12
        responses = []
        for i in range(submitted):
            rejection = service.submit(
                request_for(interest_pool, tenant=f"t{i % 3}", n=2, offset=2 * i)
            )
            if rejection is not None:
                responses.append(rejection)
        responses.extend(service.run_until_idle())
        assert len(responses) == submitted


class TestDeadlines:
    def test_expired_entries_shed_with_deadline_exceeded(
        self, simulation, interest_pool
    ):
        service = make_service(
            simulation, knobs=dict(max_batch_cells=4, tick_seconds=1.0)
        )
        # Cheap deadline: the second request cannot run in tick 1 (batch
        # budget) and its 1.5s deadline passes before tick 2.
        assert (
            service.submit(request_for(interest_pool, n=4, timeout=1.5)) is None
        )
        assert (
            service.submit(
                request_for(interest_pool, n=4, offset=4, timeout=1.5)
            )
            is None
        )
        responses = service.run_until_idle()
        statuses = sorted(r.status for r in responses)
        assert statuses == ["deadline_exceeded", "ok"]
        shed = next(r for r in responses if not r.ok)
        assert shed.latency_seconds >= 1.5

    def test_deadline_uses_service_default_when_unset(
        self, simulation, interest_pool
    ):
        service = make_service(simulation, knobs=dict(default_timeout_seconds=5.0))
        assert service.submit(request_for(interest_pool)) is None
        responses = service.run_until_idle()
        assert responses[0].ok


class TestCoalescer:
    def test_batches_respect_the_cell_budget(self, simulation, interest_pool):
        service = make_service(simulation, knobs=dict(max_batch_cells=4))
        for i in range(3):
            assert (
                service.submit(request_for(interest_pool, n=2, offset=2 * i))
                is None
            )
        first = service.tick()
        # 4-cell budget fits exactly two 2-cell requests.
        assert len(first) == 2 and all(r.ok for r in first)
        second = service.tick()
        assert len(second) == 1 and second[0].ok
        assert service.counters.batches == 2

    def test_one_bulk_call_per_tick_bills_exactly_once(
        self, simulation, interest_pool
    ):
        service = make_service(simulation)
        total_cells = 0
        for i, tenant in enumerate(["a", "b", "c"]):
            request = request_for(interest_pool, tenant=tenant, n=3, offset=3 * i)
            total_cells += request.cost
            assert service.submit(request) is None
        responses = service.run_until_idle()
        assert all(r.ok for r in responses)
        # One merged bill: the API recorded exactly one token per cell.
        assert service.api.call_stats().reach_estimates == total_cells
        assert service.counters.batches == 1

    def test_coalesced_values_equal_direct_calls(self, simulation, interest_pool):
        api = fresh_modern_api(simulation)
        requests = [
            request_for(interest_pool, tenant=f"t{i}", n=4, offset=4 * i)
            for i in range(4)
        ]
        folded = coalesce_reach(api, requests)
        for request, values in zip(requests, folded):
            assert values == direct_reach(fresh_modern_api(simulation), request)


class TestAccountSuspension:
    def test_suspension_after_admission_fails_the_tick_without_billing(
        self, simulation, interest_pool
    ):
        service = make_service(simulation)
        requests = [
            request_for(interest_pool, tenant=tenant, n=3, offset=3 * i)
            for i, tenant in enumerate(["a", "b"])
        ]
        for request in requests:
            assert service.submit(request) is None
        service.api.account.suspend(at_hours=0.0)
        api_clock = service.api.clock.now()
        responses = service.tick()
        assert [(r.request, r.status, r.detail) for r in responses] == [
            (request, "failed", SUSPENDED) for request in requests
        ]
        assert service.queue_depth == 0
        counters = service.counters
        assert (counters.failed, counters.completed, counters.batches) == (2, 0, 0)
        # Nothing was billed, and no tenant is blamed for the account's state.
        assert service.api.call_stats().reach_estimates == 0
        assert service.api.call_stats().rate_limited == 0
        assert service.api.clock.now() == api_clock
        for tenant in ("a", "b"):
            breaker = service.stats()["tenants"][tenant]["breaker"]
            assert (breaker["state"], breaker["consecutive_failures"]) == ("closed", 0)
        later = service.submit(request_for(interest_pool, tenant="a"))
        assert (later.status, later.detail) == ("invalid", SUSPENDED)


class TestApiRateLimitAtTick:
    def test_api_without_auto_wait_throttles_every_popped_entry(
        self, simulation, interest_pool
    ):
        api = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
            auto_wait=False,
        )
        # No fault plan: the ambient chaos lane must not reorder the ticks.
        service = ReachService(api, retry=RetryPolicy(max_attempts=1))
        requests = [
            request_for(interest_pool, tenant=f"t{i % 4}", n=8, offset=8 * i)
            for i in range(24)
        ]
        for request in requests:
            assert service.submit(request) is None
        # One tick pops 64 cells against the API's burst of 60 tokens.
        responses = service.tick()
        assert [r.request for r in responses] == requests[:8]
        assert {r.status for r in responses} == {"throttled"}
        assert all(r.retry_after_seconds > 0 for r in responses)
        assert all(r.detail.startswith("rate limit exceeded") for r in responses)
        assert service.queue_depth == 16
        counters = service.counters
        assert (
            counters.shed_throttled,
            counters.completed,
            counters.failed,
            counters.batches,
        ) == (8, 0, 0, 0)
        assert api.call_stats().reach_estimates == 0
        for tenant in ("t0", "t1", "t2", "t3"):
            breaker = service.stats()["tenants"][tenant]["breaker"]
            assert (breaker["state"], breaker["consecutive_failures"]) == ("closed", 0)
        # The API's clock never moves without auto_wait, so every later
        # tick is throttled too, and every admitted request is answered once.
        responses += service.run_until_idle()
        assert len(responses) == 24
        assert {r.request for r in responses} == set(requests)
        assert {r.status for r in responses} == {"throttled"}
        assert service.counters.shed_throttled == 24
        with pytest.raises(TenantThrottledError):
            responses[-1].raise_for_status()


class TestServiceParity:
    def test_admitted_queries_bit_identical_to_direct_calls(
        self, simulation, interest_pool
    ):
        service = make_service(simulation, knobs=dict(max_batch_cells=8))
        requests = [
            request_for(interest_pool, tenant=f"t{i % 2}", n=3, offset=3 * i)
            for i in range(6)
        ]
        for request in requests:
            assert service.submit(request) is None
        responses = {r.request: r for r in service.run_until_idle()}
        reference = fresh_modern_api(simulation)
        for request in requests:
            response = responses[request]
            assert response.ok
            assert response.values == direct_reach(reference, request)

    def test_parity_holds_under_fault_injection(self, simulation, interest_pool):
        faults = FaultPlan(
            seed=97, transient_rate=0.25, error_rate=0.1, slow_rate=0.15
        )
        service = make_service(
            simulation,
            knobs=dict(max_batch_cells=8, default_timeout_seconds=120.0),
            retry=RetryPolicy(max_attempts=4),
            faults=faults,
        )
        requests = [
            request_for(interest_pool, tenant=f"t{i % 3}", n=3, offset=3 * i)
            for i in range(8)
        ]
        for request in requests:
            assert service.submit(request) is None
        responses = service.run_until_idle()
        served = [r for r in responses if r.ok]
        assert served, "chaos run must still serve requests"
        assert any(r.attempts > 1 for r in served) or service.counters.retries >= 0
        reference = fresh_modern_api(simulation)
        for response in served:
            assert response.values == direct_reach(reference, response.request)

    def test_billing_exactly_once_despite_retries(self, simulation, interest_pool):
        faults = FaultPlan(seed=11, transient_rate=0.5, max_faults_per_task=2)
        service = make_service(
            simulation,
            knobs=dict(default_timeout_seconds=300.0),
            retry=RetryPolicy(max_attempts=4),
            faults=faults,
        )
        requests = [
            request_for(interest_pool, tenant="t", n=2, offset=2 * i)
            for i in range(5)
        ]
        for request in requests:
            assert service.submit(request) is None
        responses = service.run_until_idle()
        assert all(r.ok for r in responses)
        assert service.counters.retries > 0, "the plan must actually fire"
        served_cells = sum(r.request.cost for r in responses)
        # Failed attempts never reach the billing stage: tokens spent ==
        # cells served, no matter how many retries preceded them.
        assert service.api.call_stats().reach_estimates == served_cells


class TestFaultDegradation:
    def test_retry_budget_exhaustion_fails_with_typed_response(
        self, simulation, interest_pool
    ):
        faults = FaultPlan(seed=5, error_rate=1.0, max_faults_per_task=10)
        service = make_service(
            simulation,
            retry=RetryPolicy(max_attempts=2),
            faults=faults,
        )
        assert service.submit(request_for(interest_pool)) is None
        responses = service.run_until_idle()
        assert len(responses) == 1
        assert responses[0].status == "failed"
        assert responses[0].attempts == 2
        assert "retry budget exhausted" in responses[0].detail

    def test_backoff_past_deadline_sheds_early(self, simulation, interest_pool):
        faults = FaultPlan(seed=5, transient_rate=1.0, max_faults_per_task=10)
        service = make_service(
            simulation,
            retry=RetryPolicy(max_attempts=10, base_delay_seconds=100.0),
            faults=faults,
        )
        assert (
            service.submit(request_for(interest_pool, timeout=5.0)) is None
        )
        responses = service.run_until_idle()
        assert responses[0].status == "deadline_exceeded"
        assert "backoff" in responses[0].detail

    def test_slow_fault_latency_can_blow_the_deadline_before_billing(
        self, simulation, interest_pool
    ):
        faults = FaultPlan(
            seed=3, slow_rate=1.0, slow_seconds=50.0, max_faults_per_task=10
        )
        service = make_service(
            simulation, retry=RetryPolicy(max_attempts=2), faults=faults
        )
        assert service.submit(request_for(interest_pool, timeout=10.0)) is None
        responses = service.run_until_idle()
        assert responses[0].status == "deadline_exceeded"
        assert "latency" in responses[0].detail
        # Shed before the coalescer: nothing was billed.
        assert service.api.call_stats().reach_estimates == 0

    def test_crash_faults_are_stripped_from_service_plans(
        self, simulation, interest_pool
    ):
        faults = FaultPlan(seed=9, crash_rate=1.0, max_faults_per_task=10)
        service = make_service(simulation, faults=faults)
        assert service.submit(request_for(interest_pool)) is None
        responses = service.run_until_idle()
        assert responses[0].ok


class TestBreakerIntegration:
    def _failing_service(self, simulation):
        # Every attempt errors and retries are off: each request burns its
        # budget immediately, tripping the breaker threshold.
        faults = FaultPlan(seed=2, error_rate=1.0, max_faults_per_task=1000)
        return make_service(
            simulation,
            knobs=dict(
                breaker_failure_threshold=3,
                breaker_cooldown_seconds=10.0,
                tick_seconds=1.0,
            ),
            retry=RetryPolicy(max_attempts=1),
            faults=faults,
        )

    def test_breaker_opens_after_failures_and_sheds_admission(
        self, simulation, interest_pool
    ):
        service = self._failing_service(simulation)
        for i in range(3):
            assert (
                service.submit(request_for(interest_pool, n=2, offset=2 * i))
                is None
            )
        responses = service.run_until_idle()
        assert [r.status for r in responses] == ["failed"] * 3
        assert service.breaker_state("tenant-a") == "open"
        rejected = service.submit(request_for(interest_pool, n=2, offset=6))
        assert rejected.status == "circuit_open"
        assert rejected.retry_after_seconds > 0

    def test_open_breaker_isolates_one_tenant(self, simulation, interest_pool):
        service = self._failing_service(simulation)
        for i in range(3):
            assert (
                service.submit(
                    request_for(interest_pool, tenant="bad", n=2, offset=2 * i)
                )
                is None
            )
        service.run_until_idle()
        assert service.breaker_state("bad") == "open"
        # The healthy tenant is admitted; its requests only fail because
        # the global plan injects for everyone, but admission is open.
        assert service.breaker_state("good") == "closed"
        assert (
            service.submit(
                request_for(interest_pool, tenant="good", n=2, offset=8)
            )
            is None
        )

    def test_breaker_recovers_through_half_open_probe(
        self, simulation, interest_pool
    ):
        # Seed 33 deterministically fails requests 0 and 1 on their first
        # attempt while request 2 (the probe) runs clean — a transient
        # outage that ends just as the breaker starts probing.
        faults = FaultPlan(seed=33, error_rate=0.7, max_faults_per_task=10)
        service = make_service(
            simulation,
            knobs=dict(
                breaker_failure_threshold=2,
                breaker_cooldown_seconds=3.0,
                tick_seconds=1.0,
            ),
            retry=RetryPolicy(max_attempts=1),
            faults=faults,
        )
        for i in range(2):
            assert (
                service.submit(request_for(interest_pool, n=2, offset=2 * i))
                is None
            )
        service.run_until_idle()
        assert service.breaker_state("tenant-a") == "open"
        # Cooldown has not passed: still shedding.
        assert (
            service.submit(request_for(interest_pool, n=2, offset=4)).status
            == "circuit_open"
        )
        for _ in range(3):
            service.tick()
        # Past the cooldown the probe is admitted; its fault decision is
        # clean (seed choice above), so the success closes the breaker.
        probe = request_for(interest_pool, n=2, offset=6)
        assert service.submit(probe) is None
        responses = service.run_until_idle()
        assert service.breaker_state("tenant-a") == "closed"
        assert any(r.ok and r.request == probe for r in responses)


class TestFairness:
    def test_hot_tenant_cannot_starve_the_cold_ones(
        self, simulation, interest_pool
    ):
        service = make_service(
            simulation,
            knobs=dict(
                max_batch_cells=4,
                max_queue_cells=100,
                tenant_requests_per_minute=60000.0,
                tenant_burst=50,
            ),
        )
        for i in range(10):
            assert (
                service.submit(
                    request_for(interest_pool, tenant="hot", n=2, offset=2 * i)
                )
                is None
            )
        cold = request_for(interest_pool, tenant="cold", n=2, offset=30)
        assert service.submit(cold) is None
        first_tick = service.tick()
        # The very first tick serves the cold tenant alongside the hot
        # one, despite ten hot entries being ahead in arrival order.
        served_tenants = {r.request.tenant for r in first_tick if r.ok}
        assert "cold" in served_tenants

    def test_round_robin_balances_served_counts(self, simulation, interest_pool):
        service = make_service(
            simulation,
            knobs=dict(
                max_batch_cells=4,
                max_queue_cells=200,
                tenant_requests_per_minute=60000.0,
            ),
        )
        for i in range(8):
            for t, tenant in enumerate(["a", "b"]):
                assert (
                    service.submit(
                        request_for(
                            interest_pool,
                            tenant=tenant,
                            n=2,
                            offset=2 * (2 * i + t),
                        )
                    )
                    is None
                )
        served = [r for r in service.run_until_idle() if r.ok]
        by_tenant = {"a": 0, "b": 0}
        for response in served:
            by_tenant[response.request.tenant] += 1
        assert by_tenant["a"] == by_tenant["b"] == 8


class TestTraces:
    def test_generate_is_deterministic_and_replayable(
        self, simulation, tmp_path
    ):
        kwargs = dict(
            seed=42, duration_seconds=20.0, requests_per_second=2.0, tenants=3
        )
        first = RequestTrace.generate(simulation.catalog, **kwargs)
        second = RequestTrace.generate(simulation.catalog, **kwargs)
        assert first == second
        path = first.save(tmp_path / "trace.json")
        assert RequestTrace.load(path) == first

    def test_run_trace_is_bit_reproducible(self, simulation):
        trace = RequestTrace.generate(
            simulation.catalog,
            seed=7,
            duration_seconds=15.0,
            requests_per_second=3.0,
            tenants=3,
        )
        faults = FaultPlan(seed=19, transient_rate=0.2, slow_rate=0.1)

        def run_once():
            service = make_service(
                simulation, retry=RetryPolicy(max_attempts=4), faults=faults
            )
            return run_trace(service, trace)

        first, second = run_once(), run_once()
        assert first.responses == second.responses
        assert first.summary() == second.summary()

    def test_report_percentiles_and_shed_rate(self, simulation):
        trace = RequestTrace.generate(
            simulation.catalog,
            seed=3,
            duration_seconds=10.0,
            requests_per_second=4.0,
            tenants=2,
        )
        service = make_service(simulation)
        report = run_trace(service, trace)
        assert report.status_counts["ok"] == len(report.completed)
        p50 = report.latency_percentile(50.0)
        p99 = report.latency_percentile(99.0)
        assert 0 < p50 <= p99
        assert report.shed_rate == pytest.approx(
            1.0 - len(report.completed) / len(report.responses)
        )

    def test_parity_failures_empty_on_honest_service(self, simulation):
        trace = RequestTrace.generate(
            simulation.catalog,
            seed=5,
            duration_seconds=8.0,
            requests_per_second=3.0,
            tenants=2,
        )
        service = make_service(simulation)
        report = run_trace(service, trace)
        assert report.completed
        assert report.parity_failures(fresh_modern_api(simulation)) == []
        # A corrupted reference is detected.
        broken = report.parity_failures(lambda request: (0.0,) * request.cost)
        assert len(broken) == len(report.completed)

    def test_hot_tenant_trace_sheds_hot_but_serves_cold(self, simulation):
        trace = RequestTrace.generate(
            simulation.catalog,
            seed=13,
            duration_seconds=10.0,
            requests_per_second=12.0,
            tenants=4,
            hot_tenant_share=0.7,
        )
        service = make_service(
            simulation,
            knobs=dict(
                tenant_requests_per_minute=240.0,
                tenant_burst=16,
                max_batch_cells=32,
                max_queue_cells=64,
            ),
        )
        report = run_trace(service, trace)
        shed_by_tenant: dict[str, int] = {}
        for response in report.responses:
            if not response.ok:
                tenant = response.request.tenant
                shed_by_tenant[tenant] = shed_by_tenant.get(tenant, 0) + 1
        served_tenants = {r.request.tenant for r in report.completed}
        # The hot tenant absorbs the overwhelming share of the shedding;
        # every cold tenant still gets served.
        total_shed = sum(shed_by_tenant.values())
        assert total_shed > 0
        assert shed_by_tenant.get("tenant-00", 0) / total_shed >= 0.8
        cold_tenants = {
            item.request.tenant
            for item in trace.requests
            if item.request.tenant != "tenant-00"
        }
        assert cold_tenants <= served_tenants


class TestServiceStats:
    def test_stats_snapshot_shape(self, simulation, interest_pool):
        service = make_service(simulation)
        service.submit(request_for(interest_pool))
        service.run_until_idle()
        stats = service.stats()
        assert stats["counters"]["submitted"] == 1
        assert stats["counters"]["completed"] == 1
        assert stats["queue_depth"] == 0
        tenant = stats["tenants"]["tenant-a"]
        assert tenant["breaker"]["state"] == "closed"
        assert tenant["bucket"]["burst"] == service.config.tenant_burst
