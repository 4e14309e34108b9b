"""Chaos-parity suite for the fault-tolerance layer (:mod:`repro.faults`).

The load-bearing claims, each pinned here:

* **Determinism** — injected faults are a pure hash of
  ``(seed, task_index, attempt)``; the same plan replays identically.
* **Chaos parity** — with fault injection on and retries enabled,
  results, ``CallStats`` and ``TokenBucket`` levels are bit-identical to
  the fault-free run on every backend × worker count, including a
  simulated worker crash on each backend.
* **Graceful degradation** — a spec that exhausts its retries
  dead-letters (error + traceback captured) under ``on_error="skip"``
  and aborts with shard context under ``"raise"``.
* **Kill–resume** — a sweep interrupted after a partial manifest resumes
  to a result set bit-identical to the undisturbed run.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.adsapi import AdsManagerAPI
from repro.core.collection import AudienceSizeCollector
from repro.core.quantiles import AudienceAccumulator
from repro.core.results import ScenarioResult
from repro.core.selection import RandomSelection
from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    PanelError,
    ShardFailedError,
    TransientApiError,
    WorkerCrashError,
)
from repro.exec import ShardExecutor, make_runner
from repro.faults import (
    FAULT_DEPTHS,
    FAULT_RATE_ENV,
    FAULT_SEED_ENV,
    FaultPlan,
    RetryPolicy,
    WallClockRetryPolicy,
    ambient_chaos,
    fire_inner,
    guarded_call,
    run_guarded,
)
from repro.reach import country_codes
from repro.scenarios import (
    RunManifest,
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    run_scenario,
)
from repro.scenarios.manifest import ManifestEntry

from _builders import fresh_legacy_api

#: A plan busy enough that every kind fires somewhere on a small task set.
CHAOS = FaultPlan(seed=5, transient_rate=0.3, error_rate=0.2, slow_rate=0.2)

#: Enough attempts to outlast CHAOS's max_faults_per_task bound.
RETRIES = RetryPolicy(max_attempts=CHAOS.max_faults_per_task + 1)


def _square(x: int) -> int:
    return x * x


class TestFaultPlan:
    def test_decisions_are_deterministic_and_instance_independent(self):
        plan_a = FaultPlan(seed=9, transient_rate=0.2, error_rate=0.2, crash_rate=0.1)
        plan_b = FaultPlan(seed=9, transient_rate=0.2, error_rate=0.2, crash_rate=0.1)
        decisions = [plan_a.decide(i, a) for i in range(50) for a in range(3)]
        assert decisions == [plan_b.decide(i, a) for i in range(50) for a in range(3)]
        assert any(d is not None for d in decisions)

    def test_different_seeds_give_different_schedules(self):
        one = FaultPlan(seed=1, error_rate=0.5).preview(64)
        two = FaultPlan(seed=2, error_rate=0.5).preview(64)
        assert one != two

    def test_max_faults_per_task_bounds_the_stream(self):
        plan = FaultPlan(seed=3, error_rate=1.0, max_faults_per_task=2)
        assert plan.decide(0, 0) is not None
        assert plan.decide(0, 1) is not None
        assert plan.decide(0, 2) is None  # guaranteed-clean attempt

    def test_fire_raises_the_decided_kind(self):
        plan = FaultPlan(seed=3, transient_rate=1.0)
        with pytest.raises(TransientApiError) as excinfo:
            plan.fire(0, 0)
        assert excinfo.value.retry_after_seconds == plan.retry_after_seconds
        with pytest.raises(InjectedFaultError):
            FaultPlan(seed=3, error_rate=1.0).fire(0, 0)
        with pytest.raises(WorkerCrashError):
            FaultPlan(seed=3, crash_rate=1.0).fire(0, 0)
        # "slow" returns its decision instead of raising.
        decision = FaultPlan(seed=3, slow_rate=1.0, slow_seconds=7.0).fire(0, 0)
        assert decision.kind == "slow" and decision.seconds == 7.0

    def test_restricted_keeps_only_named_kinds(self):
        crash_only = CHAOS.restricted("crash")
        assert crash_only.transient_rate == 0.0
        assert crash_only.error_rate == 0.0
        assert crash_only.slow_rate == 0.0
        assert crash_only.crash_rate == CHAOS.crash_rate
        assert crash_only.seed == CHAOS.seed
        with pytest.raises(ConfigurationError):
            CHAOS.restricted("meteor")

    def test_derive_follows_the_seed_discipline(self):
        assert FaultPlan.derive(11, "sweep").seed == FaultPlan.derive(11, "sweep").seed
        assert FaultPlan.derive(11, "sweep").seed != FaultPlan.derive(11, "shard").seed

    def test_invalid_plans_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, transient_rate=0.6, error_rate=0.6)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, max_faults_per_task=-1)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, slow_seconds=-1.0)

    def test_preview_lists_every_decision(self):
        plan = FaultPlan(seed=5, error_rate=0.5, max_faults_per_task=2)
        decisions = plan.preview(32, attempts=2)
        assert decisions == [
            d
            for i in range(32)
            for a in range(2)
            if (d := plan.decide(i, a)) is not None
        ]


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay_seconds=1.0, multiplier=3.0, max_delay_seconds=5.0)
        assert policy.backoff_delay(0) == 1.0
        assert policy.backoff_delay(1) == 3.0
        assert policy.backoff_delay(2) == 5.0  # capped

    def test_retry_after_hint_raises_the_floor(self):
        policy = RetryPolicy(base_delay_seconds=0.1)
        error = TransientApiError(retry_after_seconds=9.0)
        assert policy.backoff_delay(0, error) == 9.0

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientApiError())
        assert policy.is_retryable(WorkerCrashError("boom"))
        assert not policy.is_retryable(ConfigurationError("bad"))
        assert not policy.is_retryable(PanelError("bad"))

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_seconds=0.0)


class TestGuardedCall:
    def test_transient_faults_retry_to_success(self):
        plan = FaultPlan(seed=3, transient_rate=1.0, max_faults_per_task=2)
        value, attempts = guarded_call(
            _square, 6, index=0, retry=RetryPolicy(max_attempts=3), faults=plan
        )
        assert value == 36
        assert attempts == 3  # two injected failures, then the clean attempt

    def test_without_retry_the_fault_propagates(self):
        plan = FaultPlan(seed=3, error_rate=1.0)
        with pytest.raises(InjectedFaultError):
            run_guarded(_square, 6, index=0, faults=plan)

    def test_non_retryable_errors_fail_fast(self):
        calls = []

        def explode(x):
            calls.append(x)
            raise ConfigurationError("not transient")

        with pytest.raises(ConfigurationError):
            guarded_call(explode, 1, index=0, retry=RetryPolicy(max_attempts=5))
        assert len(calls) == 1

    def test_exhausted_attempts_annotate_the_error(self):
        plan = FaultPlan(seed=3, error_rate=1.0, max_faults_per_task=10)
        with pytest.raises(InjectedFaultError) as excinfo:
            guarded_call(
                _square, 6, index=0, retry=RetryPolicy(max_attempts=3), faults=plan
            )
        assert excinfo.value.attempts == 3

    def test_deadline_stops_retrying_early(self):
        plan = FaultPlan(seed=3, transient_rate=1.0, max_faults_per_task=10)
        policy = RetryPolicy(
            max_attempts=50,
            base_delay_seconds=10.0,
            multiplier=1.0,
            deadline_seconds=25.0,
        )
        with pytest.raises(TransientApiError) as excinfo:
            guarded_call(_square, 6, index=0, retry=policy, faults=plan)
        # 10s + 10s backoffs fit the 25s budget, the third does not.
        assert excinfo.value.attempts == 3

    def test_base_attempt_offsets_the_fault_stream(self):
        plan = FaultPlan(seed=3, error_rate=1.0, max_faults_per_task=2)
        # Starting past the fault bound, the task runs clean first try.
        value, attempts = guarded_call(
            _square, 6, index=0, faults=plan, base_attempt=plan.max_faults_per_task
        )
        assert (value, attempts) == (36, 1)


class TestWallClockRetryPolicy:
    """The service-side retry policy: same contract, real clock, full jitter."""

    def _virtual_timer_pair(self):
        """A fake (timer, sleeper) pair: sleeping advances the timer."""
        now = [0.0]
        sleeps: list[float] = []

        def timer() -> float:
            return now[0]

        def sleeper(seconds: float) -> None:
            sleeps.append(seconds)
            now[0] += seconds

        return timer, sleeper, sleeps

    def test_jitter_is_seeded_and_reproducible(self):
        policy = WallClockRetryPolicy(jitter_seed=7)
        twin = WallClockRetryPolicy(jitter_seed=7)
        pairs = [(a, s) for a in range(4) for s in range(3)]
        delays = [policy.backoff_delay(a, salt=s) for a, s in pairs]
        assert delays == [twin.backoff_delay(a, salt=s) for a, s in pairs]
        assert delays != [
            WallClockRetryPolicy(jitter_seed=8).backoff_delay(a, salt=s)
            for a, s in pairs
        ]

    def test_full_jitter_stays_under_the_exponential_cap(self):
        wall = WallClockRetryPolicy(jitter_seed=3)
        sim = RetryPolicy()  # shares the exponential-cap knobs
        for attempt in range(12):
            cap = sim.backoff_delay(attempt)
            for salt in range(5):
                assert 0.0 <= wall.backoff_delay(attempt, salt=salt) <= cap

    def test_salts_decorrelate_concurrent_callers(self):
        # Same attempt, different callers: the reach service salts with
        # the request id precisely so a shared outage does not stampede.
        policy = WallClockRetryPolicy(jitter_seed=1)
        delays = {policy.backoff_delay(0, salt=s) for s in range(16)}
        assert len(delays) > 1

    def test_retry_after_hint_raises_the_floor(self):
        policy = WallClockRetryPolicy(jitter_seed=1, base_delay_seconds=0.01)
        hinted = TransientApiError("throttled", retry_after_seconds=9.0)
        assert policy.backoff_delay(0, hinted, salt=0) >= 9.0

    def test_describe_reports_the_clock(self):
        wall = WallClockRetryPolicy(jitter_seed=4).describe()
        assert wall["clock"] == "wall"
        assert wall["jitter"] == "full"
        assert wall["jitter_seed"] == 4
        assert RetryPolicy().describe()["clock"] == "sim"

    def test_policy_is_picklable_with_default_timer_pair(self):
        # The timer/sleeper defaults resolve lazily, so the policy ships
        # to process-pool workers like the simulated one does.
        policy = WallClockRetryPolicy(max_attempts=4, jitter_seed=2)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy
        assert clone.backoff_delay(1, salt=0) == policy.backoff_delay(1, salt=0)

    def test_injected_timer_pair_drives_guarded_call_without_sleeping(self):
        timer, sleeper, sleeps = self._virtual_timer_pair()
        plan = FaultPlan(seed=3, transient_rate=1.0, max_faults_per_task=2)
        policy = WallClockRetryPolicy(
            max_attempts=3, jitter_seed=1, timer=timer, sleeper=sleeper
        )
        value, attempts = guarded_call(
            _square, 6, index=0, retry=policy, faults=plan
        )
        assert (value, attempts) == (36, 3)
        hinted = TransientApiError("", retry_after_seconds=plan.retry_after_seconds)
        assert sleeps == pytest.approx(
            [policy.backoff_delay(a, hinted, salt=0) for a in (0, 1)]
        )

    def test_wall_deadline_measured_on_the_injected_timer(self):
        timer, sleeper, sleeps = self._virtual_timer_pair()
        # The injected retry_after floor (6s) already blows the 5s budget,
        # so the first failure gives up without sleeping at all.
        plan = FaultPlan(
            seed=3, transient_rate=1.0, retry_after_seconds=6.0,
            max_faults_per_task=10,
        )
        policy = WallClockRetryPolicy(
            max_attempts=50, deadline_seconds=5.0, timer=timer, sleeper=sleeper
        )
        with pytest.raises(TransientApiError) as excinfo:
            guarded_call(_square, 6, index=0, retry=policy, faults=plan)
        assert excinfo.value.attempts == 1
        assert sleeps == []


class TestKernelDepthInjection:
    """Plans with ``depth="kernel"`` fire at :func:`fire_inner` sites."""

    def test_fire_inner_is_a_no_op_without_context(self):
        fire_inner("kernel")  # outside any guarded_call: nothing to fire

    def test_depth_is_validated(self):
        assert FAULT_DEPTHS == ("guard", "kernel", "cache", "billing")
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, error_rate=0.1, depth="basement")
        # Latency and worker exits belong to the guard layer only.
        for inner in ("kernel", "cache", "billing"):
            with pytest.raises(ConfigurationError):
                FaultPlan(seed=1, slow_rate=0.1, depth=inner)
            with pytest.raises(ConfigurationError):
                FaultPlan(seed=1, crash_rate=0.1, depth=inner)

    def test_kernel_faults_fire_inside_the_task_body(self):
        plan = FaultPlan(seed=3, error_rate=1.0, depth="kernel", max_faults_per_task=1)
        entered = []

        def body(x):
            entered.append(x)
            fire_inner("kernel")
            return x

        with pytest.raises(InjectedFaultError):
            run_guarded(body, 1, index=0, faults=plan)
        # Unlike guard depth, the body was already running when it failed.
        assert entered == [1]

    def test_kernel_faults_retry_to_convergence(self):
        plan = FaultPlan(seed=3, error_rate=1.0, depth="kernel", max_faults_per_task=2)

        def body(x):
            fire_inner("kernel")
            return x * x

        value, attempts = guarded_call(
            body, 6, index=0, retry=RetryPolicy(max_attempts=3), faults=plan
        )
        assert (value, attempts) == (36, 3)

    def test_sites_and_depths_must_match(self):
        plan = FaultPlan(seed=3, error_rate=1.0, depth="kernel", max_faults_per_task=10)

        def body(x):
            fire_inner("guard")  # wrong site: stays silent
            return x

        assert run_guarded(body, 5, index=0, faults=plan) == 5
        # The context is reset after the call — later sites see nothing.
        fire_inner("kernel")

    def test_guard_depth_plans_never_reach_inner_sites(self):
        plan = FaultPlan(seed=3, error_rate=1.0, max_faults_per_task=1)

        def body(x):
            fire_inner("kernel")  # must not double-fire the same decision
            return x

        with pytest.raises(InjectedFaultError):
            run_guarded(body, 1, index=0, faults=plan)
        # Consumed at the guard: attempt 1 runs clean, body included.
        value, attempts = guarded_call(
            body, 7, index=0, retry=RetryPolicy(max_attempts=2), faults=plan
        )
        assert (value, attempts) == (7, 2)


class TestRunnerFaultTolerance:
    TASKS = list(range(40))
    EXPECTED = [x * x for x in TASKS]

    @pytest.mark.parametrize(
        "backend,workers",
        [
            ("serial", 1),
            ("thread", 3),
            pytest.param("process", 2, marks=pytest.mark.slow),
        ],
    )
    def test_chaos_run_matches_fault_free(self, backend, workers):
        runner = make_runner(backend, workers, retry=RETRIES, faults=CHAOS)
        assert runner.run(_square, self.TASKS) == self.EXPECTED
        assert list(runner.stream(_square, self.TASKS)) == self.EXPECTED

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_simulated_worker_crash_is_retried_in_process(self, backend, workers):
        crash = FaultPlan(seed=11, crash_rate=0.3, max_faults_per_task=1)
        runner = make_runner(
            backend, workers, retry=RetryPolicy(max_attempts=2), faults=crash
        )
        assert crash.preview(len(self.TASKS))  # the plan does fire
        assert runner.run(_square, self.TASKS) == self.EXPECTED

    @pytest.mark.slow
    def test_process_pool_crash_recovery(self):
        # On the process backend a "crash" decision hard-exits the worker,
        # breaking the pool for real; the runner rebuilds it and resubmits
        # every unfinished shard with an advanced attempt counter.
        crash = FaultPlan(seed=11, crash_rate=0.15, max_faults_per_task=1)
        runner = make_runner(
            "process", 3, retry=RetryPolicy(max_attempts=5), faults=crash
        )
        assert crash.preview(len(self.TASKS))
        assert runner.run(_square, self.TASKS) == self.EXPECTED

    @pytest.mark.slow
    def test_process_pool_crash_without_retry_surfaces_shard_context(self):
        crash = FaultPlan(seed=11, crash_rate=1.0, max_faults_per_task=1)
        runner = make_runner("process", 2, faults=crash)
        with pytest.raises(ShardFailedError) as excinfo:
            runner.run(_square, self.TASKS)
        assert excinfo.value.backend == "process"
        assert isinstance(excinfo.value.cause, WorkerCrashError)

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_failures_surface_with_shard_context(self, backend, workers):
        doomed = FaultPlan(seed=3, error_rate=1.0, max_faults_per_task=1)
        runner = make_runner(backend, workers, faults=doomed)
        with pytest.raises(ShardFailedError) as excinfo:
            runner.run(_square, self.TASKS)
        assert excinfo.value.shard_index == 0
        assert excinfo.value.backend == backend
        assert isinstance(excinfo.value.cause, InjectedFaultError)
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)

    def test_plain_serial_runner_stays_raw(self, monkeypatch):
        # Without a fault layer the serial backend is the zero-overhead
        # passthrough it always was: exceptions propagate unwrapped.
        # (Ambient chaos would deliberately add the layer, so clear it —
        # the chaos CI lane runs this suite with REPRO_FAULT_RATE set.)
        monkeypatch.delenv(FAULT_RATE_ENV, raising=False)
        monkeypatch.delenv(FAULT_SEED_ENV, raising=False)

        def explode(x):
            raise ValueError("raw")

        with pytest.raises(ValueError):
            make_runner("serial").run(explode, [1])

    def test_guarded_serial_stream_is_still_lazy(self):
        runner = make_runner("serial", retry=RETRIES, faults=CHAOS)
        seen = []

        def fn(x):
            seen.append(x)
            return x

        stream = runner.stream(fn, [1, 2, 3])
        assert seen == []
        assert next(stream) == 1


class TestCollectionChaosParity:
    """Fault injection through the collection stack: samples AND billing."""

    def _accounting(self, api: AdsManagerAPI) -> tuple:
        return (api.call_stats(), api.rate_limiter.available_tokens, api.clock.now())

    @pytest.mark.parametrize(
        "backend,workers",
        [
            ("serial", 1),
            pytest.param("thread", 2, marks=pytest.mark.slow),
        ],
    )
    def test_bit_identical_to_fault_free(self, simulation, backend, workers):
        reference_api = fresh_legacy_api(simulation)
        reference = AudienceSizeCollector(
            reference_api, simulation.panel, max_interests=8,
            locations=country_codes(),
        ).collect(
            RandomSelection(seed=13),
            executor=ShardExecutor(backend=backend, workers=workers, shard_size=7),
        )

        api = fresh_legacy_api(simulation)
        chaotic = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        ).collect(
            RandomSelection(seed=13),
            executor=ShardExecutor(
                backend=backend,
                workers=workers,
                shard_size=7,
                retry=RETRIES,
                faults=CHAOS,
            ),
        )
        assert np.array_equal(chaotic.matrix, reference.matrix, equal_nan=True)
        assert chaotic.user_ids == reference.user_ids
        # Exactly-once billing: retried shards leave no accounting trace.
        assert self._accounting(api) == self._accounting(reference_api)


class TestBillingChaosParity:
    """Plans with ``depth="billing"`` fire inside ``settle_reach_bill``.

    The fire site sits *before* the bucket drain, so a faulted settle
    must leave zero accounting trace and a retried settle must land
    exactly once — throttle counters, bucket level and clock all
    bit-identical to a fault-free run.
    """

    def _accounting(self, api: AdsManagerAPI) -> tuple:
        return (api.call_stats(), api.rate_limiter.available_tokens, api.clock.now())

    def test_faulted_settle_leaves_no_accounting_trace(self, simulation):
        api = fresh_legacy_api(simulation)
        untouched = self._accounting(api)
        bill = api.reach_matrix_bill([5, 4, 8])
        plan = FaultPlan(
            seed=5, error_rate=1.0, depth="billing", max_faults_per_task=1
        )
        with pytest.raises(InjectedFaultError):
            run_guarded(api.settle_reach_bill, bill, index=0, faults=plan)
        assert self._accounting(api) == untouched

    def test_retried_settle_bills_exactly_once(self, simulation):
        reference_api = fresh_legacy_api(simulation)
        reference_api.settle_reach_bill(reference_api.reach_matrix_bill([5, 4, 8]))

        api = fresh_legacy_api(simulation)
        plan = FaultPlan(
            seed=5, error_rate=1.0, depth="billing", max_faults_per_task=1
        )
        _, attempts = guarded_call(
            api.settle_reach_bill,
            api.reach_matrix_bill([5, 4, 8]),
            index=0,
            retry=RetryPolicy(max_attempts=3),
            faults=plan,
        )
        assert attempts == 2
        assert self._accounting(api) == self._accounting(reference_api)

    def test_billing_faults_never_fire_at_other_sites(self, simulation):
        # A billing-depth plan must not kill the pure compute path: the
        # shard kernel's fire_inner("kernel") site stays silent under it.
        plan = FaultPlan(
            seed=5, error_rate=1.0, depth="billing", max_faults_per_task=10
        )

        def body(x):
            fire_inner("kernel")
            return x * x

        assert run_guarded(body, 4, index=0, faults=plan) == 16


#: Kernel-depth chaos: error kinds only, raised *inside* the reach-shard
#: body (mid-work, after the API objects exist) rather than at the guard.
KERNEL_CHAOS = FaultPlan(
    seed=21, transient_rate=0.3, error_rate=0.2, depth="kernel"
)

#: Enough attempts to outlast KERNEL_CHAOS's per-task fault bound.
KERNEL_RETRIES = RetryPolicy(max_attempts=KERNEL_CHAOS.max_faults_per_task + 1)


class TestKernelChaosParity:
    """Mid-work injection: the shard body dies *inside* the API kernel.

    Guard-depth parity (above) only proves that a task which never
    started leaves no trace.  Kernel depth is the harder claim: the shard
    body is already holding a worker-local API clone when the fault fires
    mid-stream, and the retry must still converge to bit-identical
    samples and billing — i.e. a half-run shard attempt leaks nothing
    into the merged result or the coordinator-side accounting.
    """

    def _accounting(self, api: AdsManagerAPI) -> tuple:
        return (api.call_stats(), api.rate_limiter.available_tokens, api.clock.now())

    def _collector(self, simulation, api):
        return AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )

    @pytest.mark.parametrize(
        "backend,workers",
        [
            ("serial", 1),
            pytest.param("thread", 2, marks=pytest.mark.slow),
        ],
    )
    def test_collect_sharded_survives_kernel_faults(
        self, simulation, backend, workers
    ):
        reference_api = fresh_legacy_api(simulation)
        reference = self._collector(simulation, reference_api).collect(
            RandomSelection(seed=13),
            executor=ShardExecutor(backend=backend, workers=workers, shard_size=7),
        )

        api = fresh_legacy_api(simulation)
        chaotic = self._collector(simulation, api).collect(
            RandomSelection(seed=13),
            executor=ShardExecutor(
                backend=backend,
                workers=workers,
                shard_size=7,
                retry=KERNEL_RETRIES,
                faults=KERNEL_CHAOS,
            ),
        )
        assert KERNEL_CHAOS.preview(20)  # the plan does fire on this task set
        assert np.array_equal(chaotic.matrix, reference.matrix, equal_nan=True)
        assert chaotic.user_ids == reference.user_ids
        assert self._accounting(api) == self._accounting(reference_api)

    def test_streamed_accumulator_merge_survives_kernel_faults(self, simulation):
        reference_api = fresh_legacy_api(simulation)
        reference = AudienceAccumulator()
        for block in self._collector(simulation, reference_api).collect_stream(
            RandomSelection(seed=13),
            executor=ShardExecutor(shard_size=5),
        ):
            reference.update(block)

        # Chaotic run: blocks stream mid-fault, split across two
        # accumulators merged afterwards — the PR 4 merge path must be
        # oblivious to which attempt produced each block.
        api = fresh_legacy_api(simulation)
        blocks = list(
            self._collector(simulation, api).collect_stream(
                RandomSelection(seed=13),
                executor=ShardExecutor(
                    shard_size=5, retry=KERNEL_RETRIES, faults=KERNEL_CHAOS
                ),
            )
        )
        split = len(blocks) // 2
        left, right = AudienceAccumulator(), AudienceAccumulator()
        for block in blocks[:split]:
            left.update(block)
        for block in blocks[split:]:
            right.update(block)
        merged = left.merge(right).finalize()

        assert np.array_equal(
            merged.to_samples().matrix,
            reference.finalize().to_samples().matrix,
            equal_nan=True,
        )
        assert self._accounting(api) == self._accounting(reference_api)

    def test_kernel_faults_without_retry_surface_shard_context(self, simulation):
        doomed = FaultPlan(seed=3, error_rate=1.0, depth="kernel")
        with pytest.raises(ShardFailedError) as excinfo:
            self._collector(simulation, fresh_legacy_api(simulation)).collect(
                RandomSelection(seed=13),
                executor=ShardExecutor(shard_size=7, faults=doomed),
            )
        assert isinstance(excinfo.value.cause, InjectedFaultError)


def _grid() -> tuple[ScenarioSpec, ...]:
    base = ScenarioSpec(
        name="chaos",
        study="uniqueness",
        factor=80,
        seed=3,
        strategies=("random",),
        probabilities=(0.9,),
        n_bootstrap=10,
    )
    return expand_grid(
        base, {"strategies": [("least_popular",), ("random",)], "seed": [1, 2]}
    )


@pytest.fixture(scope="module")
def grid():
    return _grid()


@pytest.fixture(scope="module")
def reference_results(grid):
    """The undisturbed sweep every chaos/resume variant must reproduce."""
    return SweepRunner(executor=ShardExecutor()).run(grid)


class TestSweepChaosParity:
    @pytest.mark.parametrize(
        "backend,workers",
        [
            ("serial", 1),
            pytest.param("thread", 2, marks=pytest.mark.slow),
            pytest.param("process", 2, marks=pytest.mark.slow),
        ],
    )
    def test_chaos_sweep_is_bit_identical(
        self, grid, reference_results, backend, workers
    ):
        runner = SweepRunner(
            executor=ShardExecutor(backend=backend, workers=workers),
            retry=RETRIES,
            faults=CHAOS,
        )
        report = runner.run_report(grid)
        assert report.ok
        assert report.results == reference_results
        assert report.counts()["retried"] > 0  # chaos actually fired

    @pytest.mark.slow
    def test_chaos_sweep_with_worker_crash_on_process_backend(
        self, grid, reference_results
    ):
        plan = FaultPlan(
            seed=5, transient_rate=0.2, error_rate=0.1, crash_rate=0.2,
            max_faults_per_task=1,
        )
        runner = SweepRunner(
            executor=ShardExecutor(backend="process", workers=2),
            retry=RetryPolicy(max_attempts=4),
            faults=plan,
        )
        report = runner.run_report(grid)
        assert report.ok
        assert report.results == reference_results

    def test_executor_carried_fault_layer_applies(self, grid, reference_results):
        # The whole choice can ride the ShardExecutor handle alone.
        runner = SweepRunner(
            executor=ShardExecutor(retry=RETRIES, faults=CHAOS)
        )
        assert runner.run(grid) == reference_results

    def test_dead_letter_keeps_partial_results(self, grid, reference_results):
        doomed = FaultPlan(seed=5, error_rate=0.5, max_faults_per_task=10)
        runner = SweepRunner(
            executor=ShardExecutor(),
            retry=RetryPolicy(max_attempts=2),
            faults=doomed,
            on_error="skip",
        )
        report = runner.run_report(grid)
        assert not report.ok
        counts = report.counts()
        assert counts["failed"] >= 1
        assert counts["completed"] + counts["failed"] == len(grid)
        # Completed rows are bit-identical to their fault-free selves.
        for result in report.results:
            assert result == reference_results.get(result.scenario)
        for entry in report.manifest.failures():
            assert "InjectedFaultError" in entry.error
            assert "InjectedFaultError" in entry.traceback
            assert entry.attempts == 2

    def test_on_error_raise_aborts_with_shard_context(self, grid):
        doomed = FaultPlan(seed=5, error_rate=0.5, max_faults_per_task=10)
        runner = SweepRunner(
            executor=ShardExecutor(),
            retry=RetryPolicy(max_attempts=2),
            faults=doomed,
        )
        with pytest.raises(ShardFailedError) as excinfo:
            runner.run(grid)
        assert isinstance(excinfo.value.cause, InjectedFaultError)

    def test_unknown_on_error_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(on_error="ignore")


class TestKillResume:
    def test_interrupted_sweep_resumes_bit_identical(
        self, tmp_path, grid, reference_results
    ):
        manifest_path = tmp_path / "manifest.json"
        runner = SweepRunner(executor=ShardExecutor(shard_size=1))

        # Simulate a kill mid-sweep: run only the first half; the
        # incremental manifest on disk is what a dead process leaves.
        runner.run_report(grid[:2], manifest_path=manifest_path)
        half = RunManifest.load(manifest_path)
        assert len(half.completed()) == 2

        report = runner.run_report(
            grid, resume=manifest_path, manifest_path=manifest_path
        )
        assert report.results == reference_results
        assert report.counts()["resumed"] == 2
        # The saved manifest now covers the full grid, in grid order.
        final = RunManifest.load(manifest_path)
        assert [e.scenario for e in final] == [spec.name for spec in grid]

    def test_resume_reruns_edited_specs(self, tmp_path, grid):
        manifest_path = tmp_path / "manifest.json"
        runner = SweepRunner(executor=ShardExecutor())
        runner.run_report(grid, manifest_path=manifest_path)

        # Tamper with one recorded fingerprint: that row must re-run.
        payload = json.loads(manifest_path.read_text())
        payload["entries"][0]["fingerprint"] = "0" * 64
        manifest_path.write_text(json.dumps(payload))

        report = runner.run_report(grid, resume=manifest_path)
        assert report.counts()["resumed"] == len(grid) - 1
        assert report.ok

    def test_resume_skips_dead_letters(self, tmp_path, grid, reference_results):
        manifest_path = tmp_path / "manifest.json"
        doomed = FaultPlan(seed=5, error_rate=0.5, max_faults_per_task=10)
        chaos_runner = SweepRunner(
            executor=ShardExecutor(),
            retry=RetryPolicy(max_attempts=2),
            faults=doomed,
            on_error="skip",
        )
        first = chaos_runner.run_report(grid, manifest_path=manifest_path)
        assert not first.ok

        # Resume without injection: only the dead letters re-run, and the
        # final set matches the undisturbed reference bit-for-bit.
        clean_runner = SweepRunner(executor=ShardExecutor())
        second = clean_runner.run_report(grid, resume=manifest_path)
        assert second.ok
        assert second.results == reference_results
        assert second.counts()["resumed"] == first.counts()["completed"]


class TestManifest:
    def test_round_trip(self, tmp_path):
        result = ScenarioResult(
            scenario="s",
            study="uniqueness",
            seed=1,
            metrics=(("m", 1.5),),
            table=({"strategy": "random", "ci": (1.0, 2.0)},),
            summary=("line",),
        )
        manifest = RunManifest(
            [
                ManifestEntry(
                    scenario="s",
                    fingerprint="f" * 64,
                    status="completed",
                    attempts=2,
                    result=result.to_dict(),
                ),
                ManifestEntry(
                    scenario="t",
                    fingerprint="a" * 64,
                    status="failed",
                    error="InjectedFaultError: boom",
                    traceback="Traceback ...",
                ),
            ]
        )
        path = manifest.save(tmp_path / "m.json")
        loaded = RunManifest.load(path)
        # JSON turns tuples inside result payloads into lists; hydration
        # canonicalises them back (asserted below), so the dict views are
        # compared after the same round trip.
        assert loaded.to_dict() == json.loads(json.dumps(manifest.to_dict()))
        assert loaded.get("s").hydrate() == result
        assert loaded.counts() == {
            "total": 2, "completed": 1, "failed": 1, "retried": 1, "resumed": 0,
        }

    def test_scenario_result_json_round_trip_is_exact(self):
        spec = ScenarioSpec(
            name="rt", study="uniqueness", factor=80, seed=3,
            strategies=("random",), probabilities=(0.9,), n_bootstrap=10,
        )
        result = run_scenario(spec)
        hydrated = ScenarioResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert hydrated == result

    def test_reusable_requires_matching_fingerprint_and_completion(self):
        entry = ManifestEntry(
            scenario="s", fingerprint="f", status="completed", result={"x": 1}
        )
        dead = ManifestEntry(
            scenario="t", fingerprint="g", status="failed", error="boom"
        )
        manifest = RunManifest([entry, dead])
        assert manifest.reusable("f", "s") is entry
        assert manifest.reusable("other", "s") is None
        assert manifest.reusable("g", "t") is None  # failed entries never reuse
        assert manifest.reusable("f", "missing") is None

    def test_invalid_entries_and_files_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ManifestEntry(scenario="s", fingerprint="f", status="nope")
        with pytest.raises(ConfigurationError):
            ManifestEntry(scenario="s", fingerprint="f", status="completed")
        with pytest.raises(ConfigurationError):
            ManifestEntry(scenario="s", fingerprint="f", status="failed")
        with pytest.raises(ConfigurationError):
            RunManifest.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ConfigurationError):
            RunManifest.load(bad)
        bad.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ConfigurationError):
            RunManifest.load(bad)
        bad.write_text(json.dumps({"version": 1, "entries": {}}))
        with pytest.raises(ConfigurationError):
            RunManifest.load(bad)

    def test_spec_fingerprint_tracks_every_field(self):
        spec = ScenarioSpec(name="s", study="uniqueness", seed=1)
        same = ScenarioSpec(name="s", study="uniqueness", seed=1)
        assert spec.fingerprint() == same.fingerprint()
        assert spec.fingerprint() != ScenarioSpec(
            name="s", study="uniqueness", seed=2
        ).fingerprint()
        assert spec.fingerprint() != ScenarioSpec(
            name="s", study="uniqueness", seed=1, n_bootstrap=11
        ).fingerprint()


class TestAmbientChaos:
    def test_disabled_without_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
        assert ambient_chaos() == (None, None)
        monkeypatch.setenv("REPRO_FAULT_RATE", "0")
        assert ambient_chaos() == (None, None)

    def test_environment_builds_a_converging_pair(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.3")
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        retry, plan = ambient_chaos()
        assert plan.total_rate == pytest.approx(0.3)
        assert plan.crash_rate == 0.0  # ambient chaos never crashes workers
        assert retry.max_attempts > plan.max_faults_per_task

    def test_ambient_chaos_applies_to_default_runners(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.4")
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        runner = make_runner("serial")
        assert runner.faults is not None and runner.retry is not None
        tasks = list(range(30))
        assert runner.run(_square, tasks) == [x * x for x in tasks]
        # Explicit configuration always wins over the environment.
        assert make_runner("serial", retry=RETRIES).faults is None

    def test_invalid_rate_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "nope")
        with pytest.raises(ConfigurationError):
            ambient_chaos()
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.5")
        with pytest.raises(ConfigurationError):
            ambient_chaos()
