"""Parity of the sharded, streaming collection engine with one fused call.

The contract pinned here: for every runner backend, worker count and shard
size, ``collect`` and ``collect_stream`` return **bit-identical** audience
samples *and* rate-limit accounting (``call_stats``, token-bucket level,
simulated clock) to the fused oracle of ``tests/oracles.py`` — one
whole-panel ``estimate_reach_matrix`` call — including ragged panels and
users without interests, and the streamed accumulator answers quantile and
bootstrap queries bit-identically to the dense matrix without ever
materialising it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PlatformConfig
from repro.adsapi import AdsManagerAPI, CallBill
from repro.core import (
    AudienceAccumulator,
    AudienceSizeCollector,
    LeastPopularSelection,
    RandomSelection,
    UniquenessModel,
    bootstrap_cutpoints,
)
from repro.config import UniquenessConfig
from repro.core.quantiles import AudienceSamples
from repro.countermeasures import (
    InterestCapRule,
    MinActiveAudienceRule,
    evaluate_workload_impact,
    run_protected_experiment,
)
from repro.core import NanotargetingExperiment
from repro.delivery import DeliveryEngine
from repro.errors import ConfigurationError, ModelError, ShardFailedError
from repro.exec import (
    ExecutionPlan,
    FaultPlan,
    ShardExecutor,
    drain,
    make_runner,
)
from repro.fdvt import FDVTPanel
from repro.population import SyntheticUser
from repro.reach import country_codes
from repro.simclock import SimClock

from _builders import fresh_legacy_api
import oracles


def _accounting(api: AdsManagerAPI) -> tuple:
    return (api.call_stats(), api.rate_limiter.available_tokens, api.clock.now())


@pytest.fixture(scope="module")
def reference(simulation):
    """The fused oracle collection plus its end-state accounting."""
    api = fresh_legacy_api(simulation)
    samples = oracles.fused_collect(
        api,
        simulation.panel,
        RandomSelection(seed=13),
        max_interests=8,
        locations=country_codes(),
    )
    return samples, _accounting(api)


class TestExecutionPlan:
    def test_balanced_partition_covers_all_rows(self):
        plan = ExecutionPlan.partition(10, n_shards=3)
        assert [(s.start, s.stop) for s in plan] == [(0, 4), (4, 7), (7, 10)]
        assert plan.max_shard_rows == 4

    def test_shard_size_policy(self):
        plan = ExecutionPlan.partition(10, shard_size=4)
        assert len(plan) == 3
        assert sum(s.size for s in plan) == 10

    def test_more_shards_than_rows_is_clamped(self):
        plan = ExecutionPlan.partition(2, n_shards=8)
        assert len(plan) == 2
        assert all(s.size == 1 for s in plan)

    def test_empty_plan(self):
        assert len(ExecutionPlan.partition(0)) == 0

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan.partition(-1)
        with pytest.raises(ConfigurationError):
            ExecutionPlan.partition(5, n_shards=2, shard_size=2)
        with pytest.raises(ConfigurationError):
            ExecutionPlan.partition(5, shard_size=0)

    def test_non_contiguous_shards_rejected(self):
        from repro.exec import Shard

        with pytest.raises(ConfigurationError):
            ExecutionPlan(n_rows=4, shards=(Shard(0, 0, 2), Shard(1, 3, 4)))


class TestRunners:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 3)])
    def test_run_and_stream_preserve_order(self, backend, workers):
        runner = make_runner(backend, workers)
        items = list(range(7))
        assert runner.run(lambda x: x * x, items) == [x * x for x in items]
        assert list(runner.stream(lambda x: x + 1, items)) == [x + 1 for x in items]

    def test_serial_stream_is_lazy(self):
        runner = make_runner("serial")
        seen = []

        def fn(x):
            seen.append(x)
            return x

        stream = runner.stream(fn, [1, 2, 3])
        assert seen == []
        assert next(stream) == 1
        assert seen == [1]

    def test_unknown_backend_and_bad_workers(self):
        with pytest.raises(ConfigurationError):
            make_runner("warp")
        with pytest.raises(ConfigurationError):
            make_runner("thread", 0)
        with pytest.raises(ConfigurationError):
            make_runner("serial", 2)
        with pytest.raises(ConfigurationError):
            ShardExecutor(backend="warp")


class TestCallBill:
    def test_merge(self):
        assert CallBill.merged([CallBill(1), CallBill(2)]) == CallBill(3)
        assert CallBill.merged([]) == CallBill(0)

    def test_negative_rejected(self):
        with pytest.raises(Exception):
            CallBill(-1)


class TestShardedCollectParity:
    @pytest.mark.parametrize(
        "backend,workers",
        [("serial", 1), ("thread", 2), ("thread", 4)],
    )
    def test_bit_identical_across_backends_and_workers(
        self, simulation, reference, backend, workers
    ):
        ref_samples, ref_accounting = reference
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )
        samples = collector.collect(
            RandomSelection(seed=13),
            executor=ShardExecutor(backend=backend, workers=workers, shard_size=7),
        )
        assert np.array_equal(samples.matrix, ref_samples.matrix, equal_nan=True)
        assert samples.user_ids == ref_samples.user_ids
        assert _accounting(api) == ref_accounting

    def test_process_backend_rebuilds_model_from_spec(self, simulation, reference):
        ref_samples, ref_accounting = reference
        assert simulation.reach_model.spec is not None
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )
        samples = collector.collect(
            RandomSelection(seed=13),
            executor=ShardExecutor(backend="process", workers=2, shard_size=24),
        )
        assert np.array_equal(samples.matrix, ref_samples.matrix, equal_nan=True)
        assert _accounting(api) == ref_accounting

    def test_rebuilt_spec_model_is_bit_identical(self, simulation):
        spec = simulation.reach_model.spec
        rebuilt = spec.build()
        ids = simulation.catalog.interest_ids[:30].reshape(3, 10)
        counts = np.array([10, 4, 0], dtype=np.int64)
        assert np.array_equal(
            rebuilt.prefix_audiences_panel(ids, counts, ("US", "ES")),
            simulation.reach_model.prefix_audiences_panel(ids, counts, ("US", "ES")),
            equal_nan=True,
        )

    def test_shard_size_does_not_change_results(self, simulation, reference):
        ref_samples, ref_accounting = reference
        for shard_size in (1, 3, 1000):
            api = fresh_legacy_api(simulation)
            collector = AudienceSizeCollector(
                api, simulation.panel, max_interests=8, locations=country_codes()
            )
            samples = collector.collect(
                RandomSelection(seed=13),
                executor=ShardExecutor(shard_size=shard_size),
            )
            assert np.array_equal(samples.matrix, ref_samples.matrix, equal_nan=True)
            assert _accounting(api) == ref_accounting

    def test_ragged_panel_with_empty_user(self, simulation):
        catalog = simulation.catalog
        pool = [int(i) for i in catalog.interest_ids[:40]]
        users = [
            SyntheticUser(user_id=1, country="US", interest_ids=tuple(pool[:25])),
            SyntheticUser(user_id=2, country="ES", interest_ids=()),
            SyntheticUser(user_id=3, country="MX", interest_ids=tuple(pool[25:28])),
            SyntheticUser(user_id=4, country="AR", interest_ids=tuple(pool[28:29])),
        ]
        panel = FDVTPanel(users, catalog)
        fused_api = fresh_legacy_api(simulation)
        fused = oracles.fused_collect(
            fused_api,
            panel,
            LeastPopularSelection(),
            max_interests=10,
            locations=country_codes(),
        )
        sharded_api = fresh_legacy_api(simulation)
        sharded = AudienceSizeCollector(
            sharded_api, panel, max_interests=10, locations=country_codes()
        ).collect(LeastPopularSelection(), executor=ShardExecutor(shard_size=1))
        assert np.isnan(sharded.matrix[1]).all()
        assert np.array_equal(sharded.matrix, fused.matrix, equal_nan=True)
        assert _accounting(sharded_api) == _accounting(fused_api)

    def test_all_empty_panel_issues_no_requests(self, simulation):
        users = [
            SyntheticUser(user_id=n, country="US", interest_ids=()) for n in (1, 2, 3)
        ]
        panel = FDVTPanel(users, simulation.catalog)
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, panel, max_interests=5, locations=country_codes()
        )
        samples = collector.collect(
            LeastPopularSelection(), executor=ShardExecutor(shard_size=2)
        )
        assert np.isnan(samples.matrix).all()
        assert samples.matrix.shape == (3, 5)
        assert api.call_stats().reach_estimates == 0


class TestCollectStream:
    def test_blocks_concatenate_to_the_fused_matrix(self, simulation, reference):
        ref_samples, ref_accounting = reference
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )
        blocks = list(
            collector.collect_stream(
                RandomSelection(seed=13), executor=ShardExecutor(shard_size=5)
            )
        )
        assert len(blocks) > 1
        assert all(b.matrix.shape[1] == 8 for b in blocks)
        stacked = np.concatenate([b.matrix for b in blocks])
        assert np.array_equal(stacked, ref_samples.matrix, equal_nan=True)
        assert (
            tuple(uid for b in blocks for uid in b.user_ids) == ref_samples.user_ids
        )
        assert _accounting(api) == ref_accounting

    def test_stream_is_lazy_and_bills_incrementally(self, simulation):
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=4, locations=country_codes()
        )
        stream = collector.collect_stream(
            LeastPopularSelection(), executor=ShardExecutor(shard_size=5)
        )
        # Nothing is ordered, settled or billed until the first block is pulled.
        assert api.call_stats().reach_estimates == 0
        first = next(stream)
        billed = api.call_stats().reach_estimates
        assert billed == np.count_nonzero(~np.isnan(first.matrix))
        remaining = list(stream)
        total = billed + sum(
            np.count_nonzero(~np.isnan(b.matrix)) for b in remaining
        )
        assert api.call_stats().reach_estimates == total

    def test_failed_shard_accounting_collect_vs_stream(self, simulation):
        # A kernel fault kills one shard mid-collection.  Both consumers
        # settled the merged bill up front (tokens and clock already
        # spent), but ``collect`` records its calls only after the last
        # block — none — while a drained stream has recorded every shard
        # it yielded before the failure.
        doomed = FaultPlan(seed=3, error_rate=0.5, depth="kernel")
        executor = ShardExecutor(shard_size=7, faults=doomed)
        first_failure = next(
            index for index in range(100) if doomed.decide(index, 0) is not None
        )
        assert first_failure > 0

        def collector(api):
            return AudienceSizeCollector(
                api, simulation.panel, max_interests=8, locations=country_codes()
            )

        def settled(api):
            return api.rate_limiter.available_tokens, api.clock.now()

        strategy = RandomSelection(seed=13)
        reference_api = fresh_legacy_api(simulation)
        collector(reference_api).collect(strategy, executor=ShardExecutor(shard_size=7))

        api = fresh_legacy_api(simulation)
        with pytest.raises(ShardFailedError):
            collector(api).collect(strategy, executor=executor)
        assert api.call_stats().reach_estimates == 0
        assert settled(api) == settled(reference_api)

        stream_api = fresh_legacy_api(simulation)
        yielded = []
        with pytest.raises(ShardFailedError):
            for block in collector(stream_api).collect_stream(
                strategy, executor=executor
            ):
                yielded.append(block)
        assert len(yielded) == first_failure
        recorded = sum(np.count_nonzero(~np.isnan(b.matrix)) for b in yielded)
        assert stream_api.call_stats().reach_estimates == recorded > 0
        assert settled(stream_api) == settled(reference_api)

    def test_accumulator_matches_dense_samples(self, simulation, reference):
        ref_samples, _ = reference
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )
        streamed = drain(
            collector.collect_stream(
                RandomSelection(seed=13), executor=ShardExecutor(shard_size=6)
            ),
            AudienceAccumulator(),
        )
        assert streamed.n_users == ref_samples.n_users
        assert streamed.max_interests == ref_samples.max_interests
        assert streamed.user_ids == ref_samples.user_ids
        qs = [25.0, 50.0, 90.0, 95.0]
        assert np.array_equal(
            streamed.vas_many(qs), ref_samples.vas_many(qs), equal_nan=True
        )
        rng = np.random.default_rng(5)
        idx = rng.integers(0, ref_samples.n_users, size=(4, ref_samples.n_users))
        assert np.array_equal(
            streamed.take_rows(idx), ref_samples.matrix[idx], equal_nan=True
        )
        assert np.array_equal(
            streamed.to_samples().matrix, ref_samples.matrix, equal_nan=True
        )

    def test_accumulator_merge_matches_single_accumulator(self, simulation, reference):
        ref_samples, _ = reference
        collector = AudienceSizeCollector(
            fresh_legacy_api(simulation),
            simulation.panel,
            max_interests=8,
            locations=country_codes(),
        )
        blocks = list(
            collector.collect_stream(
                RandomSelection(seed=13), executor=ShardExecutor(shard_size=4)
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
            merged.to_samples().matrix, ref_samples.matrix, equal_nan=True
        )

    def test_streamed_bootstrap_is_bit_identical(self, simulation, reference):
        ref_samples, _ = reference
        collector = AudienceSizeCollector(
            fresh_legacy_api(simulation),
            simulation.panel,
            max_interests=8,
            locations=country_codes(),
        )
        streamed = drain(
            collector.collect_stream(
                RandomSelection(seed=13), executor=ShardExecutor(shard_size=9)
            ),
            AudienceAccumulator(),
        )
        qs = (50.0, 90.0)
        dense = bootstrap_cutpoints(ref_samples, qs, n_bootstrap=60, seed=7)
        stream = bootstrap_cutpoints(streamed, qs, n_bootstrap=60, seed=7)
        for q in qs:
            assert np.array_equal(dense[q], stream[q], equal_nan=True)

    def test_accumulator_rejects_misuse(self, simulation):
        accumulator = AudienceAccumulator()
        with pytest.raises(ModelError):
            accumulator.finalize()
        block = AudienceSamples(np.array([[1.0, np.nan]]), floor=20)
        other_floor = AudienceSamples(np.array([[2.0, 3.0]]), floor=1000)
        accumulator.update(block)
        with pytest.raises(ModelError):
            accumulator.update(other_floor)
        holey = AudienceSamples(np.array([[np.nan, 4.0]]), floor=20)
        with pytest.raises(ModelError):
            AudienceAccumulator().update(holey)


class TestUniquenessModelTiers:
    @pytest.fixture(scope="class")
    def model(self, simulation):
        return UniquenessModel(
            fresh_legacy_api(simulation),
            simulation.panel,
            UniquenessConfig(max_interests=6, n_bootstrap=40, seed=4242),
            locations=country_codes(),
        )

    def test_estimates_identical_across_routes(self, model):
        strategy = RandomSelection(seed=13)
        fused = model.estimate(strategy)
        sharded = model.estimate(
            strategy, executor=ShardExecutor(backend="thread", workers=2, shard_size=9)
        )
        streamed = model.estimate(
            strategy, stream=True, executor=ShardExecutor(shard_size=9)
        )
        for probability, estimate in fused.estimates.items():
            for other in (sharded, streamed):
                rival = other.estimates[probability]
                assert rival.n_p == estimate.n_p
                assert rival.confidence_interval == estimate.confidence_interval
                assert rival.r_squared == estimate.r_squared

    def test_cache_is_keyed_per_tier(self, model):
        strategy = RandomSelection(seed=13)
        fused = model.collect(strategy)
        sharded = model.collect(strategy, executor=ShardExecutor(shard_size=9))
        streamed = model.collect_streamed(strategy, executor=ShardExecutor(shard_size=9))
        # Three distinct cache entries: refreshing one tier leaves the others.
        assert model.collect(strategy) is fused
        assert model.collect(strategy, executor=ShardExecutor(shard_size=9)) is sharded
        assert (
            model.collect_streamed(strategy, executor=ShardExecutor(shard_size=9))
            is streamed
        )
        refreshed = model.collect(strategy, refresh=True)
        assert refreshed is not fused
        assert model.collect(strategy, executor=ShardExecutor(shard_size=9)) is sharded

    def test_cache_clear_drops_every_tier(self, model):
        model.collect(RandomSelection(seed=13))
        model.cache_clear()
        assert model._cache == {}


class TestProtectedExperimentBinding:
    def test_rules_install_on_the_experiments_own_api(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )
        other_api = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )
        engine = DeliveryEngine(simulation.catalog, seed=5)
        experiment = NanotargetingExperiment(other_api, engine, seed=11)
        targets = experiment.select_targets(simulation.panel.users)
        with pytest.raises(ModelError):
            run_protected_experiment(
                api,
                engine,
                targets,
                [InterestCapRule(max_interests=9)],
                experiment=experiment,
            )

    def test_policy_rule_order_restored_exactly(self, simulation):
        api = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )
        engine = DeliveryEngine(simulation.catalog, seed=5)
        experiment = NanotargetingExperiment(api, engine, seed=11)
        targets = experiment.select_targets(simulation.panel.users)
        # Pre-install a rule equal to an installed one: list.remove would
        # have deleted this one and left the appended copy mid-list.
        preexisting = [MinActiveAudienceRule(min_active_users=1_000), InterestCapRule()]
        api.policy.rules.extend(preexisting)
        run_protected_experiment(
            api,
            engine,
            targets,
            [InterestCapRule(), MinActiveAudienceRule(min_active_users=1_000)],
            experiment=experiment,
        )
        assert api.policy.rules == preexisting


class TestWorkloadImpactKernel:
    @pytest.fixture(scope="class")
    def workload(self, simulation):
        from repro.campaigns import AdvertiserWorkloadGenerator

        return AdvertiserWorkloadGenerator(simulation.catalog).generate(120, seed=3)

    def test_matches_scalar_rule_loop(self, simulation, workload):
        api = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )
        rules = [
            InterestCapRule(max_interests=9),
            MinActiveAudienceRule(min_active_users=1_000),
        ]
        expected = 0
        for spec in workload:
            raw = api.backend.audience_for(
                spec.interests, spec.effective_locations(), combine=spec.interest_combine
            )
            if any(rule.evaluate(spec, raw, raw) is not None for rule in rules):
                expected += 1
        impact = evaluate_workload_impact(api, workload, rules)
        assert impact.total_campaigns == len(workload)
        assert impact.rejected_campaigns == expected
        sharded = evaluate_workload_impact(
            api,
            workload,
            rules,
            executor=ShardExecutor(backend="thread", workers=2, shard_size=16),
        )
        assert sharded == impact

    def test_rules_without_matrix_kernel_fall_back(self, simulation, workload):
        class OddInterestRule:
            name = "odd_interests"

            def evaluate(self, spec, raw_audience, active_audience):
                return "odd" if spec.interest_count % 2 else None

        api = AdsManagerAPI(
            simulation.reach_model,
            platform=PlatformConfig.modern_2020(),
            clock=SimClock(),
        )
        impact = evaluate_workload_impact(api, workload, [OddInterestRule()])
        expected = sum(1 for spec in workload if spec.interest_count % 2)
        assert impact.rejected_campaigns == expected

    def test_evaluate_matrix_agrees_with_scalar_evaluate(self):
        counts = np.array([1, 5, 9, 10, 25])
        raw = np.array([10.0, 500.0, 999.0, 1_000.0, 5e6])
        cap = InterestCapRule(max_interests=9)
        minimum = MinActiveAudienceRule(min_active_users=1_000)
        from repro.adsapi import TargetingSpec

        for index, count in enumerate(counts):
            spec = TargetingSpec.for_interests(range(count))
            assert (cap.evaluate(spec, raw[index], raw[index]) is not None) == bool(
                cap.evaluate_matrix(counts, raw, raw)[index]
            )
            assert (
                minimum.evaluate(spec, raw[index], raw[index]) is not None
            ) == bool(minimum.evaluate_matrix(counts, raw, raw)[index])


class TestShardedBootstrap:
    """bootstrap_cutpoints replicate chunks over the runner backends."""

    QS = (50.0, 90.0)

    @pytest.fixture(scope="class")
    def samples(self, simulation):
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )
        return collector.collect(RandomSelection(seed=13))

    @pytest.fixture(scope="class")
    def serial_cutpoints(self, samples):
        return bootstrap_cutpoints(samples, self.QS, n_bootstrap=60, seed=3)

    @pytest.mark.parametrize(
        "executor",
        [
            ShardExecutor(),
            ShardExecutor(backend="thread", workers=2),
            ShardExecutor(backend="thread", workers=4),
            ShardExecutor(backend="thread", workers=2, shard_size=7),
        ],
        ids=["serial", "thread-2", "thread-4", "thread-2-chunk-7"],
    )
    def test_executor_parity(self, samples, serial_cutpoints, executor):
        sharded = bootstrap_cutpoints(
            samples, self.QS, n_bootstrap=60, seed=3, executor=executor
        )
        for q in self.QS:
            assert np.array_equal(serial_cutpoints[q], sharded[q], equal_nan=True)

    def test_chunk_size_does_not_change_results(self, samples, serial_cutpoints):
        rechunked = bootstrap_cutpoints(
            samples, self.QS, n_bootstrap=60, seed=3, chunk_size=11
        )
        for q in self.QS:
            assert np.array_equal(serial_cutpoints[q], rechunked[q], equal_nan=True)

    def test_streamed_store_parity(self, simulation, samples, serial_cutpoints):
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )
        streamed = drain(
            collector.collect_stream(RandomSelection(seed=13)), AudienceAccumulator()
        )
        sharded = bootstrap_cutpoints(
            streamed,
            self.QS,
            n_bootstrap=60,
            seed=3,
            executor=ShardExecutor(backend="thread", workers=3),
        )
        for q in self.QS:
            assert np.array_equal(serial_cutpoints[q], sharded[q], equal_nan=True)

    def test_estimate_threads_executor_into_bootstrap(self, simulation):
        api = fresh_legacy_api(simulation)
        model = UniquenessModel(
            api,
            simulation.panel,
            UniquenessConfig(max_interests=8, n_bootstrap=40, seed=21),
            locations=country_codes(),
        )
        strategy = RandomSelection(seed=13)
        plain = model.estimate(strategy, probabilities=(0.9,))
        sharded = model.estimate(
            strategy,
            probabilities=(0.9,),
            executor=ShardExecutor(backend="thread", workers=2),
        )
        assert plain.estimates[0.9] == sharded.estimates[0.9]


class TestFusedStreamedGather:
    """StreamedAudienceSamples.take_rows: the single-take gather kernel."""

    @pytest.fixture(scope="class")
    def stores(self, simulation):
        api = fresh_legacy_api(simulation)
        collector = AudienceSizeCollector(
            api, simulation.panel, max_interests=8, locations=country_codes()
        )
        dense = collector.collect(RandomSelection(seed=13))
        streamed = drain(
            collector.collect_stream(RandomSelection(seed=13)), AudienceAccumulator()
        )
        return dense, streamed

    def test_row_blocks_match_dense_matrix(self, stores):
        dense, streamed = stores
        rng = np.random.default_rng(5)
        for shape in ((4,), (3, 5), (2, 3, 4)):
            indices = rng.integers(0, dense.n_users, size=shape)
            assert np.array_equal(
                streamed.take_rows(indices), dense.matrix[indices], equal_nan=True
            )

    def test_repeated_and_full_gathers(self, stores):
        dense, streamed = stores
        everyone = np.arange(dense.n_users)
        assert np.array_equal(
            streamed.take_rows(everyone), dense.matrix, equal_nan=True
        )
        # the cached table serves every subsequent gather
        assert np.array_equal(
            streamed.take_rows(everyone[::-1]), dense.matrix[::-1], equal_nan=True
        )

    def test_gather_table_is_cached(self, stores):
        _, streamed = stores
        streamed.take_rows(np.array([0]))
        first = streamed._gather_table()
        assert streamed._gather_table() is first


class TestShardedRiskReports:
    """FDVTExtension.build_risk_reports over an ExecutionPlan."""

    @pytest.fixture(scope="class")
    def users(self, simulation):
        return list(simulation.panel)[:15]

    @pytest.fixture(scope="class")
    def reference_reports(self, simulation, users):
        from repro.fdvt import FDVTExtension

        api = fresh_legacy_api(simulation)
        extension = FDVTExtension(api, simulation.catalog)
        return extension.build_risk_reports(users), _accounting(api)

    @pytest.mark.parametrize(
        "executor",
        [
            ShardExecutor(),
            ShardExecutor(backend="thread", workers=2),
            ShardExecutor(backend="thread", workers=3, shard_size=5),
        ],
        ids=["serial", "thread-2", "thread-3-small-shards"],
    )
    def test_sharded_reports_and_accounting_parity(
        self, simulation, users, reference_reports, executor
    ):
        from repro.fdvt import FDVTExtension

        expected_reports, expected_accounting = reference_reports
        api = fresh_legacy_api(simulation)
        extension = FDVTExtension(api, simulation.catalog)
        reports = extension.build_risk_reports(users, executor=executor)
        assert reports == expected_reports
        assert _accounting(api) == expected_accounting
