"""Section 8.3: effectiveness and cost of the proposed countermeasures.

The paper proposes (i) capping audiences at fewer than 9 interests and
(ii) refusing campaigns whose active audience is below 1,000 users, arguing
that together they stop nanotargeting while affecting under 1% of benign
campaigns.  The benchmark replays the nanotargeting experiment with the
rules enabled and measures the impact on a synthetic advertiser workload.
"""

from __future__ import annotations

from repro.adsapi import AdsManagerAPI
from repro.campaigns import AdvertiserWorkloadGenerator
from repro.config import PlatformConfig
from repro.core import NanotargetingExperiment
from repro.countermeasures import (
    evaluate_attack_protection,
    evaluate_workload_impact,
    recommended_rules,
    run_protected_experiment,
)
from repro.delivery import DeliveryEngine
from repro.simclock import SimClock


def test_countermeasures_block_nanotargeting(benchmark, bench_sim):
    config = bench_sim.config.experiment
    engine = DeliveryEngine(bench_sim.catalog, seed=83)

    baseline_api = AdsManagerAPI(
        bench_sim.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
    )
    baseline_experiment = NanotargetingExperiment(baseline_api, engine, config, seed=83)
    targets = baseline_experiment.select_targets(bench_sim.panel)
    baseline = baseline_experiment.run(targets)

    protected_api = AdsManagerAPI(
        bench_sim.reach_model, platform=PlatformConfig.modern_2020(), clock=SimClock()
    )
    protected_experiment = NanotargetingExperiment(protected_api, engine, config, seed=83)

    protected = benchmark.pedantic(
        run_protected_experiment,
        args=(protected_api, engine, targets, list(recommended_rules())),
        kwargs={"experiment": protected_experiment},
        rounds=1,
        iterations=1,
    )

    effectiveness = evaluate_attack_protection(baseline, protected)
    generator = AdvertiserWorkloadGenerator(bench_sim.catalog)
    workload = generator.generate(800, seed=83)
    impact = evaluate_workload_impact(
        protected_api, workload, [recommended_rules()[0]]
    )

    print("\nCountermeasure evaluation (Section 8.3)")
    print(f"  baseline successful nanotargeting campaigns : {baseline.success_count} / 21")
    print(f"  with countermeasures                         : {protected.success_count} / 21")
    print(f"  campaigns rejected by the rules              : {effectiveness.rejected_campaigns}")
    print(f"  attack reduction                             : {effectiveness.attack_reduction:.0%}")
    print(
        "  benign campaigns rejected by the 9-interest cap: "
        f"{impact.rejected_campaigns} / {impact.total_campaigns} "
        f"({impact.rejection_rate:.2%}, paper expects <1%)"
    )

    assert baseline.success_count >= 6
    assert protected.success_count == 0
    assert effectiveness.attack_reduction == 1.0
    assert impact.rejection_rate < 0.02
