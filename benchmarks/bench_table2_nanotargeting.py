"""Table 2: the nanotargeting experiment (3 targets x 7 interest counts).

The paper ran 21 worldwide campaigns in late 2020 and found that 9 of them
(all 20- and 22-interest campaigns, two 18-interest ones and one 12-interest
one) reached exactly the targeted user, at a total cost of 0.12 EUR for the
successful campaigns.  The benchmark replays the experiment on the simulated
platform and checks the same qualitative structure.  The per-campaign
"Why am I seeing this ad?" disclosures (Figures 6, 11 and 12) are validated
as part of the success criterion and summarised in the output.
"""

from __future__ import annotations

from repro.analysis import compare_table2, format_records


def test_table2_nanotargeting_experiment(benchmark, bench_sim):
    experiment = bench_sim.nanotargeting_experiment(seed=20211102)

    report = benchmark.pedantic(
        lambda: experiment.run(candidates=bench_sim.panel), rounds=1, iterations=1
    )

    print("\nTable 2 — nanotargeting experiment")
    print(format_records(report.table_rows()))
    print(f"  successful campaigns : {report.success_count} / {report.n_campaigns}")
    print(f"  total cost           : €{report.total_cost_eur():.2f}")
    print(f"  successful cost      : €{report.successful_cost_eur():.2f}")
    print(f"  account suspended    : {report.account_suspended} (reactive, after the fact)")
    disclosed = [r for r in report.records if r.outcome and r.outcome.disclosure]
    print(f"  disclosures captured : {len(disclosed)} (all match the configured audiences)")
    comparison = compare_table2(report)
    for line in comparison.summary_lines():
        print(f"  {line}")
    assert not any(
        "high-interest" in finding for finding in comparison.shape_findings
    )

    # 3 targets x 7 interest counts, as in the paper.
    assert report.n_campaigns == 21
    rates = report.success_rate_by_interests()
    # Nanotargeting succeeds for high interest counts and fails for low ones.
    assert rates[5] == 0.0
    assert rates[22] >= 2 / 3
    assert rates[20] >= 2 / 3
    high_group = (rates[18] + rates[20] + rates[22]) / 3
    low_group = (rates[5] + rates[7] + rates[9]) / 3
    assert high_group > low_group
    assert report.success_count >= 6
    # Successful nanotargeting is extremely cheap.
    assert report.successful_cost_eur() < 1.0
    # Every captured disclosure matches its campaign's configured audience.
    for record in disclosed:
        assert record.outcome.disclosure.matches_spec(record.campaign)
    # TFI of successful campaigns stays within the 33 active hours.
    for record in report.successful_records:
        tfi = record.outcome.metrics.time_to_first_impression_hours
        assert 0.0 <= tfi <= 33.0
