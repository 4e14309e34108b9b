"""Evaluation of the proposed countermeasures.

Two questions matter for Section 8.3:

1. *Effectiveness* — with the rules enabled, how many of the paper's
   nanotargeting campaigns would still run (and succeed)?
2. *Advertiser impact* — what fraction of a realistic benign advertiser
   workload would the rules reject?  The paper argues (based on DSP data)
   that fewer than 1% of campaigns combine more than 9 interests.

The workload evaluation rides the bulk reach-matrix kernel: campaigns are
grouped by location filter, every group's audiences resolve through one
row-parallel prefix sweep (optionally sharded across a
:class:`~repro.exec.ShardExecutor`'s workers), and the rules evaluate the
whole workload at once through their vectorised ``evaluate_matrix``
kernels — bit-identical to looping ``rule.evaluate`` over scalar
``audience_for`` queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..adsapi import AdsManagerAPI, PlatformPolicy
from ..adsapi.policy import CampaignRule
from ..adsapi.reachestimate import pad_id_rows
from ..adsapi.targeting import TargetingSpec
from ..core.nanotargeting import ExperimentReport, NanotargetingExperiment
from ..delivery import DeliveryEngine
from ..errors import ModelError
from ..exec import ShardExecutor
from ..exec.tasks import ReachShardTask, run_reach_shard, shard_backend_payload
from ..population.user import SyntheticUser


@dataclass(frozen=True)
class CountermeasureEffectiveness:
    """Attack-side impact of enabling a set of rules."""

    baseline_successes: int
    protected_successes: int
    rejected_campaigns: int
    total_campaigns: int

    @property
    def attack_reduction(self) -> float:
        """Fraction of successful attacks eliminated by the countermeasures."""
        if self.baseline_successes == 0:
            return 0.0
        return 1.0 - self.protected_successes / self.baseline_successes


@dataclass(frozen=True)
class WorkloadImpact:
    """Benign-advertiser impact of enabling a set of rules."""

    total_campaigns: int
    rejected_campaigns: int

    @property
    def rejection_rate(self) -> float:
        """Fraction of benign campaigns rejected by the rules."""
        if self.total_campaigns == 0:
            return 0.0
        return self.rejected_campaigns / self.total_campaigns


def evaluate_attack_protection(
    baseline_report: ExperimentReport,
    protected_report: ExperimentReport,
) -> CountermeasureEffectiveness:
    """Compare an experiment run with and without countermeasures."""
    return CountermeasureEffectiveness(
        baseline_successes=baseline_report.success_count,
        protected_successes=protected_report.success_count,
        rejected_campaigns=sum(1 for r in protected_report.records if r.rejected),
        total_campaigns=protected_report.n_campaigns,
    )


def run_protected_experiment(
    api: AdsManagerAPI,
    engine: DeliveryEngine,
    targets: Sequence[SyntheticUser],
    rules: Sequence[CampaignRule],
    *,
    experiment: NanotargetingExperiment | None = None,
) -> ExperimentReport:
    """Re-run the nanotargeting experiment with countermeasure rules installed.

    The rules are installed on the policy of the API *the experiment
    actually runs against* for the duration of the run.  When an explicit
    ``experiment`` is passed it may have been built around a different API
    instance than ``api``; mutating ``api``'s policy would then silently
    protect nothing, so the two must agree (same API object or same shared
    policy) and the rules go onto the experiment's own API.  On exit the
    policy's rule list is restored to exactly its prior content and order —
    even if it already contained rules equal to the installed ones.
    """
    if not rules:
        raise ModelError("at least one countermeasure rule is required")
    experiment = experiment or NanotargetingExperiment(api, engine)
    target_api = experiment.api
    if target_api is not api and target_api.policy is not api.policy:
        raise ModelError(
            "the experiment is bound to a different API than the one provided; "
            "the countermeasure rules must be installed on the API the "
            "experiment runs against"
        )
    policy: PlatformPolicy = target_api.policy
    restored = list(policy.rules)
    policy.rules.extend(rules)
    try:
        return experiment.run(targets)
    finally:
        policy.rules[:] = restored


def evaluate_workload_impact(
    api: AdsManagerAPI,
    specs: Sequence[TargetingSpec],
    rules: Sequence[CampaignRule],
    *,
    executor: ShardExecutor | None = None,
) -> WorkloadImpact:
    """Fraction of a benign campaign workload the rules would reject.

    Audiences resolve through the bulk prefix kernel behind
    ``estimate_reach_matrix`` — campaigns grouped by location filter, one
    row-parallel sweep per group, optionally sharded across ``executor``'s
    workers — and the rules evaluate the whole workload at once via their
    vectorised ``evaluate_matrix`` kernels.  Rules see the same *raw*
    audiences the policy hands them at authorisation time, so rejection
    counts are bit-identical to the scalar per-campaign loop.
    """
    if not specs:
        raise ModelError("the workload must contain at least one campaign spec")
    specs = list(specs)
    raw = _workload_raw_audiences(api, specs, executor)
    interest_counts = np.array([spec.interest_count for spec in specs], dtype=np.int64)
    rejected = np.zeros(len(specs), dtype=bool)
    for rule in rules:
        mask = rule.evaluate_matrix(interest_counts, raw, raw)
        rejected |= np.asarray(mask, dtype=bool)
    return WorkloadImpact(
        total_campaigns=len(specs), rejected_campaigns=int(rejected.sum())
    )


def _workload_raw_audiences(
    api: AdsManagerAPI,
    specs: Sequence[TargetingSpec],
    executor: ShardExecutor | None,
) -> np.ndarray:
    """Raw backend audience of every workload spec, via the bulk kernel.

    Plain AND-specs (the whole benign workload) are grouped by effective
    location filter and resolved with one padded prefix-matrix sweep per
    group — the row-local kernel behind ``estimate_reach_matrix``, without
    the reporting floor, since policy rules evaluate raw audiences.  Rows
    equal ``backend.audience_for`` bit-for-bit (the full combination is the
    last prefix of its own row).  OR-combines, Custom Audience specs and
    empty interest lists keep the scalar path.
    """
    backend = api.backend
    raw = np.empty(len(specs), dtype=float)
    groups: dict[tuple[str, ...] | None, list[int]] = {}
    for index, spec in enumerate(specs):
        if spec.uses_custom_audience or spec.interest_combine != "and" or not spec.interests:
            raw[index] = backend.audience_for(
                spec.interests,
                spec.effective_locations(),
                combine=spec.interest_combine,
            )
        else:
            groups.setdefault(spec.effective_locations(), []).append(index)
    executor = executor or ShardExecutor()
    runner = executor.runner()
    payload = shard_backend_payload(backend, runner)
    for locations, indices in groups.items():
        ids, counts = pad_id_rows([specs[i].interests for i in indices])
        tasks = [
            ReachShardTask(
                backend=payload,
                id_matrix=ids[shard.start : shard.stop],
                counts=counts[shard.start : shard.stop],
                locations=locations,
                floor=None,
            )
            for shard in executor.plan(len(indices))
        ]
        blocks = runner.run(run_reach_shard, tasks)
        values = np.concatenate([block for block in blocks]) if blocks else np.empty((0, 0))
        raw[indices] = values[np.arange(len(indices)), counts - 1]
    return raw
