"""The paper's primary contribution: uniqueness model and nanotargeting experiment."""

from .attack import AttackAssessment, AttackPlan, AttackPlanner
from .bootstrap import ConfidenceInterval, bootstrap_cutpoints, percentile_interval
from .collection import AudienceSizeCollector
from .demographics import DemographicAnalysis, GroupEstimate
from .fitting import LogLogFit, VASFitBatch, fit_vas, fit_vas_many, truncate_at_floor
from .nanotargeting import (
    CampaignRecord,
    ExperimentReport,
    NanotargetingExperiment,
    SuccessValidation,
)
from .quantiles import (
    AudienceAccumulator,
    AudienceSamples,
    StreamedAudienceSamples,
    masked_column_quantiles,
    probability_to_percentile,
)
from .results import NPEstimate, ResultSet, ScenarioResult, UniquenessReport
from .selection import (
    LeastPopularSelection,
    RandomSelection,
    SelectionStrategy,
    nested_subsets,
    ordered_interest_matrix,
    pad_id_rows,
)
from .uniqueness import UniquenessModel

__all__ = [
    "AttackAssessment",
    "AttackPlan",
    "AttackPlanner",
    "AudienceAccumulator",
    "AudienceSamples",
    "AudienceSizeCollector",
    "CampaignRecord",
    "ConfidenceInterval",
    "DemographicAnalysis",
    "ExperimentReport",
    "GroupEstimate",
    "LeastPopularSelection",
    "LogLogFit",
    "NPEstimate",
    "NanotargetingExperiment",
    "RandomSelection",
    "ResultSet",
    "ScenarioResult",
    "SelectionStrategy",
    "StreamedAudienceSamples",
    "SuccessValidation",
    "UniquenessModel",
    "UniquenessReport",
    "VASFitBatch",
    "bootstrap_cutpoints",
    "fit_vas",
    "fit_vas_many",
    "masked_column_quantiles",
    "nested_subsets",
    "ordered_interest_matrix",
    "pad_id_rows",
    "percentile_interval",
    "probability_to_percentile",
    "truncate_at_floor",
]
