"""Agent-based scaled Facebook population."""

from .assignment import InterestAssigner
from .builder import PopulationBuilder
from .columnar import AGE_UNDISCLOSED, PanelColumns, classify_age_codes
from .demographics import (
    AGE_GROUP_BOUNDS,
    AGE_GROUP_CODES,
    AGE_GROUP_TABLE,
    GENDER_CODES,
    GENDER_TABLE,
    AgeGroup,
    Gender,
    classify_age,
    sample_age,
    sample_ages,
    sample_gender_index,
    sample_genders,
)
from .generation import (
    AssignerSpec,
    InterestShardTask,
    assigner_shard_payload,
    clear_spec_memo,
    resolve_assigner,
    run_interest_shard,
)
from .population import Population, PopulationReachBackend
from .sampling import InterestCountModel
from .user import SyntheticUser

__all__ = [
    "AGE_GROUP_BOUNDS",
    "AGE_GROUP_CODES",
    "AGE_GROUP_TABLE",
    "AGE_UNDISCLOSED",
    "AgeGroup",
    "AssignerSpec",
    "GENDER_CODES",
    "GENDER_TABLE",
    "Gender",
    "InterestAssigner",
    "InterestCountModel",
    "InterestShardTask",
    "PanelColumns",
    "Population",
    "PopulationBuilder",
    "PopulationReachBackend",
    "SyntheticUser",
    "assigner_shard_payload",
    "classify_age",
    "classify_age_codes",
    "clear_spec_memo",
    "resolve_assigner",
    "run_interest_shard",
    "sample_age",
    "sample_ages",
    "sample_gender_index",
    "sample_genders",
]
