"""Synthetic Facebook users.

Demographics, the batched interest-assignment kernel and the columnar store.
"""

from .assignment import InterestAssigner
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
)
from .generation import (
    AssignerSpec,
    InterestShardTask,
    assigner_shard_payload,
    clear_spec_memo,
    resolve_assigner,
    run_interest_shard,
)
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
    "SyntheticUser",
    "assigner_shard_payload",
    "classify_age",
    "classify_age_codes",
    "clear_spec_memo",
    "resolve_assigner",
    "run_interest_shard",
    "sample_age",
]
