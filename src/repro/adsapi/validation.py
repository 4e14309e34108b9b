"""Validation of targeting specifications against the platform limits.

The limits are the ones described in Section 2.1 of the paper: at most 25
interests per audience, at most 50 locations per query, a compulsory
location when the worldwide option is unavailable (the 2017 situation), and
Facebook's minimum age of 13.

This module is the one source of the interest-row rules.  They are
checked in this order, and the first rule broken is raised as a
:class:`TargetingValidationError`:

1. at most ``max_interests_per_audience`` ids;
2. every id non-negative;
3. no id twice.

:func:`validate_interest_row` is the plain-Python form for one row, used by
:func:`validate_spec` and by the reach service's admission.
:func:`validate_interest_matrix` is the vectorised form for a padded id
matrix, used by the Ads API's bulk endpoint; it raises the first rule that
any row breaks, with the same messages.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import PlatformConfig
from ..errors import TargetingValidationError, UnknownLocationError
from ..reach.countries import is_known_location
from .targeting import TargetingSpec

_NEGATIVE = "interest ids must be non-negative"
_DUPLICATE = "interests must not contain duplicates"


def validate_spec(spec: TargetingSpec, platform: PlatformConfig) -> None:
    """Raise :class:`TargetingValidationError` if ``spec`` violates a limit."""
    _validate_locations(spec, platform)
    validate_interest_row(spec.interests, platform)


def resolve_locations(
    locations: Sequence[str] | None, platform: PlatformConfig
) -> tuple[str, ...] | None:
    """Validate one query's location list and return it as a backend takes it.

    ``None`` or an empty list means worldwide.  The result is the spec's
    :meth:`~TargetingSpec.effective_locations`: ``None`` for worldwide,
    otherwise the location tuple.
    """
    spec = TargetingSpec.for_interests((), locations=locations)
    _validate_locations(spec, platform)
    return spec.effective_locations()


def validate_interest_row(interests: Sequence[int], platform: PlatformConfig) -> None:
    """Raise the first interest-row rule that one ordered id row breaks."""
    if len(interests) > platform.max_interests_per_audience:
        raise TargetingValidationError(_cap_message(platform, len(interests)))
    if any(interest_id < 0 for interest_id in interests):
        raise TargetingValidationError(_NEGATIVE)
    if len(set(interests)) != len(interests):
        raise TargetingValidationError(_DUPLICATE)


def validate_interest_matrix(
    ids: np.ndarray, counts: np.ndarray, platform: PlatformConfig
) -> None:
    """The interest-row rules over a padded ``(n_rows, width)`` int64 matrix.

    Row ``u`` holds the ids ``ids[u, :counts[u]]``; the padding beyond is
    never read.  Raises the first rule, in the module's order, that any
    row breaks; the cap message names the longest row.
    """
    if counts.size and int(counts.max()) > platform.max_interests_per_audience:
        raise TargetingValidationError(_cap_message(platform, int(counts.max())))
    valid = np.arange(ids.shape[1])[None, :] < counts[:, None]
    work = np.where(valid, ids, -1)
    if (work[valid] < 0).any():
        raise TargetingValidationError(_NEGATIVE)
    # Padding (-1) compares equal only to itself.
    sorted_rows = np.sort(work, axis=1)
    if ((sorted_rows[:, 1:] == sorted_rows[:, :-1]) & (sorted_rows[:, 1:] >= 0)).any():
        raise TargetingValidationError(_DUPLICATE)


def _cap_message(platform: PlatformConfig, count: int) -> str:
    return (
        f"at most {platform.max_interests_per_audience} interests are allowed "
        f"in an audience, got {count}"
    )


def _validate_locations(spec: TargetingSpec, platform: PlatformConfig) -> None:
    if len(spec.locations) > platform.max_locations_per_query:
        raise TargetingValidationError(
            f"at most {platform.max_locations_per_query} locations are allowed, "
            f"got {len(spec.locations)}"
        )
    for code in spec.locations:
        if not is_known_location(code):
            raise UnknownLocationError(code)
    if spec.is_worldwide:
        if not platform.allow_worldwide_location:
            raise TargetingValidationError(
                "the worldwide location is not available on this platform version; "
                "a specific location (country, region, town or ZIP code) is required"
            )
        if len(spec.locations) > 1:
            raise TargetingValidationError(
                "the worldwide location cannot be combined with specific countries"
            )
