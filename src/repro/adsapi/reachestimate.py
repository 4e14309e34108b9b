"""Potential Reach estimates returned by the simulated Ads API."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AdsApiError
from ..reach.backend import ReachBackend


@dataclass(frozen=True, slots=True)
class ReachEstimate:
    """A Potential Reach value as reported to the advertiser.

    Facebook never reports audience sizes below a floor (20 users in the
    January 2017 dataset, 1,000 users since 2018), so the reported value may
    be larger than the true audience.  The true audience is intentionally
    *not* carried by this object: advertisers — and the paper's model — only
    ever see the floored value.
    """

    potential_reach: int
    floor: int
    floored: bool

    def __post_init__(self) -> None:
        if self.floor < 1:
            raise AdsApiError("floor must be at least 1")
        if self.potential_reach < self.floor:
            raise AdsApiError("potential_reach cannot be below the reporting floor")

    @property
    def at_floor(self) -> bool:
        """True when the reported value equals the reporting floor."""
        return self.potential_reach == self.floor

    def __int__(self) -> int:
        return self.potential_reach


def apply_reporting_floor(raw_audience: float, floor: int) -> ReachEstimate:
    """Round a raw audience size and apply the reporting floor."""
    if floor < 1:
        raise AdsApiError("floor must be at least 1")
    if raw_audience < 0:
        raise AdsApiError("raw_audience must be non-negative")
    rounded = int(round(raw_audience))
    if rounded < floor:
        return ReachEstimate(potential_reach=floor, floor=floor, floored=True)
    return ReachEstimate(potential_reach=rounded, floor=floor, floored=False)


def apply_reporting_floor_batch(
    raw_audiences: Sequence[float] | np.ndarray, floor: int
) -> tuple[ReachEstimate, ...]:
    """Vectorised :func:`apply_reporting_floor` over many raw audiences.

    Rounding uses round-half-to-even (``np.rint``), matching Python's
    built-in :func:`round` used by the scalar path, so a batched estimate is
    identical to the looped scalar estimates.
    """
    if floor < 1:
        raise AdsApiError("floor must be at least 1")
    raw = np.asarray(raw_audiences, dtype=float)
    if raw.size and np.isnan(raw).any():
        raise AdsApiError("raw_audience must not be NaN")
    if raw.size and (raw < 0).any():
        raise AdsApiError("raw_audience must be non-negative")
    rounded = np.rint(raw).astype(np.int64)
    floored = rounded < floor
    reported = np.where(floored, floor, rounded)
    return tuple(
        ReachEstimate(
            potential_reach=int(value), floor=floor, floored=bool(is_floored)
        )
        for value, is_floored in zip(reported, floored)
    )


def apply_reporting_floor_matrix(raw_matrix: np.ndarray, floor: int) -> np.ndarray:
    """Round and floor-clip a whole raw audience matrix in place-free form.

    The matrix counterpart of :func:`apply_reporting_floor_batch` for the
    spec-free bulk endpoint: ``NaN`` cells (padding beyond a user's interest
    count) pass through untouched, every other cell is rounded with
    round-half-to-even and clipped to the reporting floor, so a valid cell
    equals ``float(apply_reporting_floor(raw, floor).potential_reach)``
    bit-for-bit.  No :class:`ReachEstimate` objects are materialised.
    """
    if floor < 1:
        raise AdsApiError("floor must be at least 1")
    raw = np.asarray(raw_matrix, dtype=float)
    # NaN compares false here and passes through both rint and maximum.
    if (raw < 0).any():
        raise AdsApiError("raw_audience must be non-negative")
    return np.maximum(np.rint(raw), float(floor))


def pad_id_rows(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged ordered id rows into the padded bulk-kernel layout.

    Returns ``(id_matrix, counts)`` in the convention every bulk kernel
    consumes: row ``u`` holds ``rows[u]`` followed by ``-1`` padding, and
    the width is ``max(counts)``.
    """
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    width = int(counts.max()) if counts.size else 0
    id_matrix = np.full((len(rows), width), -1, dtype=np.int64)
    for index, row in enumerate(rows):
        id_matrix[index, : len(row)] = row
    return id_matrix, counts


def floored_prefix_audiences(
    backend: ReachBackend,
    id_matrix: np.ndarray,
    counts: np.ndarray,
    locations: Sequence[str] | None,
    floor: int | None,
) -> np.ndarray:
    """The bulk endpoint's pure compute stage: prefix kernel, then floor.

    Runs the backend's ``prefix_audiences_panel`` and clips the result
    with :func:`apply_reporting_floor_matrix`; ``floor=None`` returns the
    raw audiences.  No validation and no accounting happen here.
    """
    raw = backend.prefix_audiences_panel(id_matrix, counts, locations)
    if floor is None:
        return raw
    return apply_reporting_floor_matrix(raw, floor)
