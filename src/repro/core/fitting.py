"""Log-log fitting of VAS(Q) and the N_P cutpoint.

The paper fits every quantile vector with

    log10(VAS(Q)) ~ -A * log10(N + 1) + B

and defines ``N_P`` as the number of interests at which the regression line
crosses an audience size of one, i.e. ``N_P = 10^(B/A) - 1``.

Because the Ads API never reports audiences below its floor (20 users in the
2017 dataset), the empirical VAS(Q) flattens at the floor.  The paper keeps
the *first* floored point and drops the rest, making the estimate
conservative but robust to the floor value — the same rule is applied here.

Both the scalar :func:`fit_vas` and the batched :func:`fit_vas_many` solve
the two-parameter least-squares problem in closed form (masked moment sums
per row, one elementwise solve), so a 10k-replicate bootstrap is a handful
of array operations instead of 10k SVD calls — and the scalar path, which
delegates to the batched kernel with a single row, returns bit-identical
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, ModelError


@dataclass(frozen=True, slots=True)
class LogLogFit:
    """Result of fitting ``log10(VAS) = B - A * log10(N + 1)``."""

    slope_a: float
    intercept_b: float
    r_squared: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ModelError("a fit needs at least two points")

    @property
    def cutpoint(self) -> float:
        """``N_P``: the interest count at which the fit crosses audience = 1."""
        if self.slope_a <= 0:
            raise ModelError("the fitted slope must be positive to define a cutpoint")
        # Evaluated through the numpy power ufunc so the scalar cutpoint is
        # bit-identical to the batched :func:`fit_vas_many` computation.
        return float(np.power(10.0, self.intercept_b / self.slope_a) - 1.0)

    def predict(self, n_interests: float) -> float:
        """Predicted audience size for ``n_interests`` combined interests."""
        if n_interests < 0:
            raise ModelError("n_interests must be non-negative")
        return float(
            10.0 ** (self.intercept_b - self.slope_a * np.log10(n_interests + 1.0))
        )

    def predict_many(self, n_interests: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`predict`."""
        n = np.asarray(n_interests, dtype=float)
        return 10.0 ** (self.intercept_b - self.slope_a * np.log10(n + 1.0))


@dataclass(frozen=True, slots=True)
class VASFitBatch:
    """Per-row results of :func:`fit_vas_many`.

    Rows whose fit is undefined (fewer than two usable points after floor
    truncation, a non-positive audience, or a non-positive slope for the
    cutpoint) carry ``NaN`` in the corresponding entries instead of raising
    like the scalar path does.
    """

    slope_a: np.ndarray
    intercept_b: np.ndarray
    r_squared: np.ndarray
    n_points: np.ndarray
    cutpoints: np.ndarray

    @property
    def n_fits(self) -> int:
        """Number of fitted rows."""
        return int(self.slope_a.size)


def is_floored(values: np.ndarray, floor: int) -> np.ndarray:
    """Elementwise: has a VAS value reached the reporting floor?

    The one floor test behind :func:`truncate_at_floor`,
    :func:`fit_vas_many` and the bootstrap's early exit (``NaN`` is never
    floored).
    """
    return values <= floor + 1e-9


def truncate_at_floor(vas: np.ndarray, floor: int) -> np.ndarray:
    """Keep VAS points up to and including the first floored value.

    Values after the first one that reaches the reporting floor carry no
    information (the API would have reported the floor regardless of the
    true audience), so they are excluded from the fit.  NaN entries (N
    values with no samples) are also trimmed.
    """
    values = np.asarray(vas, dtype=float)
    valid = ~np.isnan(values)
    if not valid.all():
        values = values[: int(np.argmax(~valid))]
    at_floor = np.nonzero(is_floored(values, floor))[0]
    if at_floor.size == 0:
        return values
    return values[: int(at_floor[0]) + 1]


def fit_vas_many(vas_rows: np.ndarray, floor: int) -> VASFitBatch:
    """Fit the log-log model to many VAS vectors at once.

    ``vas_rows[r, k]`` must hold the quantile of replicate ``r`` for
    ``N = k + 1`` interests.  Floor truncation, the masked least-squares
    solve and the cutpoint formula are evaluated with row-wise array
    operations — no Python loop over replicates — and each row matches the
    scalar :func:`fit_vas` (which delegates here) bit-for-bit.
    """
    if floor < 1:
        raise ModelError("floor must be at least 1")
    rows = np.atleast_2d(np.asarray(vas_rows, dtype=float))
    if rows.ndim != 2:
        raise ModelError("vas_rows must be a 1- or 2-dimensional array")
    n_rows, width = rows.shape
    column = np.arange(width)
    invalid = np.isnan(rows)
    # Trim every row at its first NaN, then at its first floored value
    # (keeping the first floored point, as the paper does).
    first_invalid = np.where(invalid.any(axis=1), np.argmax(invalid, axis=1), width)
    before_nan = column[None, :] < first_invalid[:, None]
    at_floor = is_floored(rows, floor) & before_nan
    has_floor = at_floor.any(axis=1)
    first_floor = np.where(has_floor, np.argmax(at_floor, axis=1), width)
    lengths = np.minimum(first_invalid, np.where(has_floor, first_floor + 1, width))
    mask = column[None, :] < lengths[:, None]
    safe = np.where(mask, rows, 1.0)
    usable = (lengths >= 2) & (safe > 0).all(axis=1)

    with np.errstate(all="ignore"):
        x = np.log10(column + 2.0)  # log10(N + 1) with N = column + 1
        y = np.where(mask, np.log10(np.abs(safe)), 0.0)
        weights = mask.astype(float)
        n_points = lengths.astype(float)
        sum_x = (weights * x).sum(axis=1)
        sum_y = y.sum(axis=1)
        sum_xx = (weights * x * x).sum(axis=1)
        sum_xy = (x * y).sum(axis=1)
        denominator = n_points * sum_xx - sum_x * sum_x
        slope_xy = (n_points * sum_xy - sum_x * sum_y) / denominator
        intercept = (sum_y - slope_xy * sum_x) / n_points
        slope_a = -slope_xy
        predicted = intercept[:, None] + slope_xy[:, None] * x[None, :]
        residuals = np.where(mask, y - predicted, 0.0)
        ss_res = (residuals * residuals).sum(axis=1)
        mean_y = sum_y / n_points
        deviations = np.where(mask, y - mean_y[:, None], 0.0)
        ss_tot = (deviations * deviations).sum(axis=1)
        r_squared = np.where(
            ss_tot == 0.0, 1.0, np.maximum(0.0, 1.0 - ss_res / ss_tot)
        )
        cutpoints = np.where(
            usable & (slope_a > 0.0),
            10.0 ** (intercept / np.where(slope_a > 0.0, slope_a, 1.0)) - 1.0,
            np.nan,
        )

    nan = np.full(n_rows, np.nan)
    return VASFitBatch(
        slope_a=np.where(usable, slope_a, nan),
        intercept_b=np.where(usable, intercept, nan),
        r_squared=np.where(usable, r_squared, nan),
        n_points=np.where(usable, lengths, 0).astype(np.int64),
        cutpoints=cutpoints,
    )


def fit_vas(vas: np.ndarray, floor: int) -> LogLogFit:
    """Fit the log-log model to one VAS(Q) vector.

    ``vas[k]`` must hold the quantile for ``N = k + 1`` interests.
    """
    if floor < 1:
        raise ModelError("floor must be at least 1")
    values = truncate_at_floor(vas, floor)
    if values.size < 2:
        raise InsufficientDataError(
            "fewer than two usable VAS points remain after floor truncation"
        )
    if np.any(values <= 0):
        raise ModelError("audience sizes must be positive to fit in log space")
    batch = fit_vas_many(np.asarray(vas, dtype=float)[None, :], floor)
    return LogLogFit(
        slope_a=float(batch.slope_a[0]),
        intercept_b=float(batch.intercept_b[0]),
        r_squared=float(batch.r_squared[0]),
        n_points=int(batch.n_points[0]),
    )
