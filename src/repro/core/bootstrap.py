"""Bootstrap confidence intervals for the N_P cutpoints.

The paper assesses the uncertainty of its cutpoint estimates by repeating
the aggregation and fit over 10,000 bootstrap resamples of the panel and
reporting the 95% confidence interval.  The resampling is done over *users*
(rows of the sample matrix), which keeps the per-user correlation across N
values intact.

Batch kernel design
-------------------
A paper-scale bootstrap is 10,000 resamples x several quantiles.  A
resample's order statistics depend only on how often each user was drawn,
so :func:`bootstrap_cutpoints` sorts each column's valid samples once per
sample store and never gathers or sorts a resampled stack:

1. the resample index matrices are drawn in bulk (one generator call per
   chunk — stream-identical to a single up-front draw) and one offset
   ``bincount`` turns a chunk's draws into per-user draw counts;
2. per column, a running sum of those counts in sorted-value order makes
   the two order statistics each quantile needs two rank lookups
   (``searchsorted``), interpolated exactly as
   :func:`~repro.core.quantiles.masked_column_quantiles` does (including
   NumPy's ``gamma >= 0.5`` branch) — bit-identical to per-replicate
   ``nanpercentile``;
3. columns are visited in increasing N and the chunk stops once every
   (quantile, replicate) row has reached the floor or a ``NaN`` column —
   the fit discards everything past that point anyway — leaving the rest
   ``NaN`` so :func:`~repro.core.fitting.fit_vas_many` sees the same
   operands as it would on the full vectors;
4. every replicate of a chunk is fitted at once with
   :func:`~repro.core.fitting.fit_vas_many` — closed-form masked least
   squares across rows.  Replicates whose fit would fail (degenerate
   resample, non-positive slope) surface as ``NaN``.

Transient memory is O(chunk * users) integers (the draw counts and one
column's running sum); the sorted columns cost 12 bytes per valid sample.

Streaming support
-----------------
:func:`bootstrap_cutpoints` reads the dense
:class:`~repro.core.quantiles.AudienceSamples` and the streamed
:class:`~repro.core.quantiles.StreamedAudienceSamples` column store through
one sorted-column builder, so the whole collection → quantiles → bootstrap
chain can run off accumulated per-shard blocks without ever materialising
the users x N matrix.  Both stores yield the same sorted columns, hence
bit-identical cutpoint distributions.

Sharded execution
-----------------
With an ``executor`` (:class:`~repro.exec.ShardExecutor`), the replicate
chunks fan out across the same :class:`~repro.exec.runner.ShardRunner`
backends as collection: the index matrices are still drawn sequentially
from one generator (so the draw stream — and hence every cutpoint — is
bit-identical for every backend, worker count and chunk size), only the
pure per-chunk quantile + fit work runs on the runner, and chunk results
are reassembled in draw order.  The sorted columns are built once, before
dispatch, and travel with every chunk task.  The sharded route materialises
all index chunks up front (``n_bootstrap × n_users`` int64), which the
serial route avoids by drawing and discarding per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._rng import SeedLike, as_generator
from ..errors import ModelError
from ..exec import ShardExecutor
from .fitting import fit_vas_many, is_floored
from .quantiles import AudienceSamples, StreamedAudienceSamples

#: Draw-count cells (replicates x users) per bootstrap chunk.  Larger
#: chunks push the count block out of cache and run slower; results do
#: not depend on the chunk size.
_CHUNK_BUDGET = 1 << 18

#: Per column: the rows of users with a valid sample, in ascending value
#: order, and those sorted values.
_SortedColumns = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A two-sided percentile confidence interval."""

    low: float
    high: float
    level: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ModelError("confidence level must lie in (0, 1)")
        if self.high < self.low:
            raise ModelError("interval upper bound must be >= lower bound")

    @property
    def width(self) -> float:
        """Width of the interval."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """True if ``value`` falls inside the interval (inclusive)."""
        return self.low <= value <= self.high


def percentile_interval(values: Sequence[float], level: float) -> ConfidenceInterval:
    """Percentile bootstrap interval over a sample of estimates."""
    array = np.asarray(list(values), dtype=float)
    array = array[np.isfinite(array)]
    if array.size == 0:
        raise ModelError("cannot build a confidence interval from no finite values")
    tail = (1.0 - level) / 2.0 * 100.0
    low, high = np.percentile(array, [tail, 100.0 - tail])
    return ConfidenceInterval(low=float(low), high=float(high), level=level)


def _sorted_columns(
    samples: AudienceSamples | StreamedAudienceSamples,
) -> _SortedColumns:
    """Sort each column's valid samples, for either sample store.

    Row indices are int32 where they fit, so the columns cost 12 bytes per
    valid sample.
    """
    row_dtype = np.int32 if samples.n_users <= np.iinfo(np.int32).max else np.intp
    columns = []
    for k in range(samples.max_interests):
        if isinstance(samples, StreamedAudienceSamples):
            rows = np.flatnonzero(samples.row_counts > k)
        else:
            rows = np.flatnonzero(~np.isnan(samples.matrix[:, k]))
        values = samples.samples_for(k + 1)
        order = np.argsort(values, kind="stable")
        columns.append((rows[order].astype(row_dtype), values[order]))
    return tuple(columns)


@dataclass(frozen=True)
class _BootstrapChunkTask:
    """One replicate chunk: the sorted columns, quantiles, floor and draws."""

    columns: _SortedColumns
    q_percents: tuple[float, ...]
    floor: int
    indices: np.ndarray


def _run_bootstrap_chunk(task: _BootstrapChunkTask) -> np.ndarray:
    """Quantile and fit one chunk; returns a (n_q, chunk) array.

    Pure compute over inputs fixed at draw time — chunk results do not
    depend on which worker (or process) evaluates them, which is what keeps
    the sharded bootstrap bit-identical across backends and worker counts.
    """
    count, n_users = task.indices.shape
    replicate = np.arange(count)
    draws = np.bincount(
        (task.indices + (replicate * n_users)[:, None]).ravel(),
        minlength=count * n_users,
    )
    draws = draws.astype(np.int32).reshape(count, n_users)
    # Running totals never exceed the chunk's draw count; int32 sums run
    # about twice as fast as the default int64 ones.
    total_dtype = np.int32 if count * n_users <= np.iinfo(np.int32).max else np.int64
    quantiles = np.asarray(task.q_percents, dtype=float)[:, None] / 100.0
    vas = np.full((quantiles.size, count, len(task.columns)), np.nan)
    pending = np.ones((quantiles.size, count), dtype=bool)
    with np.errstate(all="ignore"):
        for k, (rows, values) in enumerate(task.columns):
            if rows.size == 0:
                break  # a NaN column: every row is done
            # Running draw totals in sorted-value order, replicate after
            # replicate; counts are non-negative, so the flattened total
            # never decreases and one searchsorted serves every replicate.
            running = np.cumsum(draws[:, rows].ravel(), dtype=total_dtype)
            ends = running[rows.size - 1 :: rows.size]
            starts = np.concatenate(([0], ends[:-1]))
            top = ends - starts - 1  # index of each replicate's largest valid draw
            # The ranks of masked_column_quantiles: q * (valid draws - 1),
            # floor/gamma, the at-top clamp and max(., 0).
            virtual = quantiles * top
            previous = np.floor(virtual)
            gamma = virtual - previous
            low = previous.astype(np.int64)
            high = low + 1
            at_top = virtual >= top
            low = np.where(at_top, top, low)
            high = np.where(at_top, top, high)
            ranks = np.stack([np.maximum(low, 0), np.maximum(high, 0)]) + starts
            # Searching in the totals' own dtype avoids a converted copy.
            positions = np.searchsorted(
                running, ranks.astype(total_dtype), side="right"
            )
            positions -= replicate * rows.size
            # A replicate with no valid draw points past its own segment.
            lower, upper = values[np.minimum(positions, rows.size - 1)]
            difference = upper - lower
            interpolated = np.where(
                gamma >= 0.5,
                upper - difference * (1.0 - gamma),
                lower + difference * gamma,
            )
            column = np.where(top < 0, np.nan, interpolated)
            vas[:, :, k] = column
            pending &= ~(np.isnan(column) | is_floored(column, task.floor))
            if not pending.any():
                break
    return np.stack(
        [fit_vas_many(replicate_rows, task.floor).cutpoints for replicate_rows in vas]
    )


def bootstrap_cutpoints(
    samples: AudienceSamples | StreamedAudienceSamples,
    q_percents: Sequence[float],
    *,
    n_bootstrap: int,
    seed: SeedLike = None,
    chunk_size: int | None = None,
    executor: ShardExecutor | None = None,
) -> dict[float, np.ndarray]:
    """Bootstrap distributions of the N_P cutpoint for several quantiles.

    Returns a mapping from each requested percentile to the array of
    cutpoints obtained across ``n_bootstrap`` resamples.  Replicates whose
    fit fails (e.g. a degenerate resample) contribute ``NaN`` and are
    ignored by :func:`percentile_interval`.

    The resample index matrices are drawn in bulk (one generator call per
    chunk, stream-identical to a single up-front draw) and the replicate
    quantiles and log-log fits are evaluated in vectorised chunks
    (``chunk_size`` replicates at a time, sized automatically to bound
    transient memory when not given; an ``executor`` with an explicit
    ``shard_size`` overrides the automatic sizing).  With ``executor`` the
    chunks run on its :class:`~repro.exec.runner.ShardRunner` backend —
    results are bit-identical for every backend, worker count and chunk
    size because the draws happen before dispatch and each chunk's
    computation is chunk-local.
    """
    if n_bootstrap < 1:
        raise ModelError("n_bootstrap must be >= 1")
    if chunk_size is not None and chunk_size < 1:
        raise ModelError("chunk_size must be >= 1")
    qs = tuple(AudienceSamples._validate_q(q) for q in q_percents)
    rng = as_generator(seed)
    n_users = samples.n_users
    if chunk_size is None:
        if executor is not None and executor.shard_size is not None:
            chunk_size = executor.shard_size
        else:
            chunk_size = max(1, min(n_bootstrap, _CHUNK_BUDGET // n_users))
    columns = _sorted_columns(samples)
    results = {q: np.empty(n_bootstrap, dtype=float) for q in qs}
    starts = range(0, n_bootstrap, chunk_size)

    def task(start: int) -> _BootstrapChunkTask:
        count = min(chunk_size, n_bootstrap - start)
        return _BootstrapChunkTask(
            columns=columns,
            q_percents=qs,
            floor=samples.floor,
            indices=rng.integers(0, n_users, size=(count, n_users)),
        )

    # Drawing per chunk keeps peak memory O(chunk); the concatenated
    # stream is identical to one up-front (n_bootstrap, n_users) draw,
    # so results do not depend on the chunk size.
    if executor is None:
        chunks = (_run_bootstrap_chunk(task(start)) for start in starts)
    else:
        # Sharded route: draw every chunk first (sequentially, preserving
        # the stream), then fan the pure chunk work out to the runner and
        # reassemble in draw order.
        tasks = [task(start) for start in starts]
        chunks = executor.runner().run(_run_bootstrap_chunk, tasks)
    for start, cutpoints in zip(starts, chunks):
        for q, row in zip(qs, cutpoints):
            results[q][start : start + row.size] = row
    return results
