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
   chunk — stream-identical to a single up-front draw) and one ``bincount``
   per replicate turns them into user-major per-user draw counts, with an
   all-zero row after the last user;
2. per column, a two-level rank search finds the two order statistics each
   quantile needs.  The column's sorted rows, padded with the zero row to
   whole blocks of :data:`_BLOCK`, gather whole rows of counts; one sum per
   block gives every replicate's block totals, one running sum over the
   flattened (replicate, block) totals and one ``searchsorted`` find the
   block holding each rank, and a running sum over just the hit blocks
   counts the entries at or below the rank left over.  The positions are
   the ones a running sum over every (replicate, user) cell would give,
   and they are interpolated exactly as
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

Transient memory is O(chunk * users) small integers: the chunk's int64
resample indices while they are counted, the draw counts (the smallest
unsigned dtype that holds ``n_users``, 2 bytes a cell at paper scale) and
one column's gathered counts.  The running sums cover only the block
totals and the hit blocks.  The sorted columns cost about 12 bytes per
valid sample.

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
dispatch, and travel with every chunk task.  Each task carries its chunk's
draw counts rather than its indices, so the sharded route, which draws
every chunk before dispatch, holds ``n_bootstrap × (n_users + 1)`` counts
of the smallest unsigned dtype that holds ``n_users`` (a quarter of the
int64 indices at paper scale); the serial route draws and discards per
chunk.
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
#: chunks spread each column's fixed cost over more replicates but hold
#: more transient memory; results do not depend on the chunk size.
_CHUNK_BUDGET = 1 << 19

#: Sorted rows per block of the two-level rank search.  16 ran fastest of
#: 8, 16, 32 and 64 at paper scale; results do not depend on it.
_BLOCK = 16

#: Per column: the rows of users with a valid sample, in ascending value
#: order and padded to whole blocks, and those sorted values.
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

    Each column's sorted rows are padded to a whole number of
    :data:`_BLOCK` blocks with ``n_users``, the index of the chunk's
    all-zero draw-count row.  Row indices are int32 where they fit, so the
    columns cost about 12 bytes per valid sample.
    """
    n_users = samples.n_users
    row_dtype = np.int32 if n_users <= np.iinfo(np.int32).max else np.intp
    columns = []
    for k in range(samples.max_interests):
        if isinstance(samples, StreamedAudienceSamples):
            rows = np.flatnonzero(samples.row_counts > k)
        else:
            rows = np.flatnonzero(~np.isnan(samples.matrix[:, k]))
        values = samples.samples_for(k + 1)
        order = np.argsort(values, kind="stable")
        padded = np.full(-(-rows.size // _BLOCK) * _BLOCK, n_users, dtype=row_dtype)
        padded[: rows.size] = rows[order]
        columns.append((padded, values[order]))
    return tuple(columns)


@dataclass(frozen=True)
class _BootstrapChunkTask:
    """One replicate chunk: the sorted columns, quantiles, floor and draws.

    ``draws[u, r]`` is how often replicate ``r`` drew user ``u``; the last
    row (the sorted columns' padding row) is all zero.
    """

    columns: _SortedColumns
    q_percents: tuple[float, ...]
    floor: int
    draws: np.ndarray


def _draw_counts(indices: np.ndarray) -> np.ndarray:
    """Per-user draw counts of a chunk's (replicates, users) resample indices.

    Returns the user-major ``(n_users + 1, replicates)`` counts with an
    all-zero last row, in the smallest unsigned dtype that holds
    ``n_users`` (no user is drawn more often than that).  One small
    ``bincount`` per replicate stays in cache, unlike one over the chunk.
    """
    count, n_users = indices.shape
    counts = np.empty((count, n_users + 1), dtype=np.min_scalar_type(n_users))
    for replicate, row in enumerate(indices):
        counts[replicate] = np.bincount(row, minlength=n_users + 1)
    return np.ascontiguousarray(counts.T)


def _run_bootstrap_chunk(task: _BootstrapChunkTask) -> np.ndarray:
    """Quantile and fit one chunk; returns a (n_q, chunk) array.

    Pure compute over inputs fixed at draw time — chunk results do not
    depend on which worker (or process) evaluates them, which is what keeps
    the sharded bootstrap bit-identical across backends and worker counts.
    """
    draws = task.draws
    n_users, count = draws.shape[0] - 1, draws.shape[1]
    replicate = np.arange(count)
    # Running totals never exceed the chunk's draw count; int32 sums run
    # about twice as fast as the default int64 ones.
    total_dtype = np.int32 if count * n_users <= np.iinfo(np.int32).max else np.int64
    quantiles = np.asarray(task.q_percents, dtype=float)[:, None] / 100.0
    vas = np.full((quantiles.size, count, len(task.columns)), np.nan)
    pending = np.ones((quantiles.size, count), dtype=bool)
    with np.errstate(all="ignore"):
        for k, (rows, values) in enumerate(task.columns):
            if values.size == 0:
                break  # a NaN column: every row is done
            n_blocks = rows.size // _BLOCK
            # (block, entry, replicate) draw counts in sorted-value order.
            # A block's total is at most a replicate's n_users draws, so
            # it fits the counts' own dtype.
            blocks = np.take(draws, rows, axis=0).reshape(n_blocks, _BLOCK, count)
            totals = blocks.sum(axis=1, dtype=draws.dtype)
            # Running block totals, replicate after replicate, behind a
            # leading zero: running[i] is the total before flattened block
            # i.  Counts are non-negative, so the totals never decrease and
            # one searchsorted serves every replicate.
            running = np.zeros(count * n_blocks + 1, dtype=total_dtype)
            np.cumsum(totals.T, dtype=total_dtype, out=running[1:])
            starts = running[:-1:n_blocks]
            top = running[n_blocks::n_blocks] - starts - 1  # largest valid rank
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
            hit = np.searchsorted(running[1:], ranks.astype(total_dtype), side="right")
            # A replicate with no valid draw points past its own blocks.
            block = np.minimum(hit - replicate * n_blocks, n_blocks - 1)
            left = ranks - running[replicate * n_blocks + block]
            # Inside the hit block, the rank's position is the number of
            # entries whose running count is still at or below what is left.
            within = np.cumsum(blocks[block, :, replicate], axis=-1, dtype=total_dtype)
            positions = block * _BLOCK + np.count_nonzero(
                within <= left[..., None], axis=-1
            )
            lower, upper = values[np.minimum(positions, values.size - 1)]
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
    if not qs:
        raise ModelError("at least one quantile is required")
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
            draws=_draw_counts(rng.integers(0, n_users, size=(count, n_users))),
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
