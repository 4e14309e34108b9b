"""Audience-size sample matrices and the AS(Q, N) / VAS(Q) machinery.

Section 4.1 of the paper defines, for every number of interests ``N`` in
1..25, a vector of audience sizes (one sample per panel user), the quantile
``AS(Q, N)`` of each vector, and the quantile-vs-N vector

    VAS(Q) = [AS(Q, 1), AS(Q, 2), ..., AS(Q, 25)].

:class:`AudienceSamples` stores the underlying samples as a users x N matrix
(``NaN`` where a user has fewer than ``N`` interests) so that quantiles
and per-group subsetting are cheap array operations.

For streamed collection (``AudienceSizeCollector.collect_stream``) the
mergeable :class:`AudienceAccumulator` absorbs per-shard sample blocks as
they arrive — ``update(block)`` per block, ``merge(other)`` across
accumulators, ``finalize()`` once — and produces a
:class:`StreamedAudienceSamples`: a column store (per-N compact vectors of
the valid samples plus per-user prefix lengths) that answers the same
quantile and bootstrap queries *bit-identically* to the dense matrix, while
the full users x N sample matrix is never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import InsufficientDataError, ModelError


@dataclass(frozen=True)
class AudienceSamples:
    """Audience-size samples for combinations of 1..max_interests interests."""

    matrix: np.ndarray
    floor: int
    user_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ModelError("the sample matrix must be 2-dimensional (users x N)")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ModelError("the sample matrix must not be empty")
        if self.floor < 1:
            raise ModelError("floor must be at least 1")
        if self.user_ids and len(self.user_ids) != matrix.shape[0]:
            raise ModelError("user_ids must have one entry per matrix row")
        object.__setattr__(self, "matrix", matrix)

    # -- basic views -------------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of panel users contributing samples."""
        return int(self.matrix.shape[0])

    @property
    def max_interests(self) -> int:
        """Largest number of combined interests (the matrix width)."""
        return int(self.matrix.shape[1])

    def samples_for(self, n_interests: int) -> np.ndarray:
        """The audience-size vector for ``n_interests`` (NaN rows dropped)."""
        column = self._column(n_interests)
        return column[~np.isnan(column)]

    def sample_count(self, n_interests: int) -> int:
        """Number of users contributing a sample for ``n_interests``."""
        return int(self.samples_for(n_interests).size)

    # -- quantiles --------------------------------------------------------------------

    def vas(self, q_percent: float) -> np.ndarray:
        """``VAS(Q)``: the quantile vector across N = 1..max_interests."""
        return self.vas_many([q_percent])[0]

    def vas_many(self, q_percents: Sequence[float]) -> np.ndarray:
        """Quantile vectors for several Q values at once (rows follow input order)."""
        qs = [self._validate_q(q) for q in q_percents]
        with np.errstate(all="ignore"):
            result = np.nanpercentile(self.matrix, qs, axis=0)
        return np.atleast_2d(result)

    # -- resampling --------------------------------------------------------------------

    def subset_rows(self, row_indices: Sequence[int]) -> "AudienceSamples":
        """Build a sample matrix restricted to a subset of users."""
        indices = np.asarray(list(row_indices), dtype=int)
        if indices.size == 0:
            raise InsufficientDataError("cannot build an empty subset")
        ids = tuple(self.user_ids[i] for i in indices) if self.user_ids else ()
        return AudienceSamples(self.matrix[indices], self.floor, ids)

    def take_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Gather user rows by (possibly multi-dimensional) index array.

        ``take_rows(idx)[..., :]`` equals ``matrix[idx]``, the same block
        :meth:`StreamedAudienceSamples.take_rows` reconstructs.  The
        bootstrap does not gather rows (it sorts each column once); the
        resampling reference in the tests does.
        """
        return self.matrix[np.asarray(row_indices, dtype=np.intp)]

    # -- internals -----------------------------------------------------------------------

    def _column(self, n_interests: int) -> np.ndarray:
        if not 1 <= n_interests <= self.max_interests:
            raise ModelError(
                f"n_interests must lie in [1, {self.max_interests}], got {n_interests}"
            )
        return self.matrix[:, n_interests - 1]

    @staticmethod
    def _validate_q(q_percent: float) -> float:
        if not 0.0 < q_percent < 100.0:
            raise ModelError("quantiles must be expressed in percent, within (0, 100)")
        return float(q_percent)


def masked_column_quantiles(
    stacked: np.ndarray, q_percents: Sequence[float]
) -> np.ndarray:
    """``nanpercentile(..., axis=1)`` over a 3-D replicate stack, vectorised.

    ``stacked`` has shape ``(replicates, users, N)``; the result has shape
    ``(len(q_percents), replicates, N)`` and is bit-identical to calling
    :func:`numpy.nanpercentile` per replicate.  The kernel sorts the whole
    stack once (NaNs sort to the end), counts valid entries per column, and
    evaluates the same linear-interpolation formula (including the
    ``gamma >= 0.5`` anti-cancellation branch of NumPy's ``_lerp``) with
    pure array indexing.  The bootstrap no longer calls it — its sort-once
    kernel uses the same ranks and interpolation — so it serves as the
    quantile step of the tests' resampling reference.
    """
    values = np.asarray(stacked, dtype=float)
    if values.ndim != 3:
        raise ModelError("masked_column_quantiles expects a 3-D stack")
    quantiles = np.asarray([float(q) for q in q_percents], dtype=float) / 100.0
    ordered = np.sort(values, axis=1)  # NaNs land after every finite value
    counts = (~np.isnan(ordered)).sum(axis=1)  # (replicates, N)
    top = counts - 1  # index of the largest valid entry
    gathered = np.moveaxis(ordered, 1, 2)  # (replicates, N, users)
    results = np.empty((quantiles.size, values.shape[0], values.shape[2]))
    for position, quantile in enumerate(quantiles):
        virtual = quantile * top
        previous = np.floor(virtual)
        gamma = virtual - previous
        low = previous.astype(np.int64)
        high = low + 1
        at_top = virtual >= top
        low = np.where(at_top, top, low)
        high = np.where(at_top, top, high)
        safe_low = np.maximum(low, 0)
        safe_high = np.maximum(high, 0)
        lower = np.take_along_axis(gathered, safe_low[..., None], axis=2)[..., 0]
        upper = np.take_along_axis(gathered, safe_high[..., None], axis=2)[..., 0]
        difference = upper - lower
        interpolated = np.where(
            gamma >= 0.5,
            upper - difference * (1.0 - gamma),
            lower + difference * gamma,
        )
        results[position] = np.where(counts == 0, np.nan, interpolated)
    return results


@dataclass(frozen=True)
class StreamedAudienceSamples:
    """A column-store view of streamed audience samples.

    Holds, for every interest count ``N``, the compact vector of valid
    samples (users with at least ``N`` interests, in panel-row order) plus
    each user's prefix length — never the dense users x N matrix.  The
    quantile interface (:meth:`vas_many`) and the row gathers
    (:meth:`take_rows`) are bit-identical to their dense
    :class:`AudienceSamples` counterparts: the compact column equals the
    dense column with its ``NaN`` tail removed, and a gathered row block
    reconstructs exactly ``matrix[indices]``.
    """

    #: Per-column compact sample vectors, column k holding the samples of
    #: every user with ``row_counts > k`` in row order.
    columns: tuple[np.ndarray, ...]
    #: Number of valid (leading) samples per user row.
    row_counts: np.ndarray
    floor: int
    user_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise ModelError("streamed samples need at least one column")
        if self.floor < 1:
            raise ModelError("floor must be at least 1")
        row_counts = np.asarray(self.row_counts, dtype=np.int64)
        if row_counts.ndim != 1 or row_counts.size == 0:
            raise ModelError("row_counts must be a non-empty 1-D vector")
        if self.user_ids and len(self.user_ids) != row_counts.size:
            raise ModelError("user_ids must have one entry per user row")
        for k, column in enumerate(self.columns):
            if column.shape != (int((row_counts > k).sum()),):
                raise ModelError(
                    "column store is inconsistent with the per-row counts"
                )
        object.__setattr__(self, "row_counts", row_counts)

    @property
    def n_users(self) -> int:
        """Number of panel users contributing samples."""
        return int(self.row_counts.size)

    @property
    def max_interests(self) -> int:
        """Largest number of combined interests (the column count)."""
        return len(self.columns)

    def samples_for(self, n_interests: int) -> np.ndarray:
        """The audience-size vector for ``n_interests`` (valid entries only)."""
        if not 1 <= n_interests <= self.max_interests:
            raise ModelError(
                f"n_interests must lie in [1, {self.max_interests}], got {n_interests}"
            )
        return self.columns[n_interests - 1]

    def vas(self, q_percent: float) -> np.ndarray:
        """``VAS(Q)``: the quantile vector across N = 1..max_interests."""
        return self.vas_many([q_percent])[0]

    def vas_many(self, q_percents: Sequence[float]) -> np.ndarray:
        """Quantile vectors for several Q values, from the column store.

        Bit-identical to :meth:`AudienceSamples.vas_many` on the dense
        matrix: ``nanpercentile`` over a matrix column first drops the
        ``NaN`` tail and then computes the plain percentile of exactly the
        vector each compact column stores.
        """
        qs = [AudienceSamples._validate_q(q) for q in q_percents]
        result = np.full((len(qs), self.max_interests), np.nan)
        for k, column in enumerate(self.columns):
            if column.size:
                result[:, k] = np.percentile(column, qs)
        return result

    def take_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Reconstruct ``matrix[row_indices]`` from the column store.

        The result is a dense gathered block — the full matrix itself is
        never built.  Column ``k`` holds the sample of user ``u`` at
        position ``rank_k(u)``, the number of earlier rows with more than
        ``k`` valid samples, so the block is filled one column at a time.
        """
        indices = np.asarray(row_indices, dtype=np.intp)
        flat = indices.reshape(-1)
        gathered = np.full((flat.size, self.max_interests), np.nan)
        for k, column in enumerate(self.columns):
            member = self.row_counts > k
            ranks = np.cumsum(member) - 1
            present = member[flat]
            gathered[present, k] = column[ranks[flat[present]]]
        return gathered.reshape(*indices.shape, self.max_interests)

    def to_samples(self) -> AudienceSamples:
        """Materialise the dense :class:`AudienceSamples` (debug/parity aid)."""
        return AudienceSamples(
            matrix=self.take_rows(np.arange(self.n_users)),
            floor=self.floor,
            user_ids=self.user_ids,
        )


class AudienceAccumulator:
    """Mergeable accumulator of per-shard :class:`AudienceSamples` blocks.

    The streaming counterpart of collecting one dense matrix: feed it the
    blocks of ``AudienceSizeCollector.collect_stream`` (in row order) with
    :meth:`update`, combine independently filled accumulators with
    :meth:`merge`, and :meth:`finalize` into a
    :class:`StreamedAudienceSamples`.  Peak memory is one block plus the
    compact valid samples — the users x N matrix is never materialised.
    Conforms to the :class:`repro.exec.Sink` protocol.
    """

    def __init__(self) -> None:
        self._column_chunks: list[list[np.ndarray]] = []
        self._row_count_chunks: list[np.ndarray] = []
        self._user_id_chunks: list[tuple[int, ...]] = []
        self._all_blocks_carried_ids = True
        self._floor: int | None = None

    @property
    def n_users(self) -> int:
        """User rows absorbed so far."""
        return int(sum(chunk.size for chunk in self._row_count_chunks))

    def update(self, block: AudienceSamples) -> "AudienceAccumulator":
        """Absorb one block of sample rows (rows append in arrival order)."""
        if self._floor is None:
            self._floor = block.floor
        elif self._floor != block.floor:
            raise ModelError("all blocks must share one reporting floor")
        matrix = block.matrix
        valid = ~np.isnan(matrix)
        counts = valid.sum(axis=1)
        # The column store indexes membership by prefix length, which is
        # only sound for the prefix-shaped NaN layout collection produces.
        if not np.array_equal(
            valid, np.arange(matrix.shape[1])[None, :] < counts[:, None]
        ):
            raise ModelError(
                "blocks must have prefix structure (valid samples lead each row)"
            )
        while len(self._column_chunks) < matrix.shape[1]:
            self._column_chunks.append([])
        for k in range(matrix.shape[1]):
            self._column_chunks[k].append(matrix[counts > k, k])
        self._row_count_chunks.append(counts.astype(np.int64))
        if block.user_ids:
            self._user_id_chunks.append(block.user_ids)
        else:
            self._all_blocks_carried_ids = False
        return self

    def merge(self, other: "AudienceAccumulator") -> "AudienceAccumulator":
        """Append another accumulator's rows after this one's (in place)."""
        if other._floor is not None:
            if self._floor is None:
                self._floor = other._floor
            elif self._floor != other._floor:
                raise ModelError("all blocks must share one reporting floor")
        while len(self._column_chunks) < len(other._column_chunks):
            self._column_chunks.append([])
        for k, chunks in enumerate(other._column_chunks):
            self._column_chunks[k].extend(chunks)
        self._row_count_chunks.extend(other._row_count_chunks)
        self._user_id_chunks.extend(other._user_id_chunks)
        self._all_blocks_carried_ids = (
            self._all_blocks_carried_ids and other._all_blocks_carried_ids
        )
        return self

    def finalize(self) -> StreamedAudienceSamples:
        """Seal the accumulator into a :class:`StreamedAudienceSamples`."""
        if self._floor is None or not self._row_count_chunks:
            raise ModelError("cannot finalize an empty accumulator")
        columns = tuple(
            np.concatenate(chunks) if chunks else np.empty(0, dtype=float)
            for chunks in self._column_chunks
        )
        user_ids: tuple[int, ...] = ()
        if self._all_blocks_carried_ids:
            user_ids = tuple(uid for chunk in self._user_id_chunks for uid in chunk)
        return StreamedAudienceSamples(
            columns=columns,
            row_counts=np.concatenate(self._row_count_chunks),
            floor=self._floor,
            user_ids=user_ids,
        )


def probability_to_percentile(probability: float) -> float:
    """Map a uniqueness probability ``P`` to the percentile used for VAS.

    ``N_P`` is derived from the ``P``-quantile of the audience-size
    distribution: an audience size that is below 1 for the ``P``-th
    percentile means that a fraction ``P`` of users would be unique.
    """
    if not 0.0 < probability < 1.0:
        raise ModelError("probability must lie in (0, 1)")
    return probability * 100.0
