"""Micro-batching coalescer: many queued queries, one bulk call, one bill.

Each service tick folds every popped request into a single padded
``(n_requests, max_prefix)`` id matrix and serves it with one
:meth:`~repro.adsapi.AdsManagerAPI.estimate_reach_matrix` call, which
validates the matrix, settles one merged :class:`~repro.adsapi.CallBill`,
runs the prefix kernel and records the bill.  Because the kernel is
row-local, row ``r`` of the coalesced matrix is bit-identical to a direct
one-request ``estimate_reach_matrix`` call for the same interests — the
service's parity contract — and because the bill is settled once per
tick, billing stays exactly-once no matter how many tenants share the
batch or how many retries preceded it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..adsapi.reachestimate import pad_id_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adsapi import AdsManagerAPI
    from .responses import ReachRequest


def coalesce_reach(
    api: "AdsManagerAPI",
    requests: Sequence["ReachRequest"],
    *,
    locations: Sequence[str] | None = None,
) -> list[tuple[float, ...]]:
    """Serve ``requests`` as one bulk call; one value tuple per request.

    The returned tuple for request ``r`` holds the Potential Reach of
    each prefix of ``r.interests``, bit-identical to a direct
    ``estimate_reach_matrix`` call on that row alone.  Rate-limit cost is
    one token per cell, settled as a single merged bill; with the API's
    ``auto_wait`` this fast-forwards the *API's* private clock, never the
    service's virtual clock, so deadline accounting stays untouched.
    """
    if not requests:
        return []
    ids, counts = pad_id_rows([request.interests for request in requests])
    matrix = api.estimate_reach_matrix(ids, counts, locations=locations)
    return [
        tuple(float(v) for v in matrix[row, : request.cost])
        for row, request in enumerate(requests)
    ]


def direct_reach(
    api: "AdsManagerAPI",
    request: "ReachRequest",
    *,
    locations: Sequence[str] | None = None,
) -> tuple[float, ...]:
    """The reference value: one direct bulk-endpoint call for one request.

    Used by the parity checks (tests and the benchmark stage) to pin that
    coalesced service answers equal direct calls bit-for-bit.  Bills the
    given API — pass a fresh one to leave service accounting untouched.
    """
    ids = np.asarray([request.interests], dtype=np.int64)
    counts = np.asarray([request.cost], dtype=np.int64)
    matrix = api.estimate_reach_matrix(ids, counts, locations=locations)
    return tuple(float(v) for v in matrix[0, : request.cost])
