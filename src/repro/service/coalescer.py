"""Micro-batching coalescer: many queued queries, one bulk call, one bill.

Each service tick folds every popped request into a single padded
``(n_requests, max_prefix)`` id matrix and serves it with one
:meth:`~repro.adsapi.AdsManagerAPI.serve_reach_matrix` call, which
re-checks the account state, settles one merged
:class:`~repro.adsapi.CallBill`, runs the prefix kernel and records the
bill.  The requests must have passed the service's admission, which
checks every other rule once per request (see :mod:`repro.service.loop`);
a request and the service's location list are frozen, so those verdicts
still hold at the tick.  Because the kernel is row-local, row ``r`` of the
coalesced matrix is bit-identical to a direct one-request
``estimate_reach_matrix`` call for the same interests — the service's
parity contract — and because the bill is settled once per tick, billing
stays exactly-once no matter how many tenants share the batch or how many
retries preceded it.
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
    locations: tuple[str, ...] | None = None,
) -> list[tuple[float, ...]]:
    """Serve admitted ``requests`` as one bulk call; one value tuple per request.

    Precondition: every request passed the service's admission checks,
    and ``locations`` is the resolved location tuple
    (:func:`~repro.adsapi.validation.resolve_locations`; ``None`` is
    worldwide).  Only the account state is checked here: a suspended
    account raises :class:`~repro.errors.AccountSuspendedError` before any
    token is billed.

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
    matrix = api.serve_reach_matrix(ids, counts, locations)
    return [
        tuple(row[: request.cost])
        for row, request in zip(matrix.tolist(), requests)
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
