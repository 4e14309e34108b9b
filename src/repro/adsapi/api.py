"""The simulated Facebook Ads Manager API.

:class:`AdsManagerAPI` is the facade every other subsystem talks to.  It
reproduces the behaviour the paper depends on:

* reach estimates for audiences built from interests and locations, with the
  platform's reporting floor (20 users in 2017, 1,000 since 2018);
* the 25-interest and 50-location limits and the compulsory-location rule;
* request rate limiting (driven by a simulated clock);
* Custom Audience management;
* campaign authorisation hooks where countermeasures can be installed;
* account-level state, including the reactive suspension the authors
  experienced after their experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import PlatformConfig
from ..errors import (
    CampaignRejectedError,
    RateLimitExceededError,
    TargetingValidationError,
)
from ..faults import fire_inner
from ..reach.backend import ReachBackend
from ..simclock import SimClock
from .account import AdAccount
from .custom_audience import CustomAudience, CustomAudienceManager
from .policy import CampaignDecision, PlatformPolicy, PolicyWarning
from .ratelimit import TokenBucket
from .reachestimate import (
    ReachEstimate,
    apply_reporting_floor,
    apply_reporting_floor_batch,
    floored_prefix_audiences,
)
from .targeting import TargetingSpec
from .validation import validate_spec


@dataclass(frozen=True, slots=True)
class ApiCallStats:
    """Counters describing how an API instance has been used."""

    reach_estimates: int
    rate_limited: int
    campaigns_authorized: int
    campaigns_rejected: int


@dataclass(frozen=True, slots=True)
class CallBill:
    """The API-traffic cost of a block of work, as a mergeable value.

    Sharded execution computes reach blocks as pure kernels and accounts
    for them separately: every shard produces its bill, the coordinator
    merges them and settles the total in one step
    (:meth:`AdsManagerAPI.settle_reach_bill` then
    :meth:`AdsManagerAPI.record_reach_bill`).  Because the token bucket is
    drained once with the merged total — exactly what the fused
    :meth:`AdsManagerAPI.estimate_reach_matrix` does — sharded rate-limit
    accounting is bit-identical to the single pass for any shard layout.
    """

    reach_estimates: int = 0

    def __post_init__(self) -> None:
        if self.reach_estimates < 0:
            raise TargetingValidationError("a bill cannot be negative")

    @staticmethod
    def merged(bills: Sequence["CallBill"]) -> "CallBill":
        """Combine any number of bills (the empty merge is a zero bill)."""
        return CallBill(
            reach_estimates=sum(bill.reach_estimates for bill in bills)
        )


@dataclass
class _Counters:
    reach_estimates: int = 0
    rate_limited: int = 0
    campaigns_authorized: int = 0
    campaigns_rejected: int = 0


class AdsManagerAPI:
    """Facade over a reach backend exposing Ads-Manager semantics."""

    def __init__(
        self,
        backend: ReachBackend,
        *,
        platform: PlatformConfig | None = None,
        clock: SimClock | None = None,
        policy: PlatformPolicy | None = None,
        account: AdAccount | None = None,
        auto_wait: bool = True,
    ) -> None:
        self._backend = backend
        self._platform = platform or PlatformConfig()
        self._clock = clock or SimClock()
        self._policy = policy or PlatformPolicy(platform=self._platform)
        self._account = account or AdAccount()
        self._auto_wait = auto_wait
        self._custom_audiences = CustomAudienceManager(platform=self._platform)
        self._bucket = TokenBucket(
            requests_per_minute=self._platform.rate_limit_requests_per_minute,
            burst=self._platform.rate_limit_burst,
            clock=self._clock,
        )
        self._counters = _Counters()

    # -- accessors --------------------------------------------------------------

    @property
    def platform(self) -> PlatformConfig:
        """Platform limits this API instance enforces."""
        return self._platform

    @property
    def policy(self) -> PlatformPolicy:
        """The platform policy (countermeasure rules can be added to it)."""
        return self._policy

    @property
    def account(self) -> AdAccount:
        """The advertiser account bound to this API instance."""
        return self._account

    @property
    def clock(self) -> SimClock:
        """The simulated clock driving rate limiting and reviews."""
        return self._clock

    @property
    def custom_audiences(self) -> CustomAudienceManager:
        """The Custom Audience manager for this account."""
        return self._custom_audiences

    @property
    def backend(self) -> ReachBackend:
        """The reach backend answering audience-size queries."""
        return self._backend

    @property
    def rate_limiter(self) -> TokenBucket:
        """The token bucket throttling this API instance's requests."""
        return self._bucket

    def call_stats(self) -> ApiCallStats:
        """Usage counters for this API instance."""
        return ApiCallStats(
            reach_estimates=self._counters.reach_estimates,
            rate_limited=self._counters.rate_limited,
            campaigns_authorized=self._counters.campaigns_authorized,
            campaigns_rejected=self._counters.campaigns_rejected,
        )

    # -- reach estimation ----------------------------------------------------------

    def estimate_reach(self, spec: TargetingSpec) -> ReachEstimate:
        """Return the Potential Reach the dashboard would display for ``spec``."""
        self._account.ensure_active()
        validate_spec(spec, self._platform)
        self._throttle()
        raw = self._raw_audience(spec)
        self._counters.reach_estimates += 1
        return apply_reporting_floor(raw, self._platform.reach_floor)

    def estimate_reach_batch(
        self, specs: Sequence[TargetingSpec]
    ) -> tuple[ReachEstimate, ...]:
        """Potential Reach for many targeting specs in one call.

        Returns exactly what looping :meth:`estimate_reach` over ``specs``
        would return, but routes the audience computation through the
        backend's batched kernel.  Every spec is validated and consumes one
        rate-limit token, so on success ``call_stats`` and any
        countermeasure accounting see the same traffic as the scalar loop.
        Failure semantics are all-or-nothing, unlike the scalar loop:
        validation happens up front (an invalid spec fails the batch before
        any token is spent), and if the batch aborts midway — e.g. a
        rate-limit error with ``auto_wait=False``, or a backend error in a
        later group — no estimates are returned or counted, although
        tokens already consumed stay spent (as with any aborted burst).

        Specs are grouped by ``(locations, combine)``; within a group,
        consecutive AND-specs that extend each other by one interest (the
        prefix families issued by the audience-size collector) are resolved
        by a single O(N) prefix-kernel call.
        """
        specs = list(specs)
        if not specs:
            return ()
        self._account.ensure_active()
        for spec in specs:
            validate_spec(spec, self._platform)
        for _ in specs:
            self._throttle()
        raw = np.empty(len(specs), dtype=float)
        groups: dict[tuple, list[int]] = {}
        for index, spec in enumerate(specs):
            if spec.uses_custom_audience:
                raw[index] = self._raw_audience(spec)
            else:
                key = (spec.effective_locations(), spec.interest_combine)
                groups.setdefault(key, []).append(index)
        for (locations, combine), indices in groups.items():
            combinations = [specs[i].interests for i in indices]
            batch = getattr(self._backend, "audience_for_batch", None)
            if batch is not None:
                values = batch(combinations, locations, combine=combine)
            else:
                values = [
                    self._backend.audience_for(c, locations, combine=combine)
                    for c in combinations
                ]
            raw[indices] = values
        self._counters.reach_estimates += len(specs)
        return apply_reporting_floor_batch(raw, self._platform.reach_floor)

    def estimate_reach_matrix(
        self,
        id_matrix: np.ndarray,
        counts: Sequence[int] | np.ndarray,
        *,
        locations: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Potential Reach for a whole panel of prefix families in one call.

        The spec-free bulk endpoint behind panel-scale collection: row ``u``
        of ``id_matrix`` holds the first ``counts[u]`` ordered interest ids
        of one user (padding beyond that is ignored), and cell ``(u, k)`` of
        the returned float matrix is the Potential Reach the dashboard would
        display for the audience of ``id_matrix[u, :k + 1]`` — bit-identical
        to the value :meth:`estimate_reach_batch` / :meth:`estimate_reach`
        report for the corresponding :class:`TargetingSpec`, with ``NaN``
        beyond ``counts[u]``.  No ``TargetingSpec`` or
        :class:`ReachEstimate` objects are materialised; validation
        (interest cap, non-negative dup-free rows, one shared location
        list), reporting-floor clipping and rate-limit accounting all run
        vectorised over the matrix.

        Every cell consumes one rate-limit token, exactly like the
        per-spec paths, and increments ``call_stats().reach_estimates``.
        Tokens the bucket cannot cover immediately are paid with a single
        consolidated clock fast-forward (the sum of the per-request waits
        the scalar loop would have made); each such waited cell increments
        the ``rate_limited`` counter.  With ``auto_wait=False`` the call
        raises :class:`RateLimitExceededError` after consuming the
        immediately available tokens — one recorded rate-limit event, like
        an aborted scalar burst — and no estimates are returned or counted.
        """
        ids, counts, locations = self.validate_reach_matrix(
            id_matrix, counts, locations=locations
        )
        bill = self.reach_matrix_bill(counts)
        self.settle_reach_bill(bill)
        values = self.compute_reach_matrix(ids, counts, locations)
        self.record_reach_bill(bill)
        return values

    # -- sharded reach estimation --------------------------------------------------
    #
    # The bulk endpoint decomposes into four steps so a shard coordinator
    # can validate per shard, settle ONE merged bill, fan the pure kernel
    # out to workers and record the call stats afterwards — in exactly the
    # order the fused endpoint performs them, which is what keeps sharded
    # accounting bit-identical across worker counts.

    def validate_reach_matrix(
        self,
        id_matrix: np.ndarray,
        counts: Sequence[int] | np.ndarray,
        *,
        locations: Sequence[str] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...] | None]:
        """All of :meth:`estimate_reach_matrix`'s checks, no tokens spent.

        Returns the normalised ``(id_matrix, counts, locations)`` triple
        (int64 arrays, effective location tuple with worldwide resolved to
        ``None``) ready for :meth:`compute_reach_matrix`.  Validation is
        row-local, so validating shard blocks separately accepts and
        rejects exactly the same inputs as one whole-matrix call.
        """
        ids = np.asarray(id_matrix, dtype=np.int64)
        if ids.ndim != 2:
            raise TargetingValidationError(
                "id_matrix must be a 2D (n_users, width) matrix"
            )
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (ids.shape[0],):
            raise TargetingValidationError(
                "counts must hold one entry per id_matrix row"
            )
        if counts.size and (int(counts.min()) < 0 or int(counts.max()) > ids.shape[1]):
            raise TargetingValidationError("counts must lie in [0, id_matrix width]")
        self._account.ensure_active()
        # One location list is shared by the whole matrix: validate it once
        # through the standard spec checks instead of once per cell, and
        # resolve it exactly like the per-spec paths (empty/worldwide
        # location lists reach the backend as None).
        probe = TargetingSpec.for_interests((), locations=locations)
        validate_spec(probe, self._platform)
        locations = probe.effective_locations()
        if counts.size and int(counts.max()) > self._platform.max_interests_per_audience:
            raise TargetingValidationError(
                f"at most {self._platform.max_interests_per_audience} interests are "
                f"allowed in an audience, got {int(counts.max())}"
            )
        valid = np.arange(ids.shape[1])[None, :] < counts[:, None]
        work = np.where(valid, ids, -1)
        if (work[valid] < 0).any():
            raise TargetingValidationError("interest ids must be non-negative")
        # Duplicate ids inside a row prefix would make the prefix family
        # ill-formed; padding (-1) compares equal only to itself.
        sorted_rows = np.sort(work, axis=1)
        if ((sorted_rows[:, 1:] == sorted_rows[:, :-1]) & (sorted_rows[:, 1:] >= 0)).any():
            raise TargetingValidationError("interests must not contain duplicates")
        return ids, counts, locations

    def reach_matrix_bill(self, counts: Sequence[int] | np.ndarray) -> CallBill:
        """The bill of a (block of a) reach matrix: one request per cell."""
        return CallBill(reach_estimates=int(np.asarray(counts, dtype=np.int64).sum()))

    def settle_reach_bill(self, bill: CallBill) -> None:
        """Pay a (merged) bill's rate-limit cost in one accounting step.

        Equivalent to one sequential :meth:`estimate_reach` throttle per
        billed request: a single bucket drain plus one consolidated clock
        fast-forward, with the ``rate_limited`` counter incremented per
        request that had to wait.  Must be called exactly once with the
        *merged* bill of a shard plan — settling shard bills separately
        would interleave extra refills and break bit-identity with the
        fused pass.

        This single settle point is also what makes billing exactly-once
        under the fault layer: shard retries and worker-crash resubmits
        (:mod:`repro.faults`) re-run pure compute tasks that never touch
        this API, so no attempt — first, failed or repeated — can drain
        the bucket or advance the clock a second time.  The reach
        service's coalescer (:mod:`repro.service`) leans on the same
        contract: each tick folds every admitted request into one matrix
        and settles one merged bill here, regardless of how many tenants
        contributed rows or how many retries a tick burned.

        The :func:`~repro.faults.fire_inner` site fires *before* the
        bucket drains: a ``depth="billing"`` fault plan makes the settle
        raise with no accounting trace, so the coordinator's retry settles
        the same merged bill exactly once — the chaos-parity tests pin
        throttle counters and clock bit-identical to a fault-free run.
        """
        fire_inner("billing")
        self._throttle_bulk(bill.reach_estimates)

    def record_reach_bill(self, bill: CallBill) -> None:
        """Record a settled bill's successful calls in ``call_stats``."""
        self._counters.reach_estimates += bill.reach_estimates

    def compute_reach_matrix(
        self,
        id_matrix: np.ndarray,
        counts: Sequence[int] | np.ndarray,
        locations: Sequence[str] | None = None,
    ) -> np.ndarray:
        """The pure compute stage of the bulk endpoint (kernel + floor).

        No validation and no accounting happen here — callers must have run
        :meth:`validate_reach_matrix` and settled the bill.  The stage is
        row-local and mutates no API state, which is what lets shard
        runners execute blocks of it concurrently.
        """
        return floored_prefix_audiences(
            self._backend,
            np.asarray(id_matrix, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
            locations,
            self._platform.reach_floor,
        )

    def audience_warnings(self, spec: TargetingSpec) -> tuple[PolicyWarning, ...]:
        """Warnings the campaign manager would display for ``spec``."""
        validate_spec(spec, self._platform)
        return self._policy.review_audience(spec, self._raw_audience(spec))

    def _raw_audience(self, spec: TargetingSpec) -> float:
        """True (unfloored) audience size; never exposed to advertisers."""
        if spec.uses_custom_audience:
            audience = self._custom_audiences.get(spec.custom_audience_id)
            base = float(audience.active_size)
            if spec.interests:
                # Combining a custom audience with interests narrows it further;
                # we approximate with the interest-selectivity of the backend.
                selectivity = self._backend.audience_for(
                    spec.interests,
                    spec.effective_locations(),
                    combine=spec.interest_combine,
                ) / max(self._backend.world_size(spec.effective_locations()), 1.0)
                base *= max(min(selectivity, 1.0), 0.0)
            return base
        return self._backend.audience_for(
            spec.interests,
            spec.effective_locations(),
            combine=spec.interest_combine,
        )

    # -- campaign authorisation -------------------------------------------------------

    def authorize_campaign(
        self,
        spec: TargetingSpec,
        *,
        active_audience: float | None = None,
        raw_audience: float | None = None,
    ) -> CampaignDecision:
        """Run the policy checks a campaign goes through before launching.

        Raises :class:`CampaignRejectedError` when an installed countermeasure
        rejects the campaign; otherwise records the launch on the account and
        returns the (possibly warning-laden) decision.  Callers that already
        resolved the spec's raw audience through a batched kernel (the
        nanotargeting experiment plans whole prefix families in one sweep)
        may pass it as ``raw_audience`` to skip the redundant backend query;
        the batched values are bit-identical to the scalar lookup.
        """
        self._account.ensure_active()
        validate_spec(spec, self._platform)
        raw = self._raw_audience(spec) if raw_audience is None else float(raw_audience)
        decision = self._policy.authorize_campaign(
            spec, raw, active_audience=active_audience
        )
        if not decision.approved:
            self._counters.campaigns_rejected += 1
            raise CampaignRejectedError(
                "campaign rejected by platform policy: "
                + "; ".join(decision.rejection_reasons)
            )
        self._counters.campaigns_authorized += 1
        self._account.record_campaign_launch()
        return decision

    # -- custom audiences ---------------------------------------------------------------

    def create_custom_audience(
        self,
        pii_records: Sequence[str],
        matched_user_ids: Sequence[int],
        *,
        active_user_ids: Sequence[int] | None = None,
        audience_id: str | None = None,
    ) -> CustomAudience:
        """Upload a PII list and create a Custom Audience from its matches."""
        self._account.ensure_active()
        return self._custom_audiences.create(
            pii_records,
            matched_user_ids,
            active_user_ids=active_user_ids,
            audience_id=audience_id,
        )

    # -- internals ------------------------------------------------------------------------

    def _throttle(self) -> None:
        if self._bucket.try_acquire():
            return
        self._counters.rate_limited += 1
        if not self._auto_wait:
            raise RateLimitExceededError(self._bucket.seconds_until_available())
        # Fast-forward the simulated clock until a token is available; the
        # small margin absorbs floating-point rounding in the refill math.
        self._clock.advance(self._bucket.seconds_until_available() + 1e-6)
        self._bucket.acquire()

    def _throttle_bulk(self, n_requests: int) -> None:
        """Consume ``n_requests`` rate-limit tokens in one accounting step.

        Equivalent to ``n_requests`` sequential :meth:`_throttle` calls, but
        with a single bucket drain and a single consolidated clock
        fast-forward for the tokens the bucket cannot cover immediately —
        the ``rate_limited`` counter still counts one event per request that
        had to wait, matching the scalar loop.
        """
        if n_requests <= 0:
            return
        shortfall = self._bucket.consume_bulk(float(n_requests))
        if shortfall <= 0:
            return
        if not self._auto_wait:
            # The scalar loop aborts on its first failed acquire, having
            # recorded exactly one rate-limit event.
            self._counters.rate_limited += 1
            raise RateLimitExceededError(self._bucket.seconds_until_available())
        waited = int(np.ceil(shortfall - 1e-9))
        self._counters.rate_limited += waited
        self._clock.advance(
            self._bucket.seconds_until_available(shortfall) + 1e-6 * waited
        )
        # The wait refilled (at most a burst of) tokens that the waited
        # requests immediately spend; the bucket ends empty, like after a
        # drained scalar burst.
        self._bucket.drain()
