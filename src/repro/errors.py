"""Exception hierarchy shared across the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro package."""


class ConfigurationError(ReproError):
    """A configuration object contains inconsistent or invalid values."""


class CatalogError(ReproError):
    """The interest catalog was queried for an unknown interest or built badly."""


class UnknownInterestError(CatalogError):
    """An interest id is not present in the catalog."""

    def __init__(self, interest_id: int) -> None:
        super().__init__(f"unknown interest id: {interest_id}")
        self.interest_id = interest_id


class PopulationError(ReproError):
    """The synthetic population could not be built or queried."""


class PanelError(ReproError):
    """The FDVT panel could not be built or queried."""


class ExecError(ReproError):
    """Base class for failures inside the sharded execution layer."""


class ShardFailedError(ExecError):
    """A shard task died on a runner backend, after any retries.

    Carries the shard (task) index and the backend name so callers can tell
    *which* unit of a plan failed; the original exception is available both
    as :attr:`cause` and as ``__cause__`` (the runners raise with
    ``raise ... from cause``).
    """

    def __init__(self, shard_index: int, backend: str, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard_index} failed on the {backend!r} backend: "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard_index = shard_index
        self.backend = backend
        self.cause = cause


class WorkerCrashError(ExecError):
    """A (simulated) worker crash on an in-process runner backend.

    The fault-injection harness raises this on the serial and thread
    backends where a real process kill is impossible; on the process
    backend the same fault decision exits the worker, producing a genuine
    ``BrokenProcessPool`` that the runner recovers from.  Retryable.
    """


class InjectedFaultError(ExecError):
    """A deterministic shard-task exception injected by a fault plan."""


class ServiceError(ReproError):
    """Base class for failures raised by the always-on reach service.

    The service front end (:mod:`repro.service`) degrades by *rejecting*
    work with typed responses rather than queueing forever; each rejection
    status maps to one subclass here, so callers that prefer exceptions
    (``ReachResponse.raise_for_status``) and the CLI's exit-code map can
    route on the type.
    """


class OverloadedError(ServiceError):
    """The service's bounded queue is full; the request was shed.

    ``retry_after_seconds`` hints when capacity is likely to free up
    (one coalescer tick).
    """

    def __init__(self, message: str, *, retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class DeadlineExceededError(ServiceError):
    """A request's deadline passed before the service could complete it."""


class CircuitOpenError(ServiceError):
    """The tenant's circuit breaker is open; the request was not admitted.

    ``retry_after_seconds`` is the remaining cooldown before the breaker
    will admit a half-open probe.
    """

    def __init__(self, message: str, *, retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class TenantThrottledError(ServiceError):
    """The tenant's admission token bucket cannot cover the request."""

    def __init__(self, message: str, *, retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class RequestFailedError(ServiceError):
    """A request exhausted its retry budget against (injected) API faults."""


class AdsApiError(ReproError):
    """Base class for errors returned by the simulated Ads Manager API."""


class TransientApiError(AdsApiError):
    """A transient, retryable Ads API failure (timeouts, 5xx-style blips).

    The real Ads Manager API fails intermittently over a multi-week
    campaign; the fault-injection harness raises this to simulate those
    blips.  ``retry_after_seconds`` (optional) mirrors the rate-limit
    error's hint and is honoured by the retry policy's backoff.
    """

    def __init__(
        self, message: str = "transient Ads API failure", *,
        retry_after_seconds: float | None = None,
    ) -> None:
        if retry_after_seconds is not None:
            message = f"{message} (retry after {retry_after_seconds:.2f}s)"
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class TargetingValidationError(AdsApiError):
    """A targeting specification violates a platform limit."""


class UnknownLocationError(TargetingValidationError):
    """A location code is not part of the supported country set."""

    def __init__(self, code: str) -> None:
        super().__init__(f"unknown location code: {code!r}")
        self.code = code


class RateLimitExceededError(AdsApiError):
    """The API rate limiter rejected a request."""

    def __init__(self, retry_after_seconds: float) -> None:
        super().__init__(
            f"rate limit exceeded; retry after {retry_after_seconds:.2f}s"
        )
        self.retry_after_seconds = retry_after_seconds


class AccountSuspendedError(AdsApiError):
    """The advertiser account has been suspended by the platform policy."""


class CampaignRejectedError(AdsApiError):
    """A campaign was rejected, e.g. by an enabled countermeasure rule."""


class CustomAudienceError(AdsApiError):
    """A custom audience violates the platform requirements (e.g. size < 100)."""


class ArtifactError(ReproError):
    """A disk-cache artifact failed a version, kind or integrity check.

    The disk tier (:class:`repro.cache.DiskCache`) maps this — like every
    other load failure — to a miss, so a corrupted, truncated or
    stale-format artifact is rebuilt, never trusted.
    """


class DeliveryError(ReproError):
    """The delivery engine was driven with inconsistent inputs."""


class ModelError(ReproError):
    """The uniqueness model could not be estimated from the provided samples."""


class InsufficientDataError(ModelError):
    """Too few usable data points remain to fit the uniqueness model."""
