"""Always-on reach service: admission, deadlines, shedding, degradation.

The traffic-facing subsystem over the warm simulation: a deterministic
virtual-time event loop (:class:`ReachService`) that checks each
per-tenant reach query once, admits it through token buckets and circuit
breakers, queues it with a deadline in a bounded per-tenant-fair queue,
coalesces each tick's batch into one bulk call with one merged bill, and
sheds overload with typed responses instead of waiting.  See
:mod:`repro.service.loop` for the full overload policy.
"""

from .breaker import BREAKER_STATES, CircuitBreaker
from .coalescer import coalesce_reach, direct_reach
from .loop import ReachService, ServiceConfig, ServiceStats
from .queue import PendingQueue, QueuedRequest
from .responses import RESPONSE_STATUSES, ReachRequest, ReachResponse
from .trace import RequestTrace, ServiceRunReport, TraceRequest, run_trace

__all__ = [
    "BREAKER_STATES",
    "RESPONSE_STATUSES",
    "CircuitBreaker",
    "PendingQueue",
    "QueuedRequest",
    "ReachRequest",
    "ReachResponse",
    "ReachService",
    "RequestTrace",
    "ServiceConfig",
    "ServiceRunReport",
    "ServiceStats",
    "TraceRequest",
    "coalesce_reach",
    "direct_reach",
    "run_trace",
]
