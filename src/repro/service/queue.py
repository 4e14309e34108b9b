"""Bounded pending queue with per-tenant lanes and deadline purging.

The queue is where the service's overload policy lives:

* **Bounded** — capacity is measured in reach-matrix *cells* (the same
  unit as admission tokens and billing), and :meth:`PendingQueue.has_room`
  is checked before anything is queued.  A full queue means the caller is
  shed with a typed ``overloaded`` response; nothing ever waits
  unboundedly.
* **Per-tenant lanes, round-robin service** — each tenant gets a FIFO
  lane and :meth:`PendingQueue.pop_batch` drains lanes round-robin under
  a per-tick cell budget, rotating the starting lane every tick.  A hot
  tenant can fill its own lane (and get itself shed at admission) but
  cannot starve the others: every tick each waiting tenant gets a slot
  before any lane gets a second one.
* **Deadline purging** — every entry carries an absolute virtual-time
  deadline; :meth:`PendingQueue.purge_expired` sweeps entries whose
  deadline passed so they are answered ``deadline_exceeded`` instead of
  rotting at the head of a lane.

Entries scheduled for a retry carry ``not_before`` (the backoff landing
time); a lane whose head is still backing off is skipped for the tick —
later entries of the same tenant do *not* overtake it, preserving
per-tenant FIFO order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .responses import ReachRequest


@dataclass
class QueuedRequest:
    """A queued request plus the mutable bookkeeping the loop needs."""

    #: Monotonic admission id — the fault-plan task index.
    index: int
    request: ReachRequest
    #: Service virtual time of admission.
    submitted_at: float
    #: Absolute virtual-time deadline; past it the request is shed.
    deadline: float
    #: Earliest virtual time the next attempt may run (retry backoff).
    not_before: float = 0.0
    #: Attempts already burned against the fault plan.
    attempt: int = 0
    #: Virtual latency accumulated from injected slow faults.
    latency_penalty: float = 0.0

    @property
    def cost(self) -> int:
        return self.request.cost


@dataclass
class PendingQueue:
    """Bounded per-tenant FIFO lanes drained round-robin."""

    #: Total queued cells the queue will hold before shedding.
    max_cells: int
    _lanes: dict[str, deque] = field(default_factory=dict)
    _cells: int = 0
    #: Rotating round-robin offset so no lane is structurally first.
    _rotation: int = 0
    #: Lower bound on every queued deadline: until time passes it, a purge is a no-op.
    _earliest_deadline: float = float("inf")

    def __post_init__(self) -> None:
        if self.max_cells < 1:
            raise ConfigurationError("max_cells must be at least 1")

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    @property
    def queued_cells(self) -> int:
        """Cells currently held across all lanes."""
        return self._cells

    def has_room(self, cost: int) -> bool:
        """Whether ``cost`` more cells fit under the bound."""
        return self._cells + cost <= self.max_cells

    def push(self, entry: QueuedRequest) -> None:
        """Append ``entry`` to its tenant's lane (check :meth:`has_room` first)."""
        if not self.has_room(entry.cost):
            raise ConfigurationError(
                "push on a full queue — callers must check has_room and shed"
            )
        lane = self._lanes.get(entry.request.tenant)
        if lane is None:
            lane = self._lanes[entry.request.tenant] = deque()
        lane.append(entry)
        self._cells += entry.cost
        self._earliest_deadline = min(self._earliest_deadline, entry.deadline)

    def requeue(self, entry: QueuedRequest) -> None:
        """Put a popped entry back at the *front* of its lane (retry backoff).

        The entry keeps its admission order: a retrying head blocks its
        own tenant's lane until ``not_before`` (per-tenant FIFO) but never
        blocks other tenants, which round-robin right past it.
        """
        lane = self._lanes.get(entry.request.tenant)
        if lane is None:
            lane = self._lanes[entry.request.tenant] = deque()
        lane.appendleft(entry)
        self._cells += entry.cost
        self._earliest_deadline = min(self._earliest_deadline, entry.deadline)

    def purge_expired(self, now: float) -> list[QueuedRequest]:
        """Remove and return every entry whose deadline is strictly past."""
        if now <= self._earliest_deadline:
            return []
        expired: list[QueuedRequest] = []
        earliest = float("inf")
        for tenant in list(self._lanes):
            lane = self._lanes[tenant]
            kept = deque()
            for entry in lane:
                if now > entry.deadline:
                    expired.append(entry)
                    self._cells -= entry.cost
                else:
                    kept.append(entry)
                    earliest = min(earliest, entry.deadline)
            if kept:
                self._lanes[tenant] = kept
            else:
                del self._lanes[tenant]
        self._earliest_deadline = earliest
        return expired

    def pop_batch(self, now: float, max_cells: int) -> list[QueuedRequest]:
        """Pop up to ``max_cells`` worth of runnable entries, fairly.

        Visits tenant lanes round-robin (rotating the starting lane each
        call), taking one head entry per lane per round while the cell
        budget lasts.  A lane whose head has ``not_before > now`` is
        skipped whole — its later entries must not overtake the backoff —
        as is a lane whose head no longer fits the remaining budget.
        """
        if max_cells < 1:
            raise ConfigurationError("max_cells must be at least 1")
        tenants = sorted(self._lanes)
        if not tenants:
            return []
        start = self._rotation % len(tenants)
        self._rotation += 1
        order = tenants[start:] + tenants[:start]
        popped: list[QueuedRequest] = []
        budget = max_cells
        blocked: set[str] = set()
        progressed = True
        while budget > 0 and progressed:
            progressed = False
            for tenant in order:
                lane = self._lanes.get(tenant)
                if lane is None or tenant in blocked:
                    continue
                head = lane[0]
                if head.not_before > now or head.cost > budget:
                    blocked.add(tenant)
                    continue
                lane.popleft()
                if not lane:
                    del self._lanes[tenant]
                self._cells -= head.cost
                budget -= head.cost
                popped.append(head)
                progressed = True
                if budget <= 0:
                    break
        return popped
