"""Admission control: bounded OLTP/OLAP queues in simulated time.

The controller front-ends the engine's node groups: every request asks for
a slot in its class queue before it may execute.  Slots are occupied for
the request's whole simulated residence (admission to completion), so queue
depth is the number of requests genuinely in flight at the current
simulated time.  A separate, tighter bound caps how many *full-scan*
requests may run at once — the policy that keeps analytical floods from
churning the shared buffer pool and queueing commits behind scans.

Deferred requests retry with exponential backoff (the ``Server`` re-enqueues
the session); a request deferred more than ``max_defers`` times is rejected
and the client moves on.  Everything is counted: admissions, deferrals,
rejections, accumulated wait, and the deepest queue observed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass(frozen=True)
class AdmissionPolicy:
    """Slot bounds for the two request classes (None = unbounded)."""

    enabled: bool = True
    oltp_slots: int | None = None
    olap_slots: int | None = 4
    # concurrent full-scan bound, tighter than (and counted inside) the
    # class slots; scans are what flood the shared buffer pool
    max_scan_slots: int | None = 2
    # exponential backoff schedule for deferred requests
    backoff_ms: float = 4.0
    backoff_multiplier: float = 2.0
    backoff_cap_ms: float = 64.0
    # defers after which a request is rejected outright (None = retry
    # forever; the closed-loop client just keeps backing off)
    max_defers: int | None = None

    @staticmethod
    def disabled() -> "AdmissionPolicy":
        return AdmissionPolicy(enabled=False)


@dataclass
class AdmissionStats:
    """Counters for one run of the controller."""

    admitted: dict = field(default_factory=lambda: {"oltp": 0, "olap": 0})
    deferred: dict = field(default_factory=lambda: {"oltp": 0, "olap": 0})
    rejected: dict = field(default_factory=lambda: {"oltp": 0, "olap": 0})
    wait_ms: dict = field(default_factory=lambda: {"oltp": 0.0, "olap": 0.0})
    max_depth: dict = field(default_factory=lambda: {"oltp": 0, "olap": 0})
    scans_admitted: int = 0
    scans_deferred: int = 0

    def as_dict(self) -> dict:
        return {
            "admitted": dict(self.admitted),
            "deferred": dict(self.deferred),
            "rejected": dict(self.rejected),
            "wait_ms": dict(self.wait_ms),
            "max_depth": dict(self.max_depth),
            "scans_admitted": self.scans_admitted,
            "scans_deferred": self.scans_deferred,
        }


@dataclass(frozen=True)
class Ticket:
    """Proof of admission; hand back to ``occupy`` with the completion."""

    queue: str
    scan: bool


class AdmissionController:
    """Slot accounting over simulated time (no threads, no real clocks)."""

    def __init__(self, policy: AdmissionPolicy | None = None):
        self.policy = policy or AdmissionPolicy()
        # per-queue heaps of completion times of in-flight requests
        self._busy: dict[str, list[float]] = {"oltp": [], "olap": []}
        self._scans: list[float] = []
        self.stats = AdmissionStats()

    # -- queue state ---------------------------------------------------------

    @staticmethod
    def queue_of(kind: str) -> str:
        """Request class -> queue: hybrids ride the transactional queue."""
        return "olap" if kind == "olap" else "oltp"

    def _expire(self, now: float):
        for heap in (*self._busy.values(), self._scans):
            while heap and heap[0] <= now:
                heapq.heappop(heap)

    def depth(self, queue: str, now: float) -> int:
        """Requests of ``queue`` in flight at simulated time ``now``."""
        self._expire(now)
        return len(self._busy[queue])

    # -- admission protocol ----------------------------------------------------

    def request(self, kind: str, now: float, scan: bool = False
                ) -> Ticket | None:
        """Ask to run now; a Ticket admits, None defers (retry later).

        ``scan`` marks requests expected to run a full scan — they consume
        a scan slot on top of their class slot.
        """
        queue = self.queue_of(kind)
        self._expire(now)
        if self.policy.enabled:
            slots = (self.policy.oltp_slots if queue == "oltp"
                     else self.policy.olap_slots)
            if slots is not None and len(self._busy[queue]) >= slots:
                self.stats.deferred[queue] += 1
                if scan:
                    self.stats.scans_deferred += 1
                return None
            if (scan and self.policy.max_scan_slots is not None
                    and len(self._scans) >= self.policy.max_scan_slots):
                self.stats.deferred[queue] += 1
                self.stats.scans_deferred += 1
                return None
        self.stats.admitted[queue] += 1
        if scan:
            self.stats.scans_admitted += 1
        return Ticket(queue, scan)

    def occupy(self, ticket: Ticket, completion: float,
               waited_ms: float = 0.0):
        """Hold the admitted slots until ``completion`` (simulated time)."""
        heapq.heappush(self._busy[ticket.queue], completion)
        if ticket.scan:
            heapq.heappush(self._scans, completion)
        self.stats.wait_ms[ticket.queue] += waited_ms
        depth = len(self._busy[ticket.queue])
        if depth > self.stats.max_depth[ticket.queue]:
            self.stats.max_depth[ticket.queue] = depth

    def reject(self, kind: str):
        """Record a request that exhausted its defer budget."""
        self.stats.rejected[self.queue_of(kind)] += 1

    def backoff_for(self, defers: int, rng) -> float:
        """Backoff before the ``defers``-th retry: capped exponential with
        a small seeded jitter so deferred sessions do not re-arrive in
        lockstep."""
        p = self.policy
        base = min(p.backoff_cap_ms,
                   p.backoff_ms * p.backoff_multiplier ** max(0, defers - 1))
        return base * (0.75 + 0.5 * rng.random())

    def reset(self):
        self._busy = {"oltp": [], "olap": []}
        self._scans = []
        self.stats = AdmissionStats()
