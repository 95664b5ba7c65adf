"""Admission control: a bounded OLAP queue in simulated time.

The controller front-ends the engine's node groups: every request asks for
a slot before it may execute.  Slots are occupied for the request's whole
simulated residence (admission to completion), so the number of occupied
slots is the number of requests genuinely in flight at the current
simulated time.  Analytical requests are bounded by ``olap_slots`` — the
policy that keeps analytical floods from churning the shared buffer pool
and queueing commits behind scans; transactional requests are never
deferred.

Deferred requests retry after a capped exponential backoff (the ``Server``
re-enqueues the client).  Admissions and deferrals are counted per class.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

# capped exponential backoff schedule for deferred requests (simulated ms)
BACKOFF_MS = 4.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP_MS = 64.0


@dataclass(frozen=True)
class AdmissionPolicy:
    """Slot bound for analytical requests (None = unbounded)."""

    enabled: bool = True
    olap_slots: int | None = 4

    @staticmethod
    def disabled() -> "AdmissionPolicy":
        return AdmissionPolicy(enabled=False)


@dataclass
class AdmissionStats:
    """Counters for one run of the controller."""

    admitted: dict = field(default_factory=lambda: {"oltp": 0, "olap": 0})
    deferred: dict = field(default_factory=lambda: {"oltp": 0, "olap": 0})


@dataclass(frozen=True)
class Ticket:
    """Proof of admission; hand back to ``occupy`` with the completion."""

    queue: str


def backoff_for(defers: int, rng) -> float:
    """Backoff before the ``defers``-th retry: capped exponential with a
    small seeded jitter so deferred clients do not re-arrive in lockstep."""
    base = min(BACKOFF_CAP_MS,
               BACKOFF_MS * BACKOFF_MULTIPLIER ** max(0, defers - 1))
    return base * (0.75 + 0.5 * rng.random())


class AdmissionController:
    """Slot accounting over simulated time (no threads, no real clocks)."""

    def __init__(self, policy: AdmissionPolicy | None = None):
        self.policy = policy or AdmissionPolicy()
        self.reset()

    def request(self, kind: str, now: float) -> Ticket | None:
        """Ask to run a ``kind`` ("oltp" | "olap") request now; a Ticket
        admits, None defers (retry later)."""
        olap = self._olap
        while olap and olap[0] <= now:
            heapq.heappop(olap)
        policy = self.policy
        if (policy.enabled and kind == "olap"
                and policy.olap_slots is not None
                and len(olap) >= policy.olap_slots):
            self.stats.deferred[kind] += 1
            return None
        self.stats.admitted[kind] += 1
        return Ticket(kind)

    def occupy(self, ticket: Ticket, completion: float):
        """Hold the admitted slot until ``completion`` (simulated time)."""
        if ticket.queue == "olap":
            heapq.heappush(self._olap, completion)

    def reset(self):
        # completion times of the in-flight analytical requests
        self._olap: list[float] = []
        self.stats = AdmissionStats()
