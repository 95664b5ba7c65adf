"""Deterministic failpoints: named fault-injection hooks on the hot seams.

A *failpoint* is a named place in the engine where a fault can be made to
happen on demand: the WAL append path, the replica apply loop, the
compaction merge, the 2PC prepare step, a columnar scan.
Production code calls ``registry.fire(name)`` at the seam; the call is a
no-op unless a test (or the chaos benchmark arm) has *armed* that name.

Arming is deterministic two ways:

* **count-based** (``on_hits={3}``) — fire on exactly those hit ordinals.
  Hit numbering is global per failpoint and survives re-arming.  This is
  the mode the crash-sweep tests use: it is reproducible even under real
  threads, because which *hit* fires does not depend on thread
  interleaving of *other* failpoints.
* **probability-based** (``probability=0.05``) — each hit draws from a
  per-failpoint ``Random(f"{seed}:{name}")``.  Deterministic whenever the
  hit order is deterministic, which the cooperative session server
  guarantees; the chaos benchmark runs in that mode.

Counters (hits / triggers / recoveries) are kept per failpoint and
surfaced through ``ExecStats`` so fault activity shows up in RunReport
and ``BENCH_fig11.json["chaos"]`` rather than vanishing into logs.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from random import Random

from repro.errors import InjectedFaultError

#: The catalogue of failpoints the engine is instrumented with.  Arming a
#: name outside this set is a programming error — it would silently never
#: fire — so ``arm()`` validates against it.
FAILPOINT_NAMES = (
    "wal.append",      # torn write: corrupted tail record + raise
    "wal.read",        # transient read failure on the replication feed
    "replica.apply",   # crash mid-apply on the columnar replica
    "compact.merge",   # crash mid-compaction (before publish)
    "txn.prepare",     # participant failure at 2PC prepare
    "replica.scan",    # replica cannot serve a columnar scan
)


@dataclass
class _Armed:
    """One armed failpoint's trigger rule."""

    probability: float = 0.0
    on_hits: frozenset[int] = frozenset()
    always: bool = False
    max_triggers: int | None = None
    error: type[Exception] | None = None  # default: InjectedFaultError
    rng: Random | None = None


@dataclass
class FailpointStats:
    """Per-failpoint counters, all monotone."""

    hits: int = 0        # times the seam was reached while armed
    triggers: int = 0    # times the fault actually fired
    recoveries: int = 0  # times a caller recovered from this fault

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Scope:
    """Context manager that disarms the named failpoints on exit."""

    registry: FailpointRegistry
    names: tuple[str, ...] = ()

    def __enter__(self) -> FailpointRegistry:
        return self.registry

    def __exit__(self, *exc):
        for name in self.names:
            self.registry.disarm(name)
        return False


class FailpointRegistry:
    """Named, seeded, deterministically-triggered failpoints.

    One registry is threaded through a ``Database`` and shared by every
    layer (WAL, replica, txn manager, executor).  The unarmed fast
    path is a single attribute read — a database that never arms anything
    pays nothing measurable.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._armed: dict[str, _Armed] = {}
        self._stats: dict[str, FailpointStats] = {}
        self._lock = threading.Lock()
        self._any_armed = False  # fast-path guard, read without the lock

    # -- arming ----------------------------------------------------------

    def arm(self, name: str, *, probability: float = 0.0,
            on_hits=(), always: bool = False,
            max_triggers: int | None = None,
            error: type[Exception] | None = None) -> _Scope:
        """Arm ``name``; returns a context manager that disarms on exit.

        Exactly one trigger rule should be given: ``always=True`` (every
        hit fires), ``on_hits={k, ...}`` (fire on those 1-based hit
        ordinals), or ``probability=p`` (seeded per-failpoint draw).
        ``max_triggers`` caps total firings; ``error`` overrides the
        exception type (must accept the failpoint name as first arg or
        no args — see ``fire``).
        """
        if name not in FAILPOINT_NAMES:
            raise ValueError(f"unknown failpoint {name!r}; catalogue: "
                             f"{', '.join(FAILPOINT_NAMES)}")
        rule = _Armed(
            probability=probability,
            on_hits=frozenset(on_hits),
            always=always,
            max_triggers=max_triggers,
            error=error,
            rng=Random(f"{self.seed}:{name}") if probability else None,
        )
        with self._lock:
            self._armed[name] = rule
            self._any_armed = True
        return _Scope(self, (name,))

    def disarm(self, name: str):
        with self._lock:
            self._armed.pop(name, None)
            self._any_armed = bool(self._armed)

    def disarm_all(self):
        with self._lock:
            self._armed.clear()
            self._any_armed = False

    # -- firing ----------------------------------------------------------

    def evaluate(self, name: str) -> bool:
        """Record a hit; return True when the fault should fire.

        Use this (instead of ``fire``) at seams that simulate the fault
        themselves — e.g. the WAL append path writes a *corrupted* record
        before raising, which a plain exception cannot express.
        """
        if not self._any_armed:
            return False
        with self._lock:
            rule = self._armed.get(name)
            if rule is None:
                return False
            stats = self._stats.setdefault(name, FailpointStats())
            stats.hits += 1
            if rule.max_triggers is not None \
                    and stats.triggers >= rule.max_triggers:
                return False
            should = (
                rule.always
                or stats.hits in rule.on_hits
                or (rule.rng is not None
                    and rule.rng.random() < rule.probability)
            )
            if should:
                stats.triggers += 1
            return should

    def fire(self, name: str):
        """Raise the armed error if the fault should fire; else no-op."""
        if not self._any_armed:
            return
        if self.evaluate(name):
            with self._lock:
                rule = self._armed.get(name)
            error = rule.error if rule is not None and rule.error else None
            if error is None:
                raise InjectedFaultError(name)
            try:
                raise error(name)
            except TypeError:
                raise error() from None

    def record_recovery(self, name: str):
        """A caller survived this failpoint's fault (retry / degrade)."""
        with self._lock:
            self._stats.setdefault(name, FailpointStats()).recoveries += 1

    # -- observability ---------------------------------------------------

    def stats(self, name: str) -> FailpointStats:
        with self._lock:
            return self._stats.setdefault(name, FailpointStats())

    def triggers_total(self) -> int:
        with self._lock:
            return sum(s.triggers for s in self._stats.values())

    def recoveries_total(self) -> int:
        with self._lock:
            return sum(s.recoveries for s in self._stats.values())

    def snapshot(self) -> dict:
        """``{name: {hits, triggers, recoveries}}`` for every touched name."""
        with self._lock:
            return {name: stats.as_dict()
                    for name, stats in sorted(self._stats.items())}
