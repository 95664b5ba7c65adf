"""The session server: deterministic interleaving of many client sessions.

``Server`` owns one shared engine (and through it the one ``Database``) and
multiplexes any number of ``ClientSession``s over it.  Scheduling is
cooperative and runs in *simulated* time: a heap of ``(time, seq, client)``
events interleaves ready sessions deterministically (seeded RNGs, stable
sequence-number tiebreaks), so a run with the same population and seed is
bit-reproducible without real threads — the same execute-then-time design
as the sequential runner, now with a concurrent front end.

Per event the server: picks the client's next transaction, asks the
``AdmissionController`` for a slot (deferred requests back off and retry,
rejected ones are dropped and counted), executes the program logically on
the client's own session, asks the engine for the simulated latency, holds
the admission slot for the request's residence, and schedules the client's
next arrival after completion plus think time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from random import Random

from repro.core.stats import ClassTable
from repro.engines.base import HTAPCluster
from repro.errors import ConfigError
from repro.server.admission import AdmissionController, AdmissionPolicy
from repro.server.session import ClientSession
from repro.txn.manager import IsolationLevel
from repro.workloads.base import TransactionProfile, Workload, weighted_choice


@dataclass(frozen=True)
class ClientSpec:
    """One client of the mixed-tenant population."""

    name: str
    kind: str                        # "oltp" | "olap" | "hybrid"
    profiles: tuple                  # TransactionProfiles this client draws from
    weights: dict | None = None      # per-name weight overrides
    think_ms: float = 0.0
    isolation: IsolationLevel | None = None


def mixed_population(workload: Workload, oltp_clients: int,
                     olap_clients: int, hybrid_clients: int = 0,
                     oltp_think_ms: float = 0.0,
                     olap_think_ms: float = 0.0,
                     oltp_weights: dict | None = None,
                     olap_weights: dict | None = None) -> list[ClientSpec]:
    """N transactional + M analytical (+ hybrid) clients over one workload."""
    specs: list[ClientSpec] = []
    oltp = tuple(workload.oltp_transactions())
    olap = tuple(workload.analytical_queries())
    hybrid = tuple(workload.hybrid_transactions())
    for i in range(oltp_clients):
        specs.append(ClientSpec(f"oltp-{i}", "oltp", oltp,
                                weights=oltp_weights,
                                think_ms=oltp_think_ms))
    for i in range(olap_clients):
        specs.append(ClientSpec(f"olap-{i}", "olap", olap,
                                weights=olap_weights,
                                think_ms=olap_think_ms))
    for i in range(hybrid_clients):
        specs.append(ClientSpec(f"hybrid-{i}", "hybrid", hybrid))
    if not specs:
        raise ConfigError("empty client population")
    return specs


@dataclass
class ServerReport(ClassTable):
    """Everything measured during one server run."""

    engine: str
    workload: str
    clients: int
    admission_enabled: bool
    admission: dict = field(default_factory=dict)
    sessions: list = field(default_factory=list)         # per-session dicts
    plan_cache: dict = field(default_factory=dict)

    def summary_text(self) -> str:
        lines = [
            f"server engine={self.engine} workload={self.workload} "
            f"clients={self.clients} window={self.window_ms:.0f}ms "
            f"admission={'on' if self.admission_enabled else 'off'}",
        ]
        for kind, metrics in sorted(self.classes.items()):
            summary = metrics.latency.summary()
            lines.append(
                f"  {kind:>7}: attempted={metrics.attempted:<6} "
                f"completed={metrics.completed:<6} "
                f"tput={metrics.throughput(self.window_ms):9.2f}/s "
                f"p50={summary.median:9.2f}ms p99={summary.p99:9.2f}ms "
                f"adm_wait={metrics.admission_wait_ms:9.1f}ms"
            )
        if self.admission:
            adm = self.admission
            lines.append(
                f"  admission: admitted={adm['admitted']} "
                f"deferred={adm['deferred']} rejected={adm['rejected']} "
                f"max_depth={adm['max_depth']} "
                f"scans={adm['scans_admitted']}/"
                f"{adm['scans_admitted'] + adm['scans_deferred']}"
            )
        if self.plan_cache:
            cache = self.plan_cache
            lines.append(
                f"  plan cache: hits={cache['hits']} "
                f"misses={cache['misses']} evictions={cache['evictions']}"
            )
        return "\n".join(lines)


@dataclass
class _ClientState:
    spec: ClientSpec
    session: ClientSession
    rng: Random
    profile: TransactionProfile | None = None
    first_arrival: float = 0.0
    defers: int = 0


class Server:
    """Multiplexes client sessions over one shared engine."""

    def __init__(self, engine: HTAPCluster,
                 policy: AdmissionPolicy | None = None,
                 max_retries: int = 3):
        self.engine = engine
        self.db = engine.db
        self.admission = AdmissionController(policy)
        self.max_retries = max_retries
        self._session_ids = itertools.count(1)
        # learned per-profile scan-ness: seeds the admission scan bound
        # before the first execution, then follows what the profile
        # actually touched
        self._scan_hints: dict[str, bool] = {}

    # -- session lifecycle ----------------------------------------------------

    def open_session(self, kind: str = "oltp",
                     isolation: IsolationLevel | None = None,
                     name: str | None = None) -> ClientSession:
        return ClientSession(self.db, next(self._session_ids), kind,
                             isolation=isolation, name=name)

    # -- scheduling -----------------------------------------------------------

    def _scan_hint(self, profile: TransactionProfile, kind: str) -> bool:
        hint = self._scan_hints.get(profile.name)
        if hint is None:
            return kind == "olap"
        return hint

    def _learn_scan(self, profile: TransactionProfile, stats):
        self._scan_hints[profile.name] = (
            bool(stats.full_scans)
            or sum(stats.rows_columnar.values()) > 0
        )

    def run(self, clients: list[ClientSpec], duration_ms: float,
            warmup_ms: float = 0.0, seed: int = 0,
            workload_name: str = "") -> ServerReport:
        """One measurement run: closed-loop clients over simulated time."""
        if not clients:
            raise ConfigError("empty client population")
        self.engine.reset_sim()
        self.admission.reset()
        self._scan_hints = {}
        cache_base = (self.db.plan_cache_hits, self.db.plan_cache_misses,
                      self.db.plan_cache_evictions)
        total_ms = warmup_ms + duration_ms
        states = [
            _ClientState(
                spec=spec,
                session=self.open_session(spec.kind, spec.isolation,
                                          name=spec.name),
                rng=Random(f"{seed}:{i}:{spec.name}"),
            )
            for i, spec in enumerate(clients)
        ]
        report = ServerReport(
            engine=self.engine.name,
            workload=workload_name,
            window_ms=duration_ms,
            clients=len(clients),
            admission_enabled=self.admission.policy.enabled,
        )
        seq = itertools.count()
        heap = [(0.0, next(seq), i) for i in range(len(states))]
        heapq.heapify(heap)
        overhead = self.engine.cost.params.admission_overhead
        while heap:
            now, _, idx = heapq.heappop(heap)
            if now >= total_ms:
                continue
            state = states[idx]
            spec = state.spec
            if state.profile is None:
                state.profile = weighted_choice(list(spec.profiles),
                                                state.rng, spec.weights)
                state.first_arrival = now
                state.defers = 0
            profile = state.profile
            scan = self._scan_hint(profile, spec.kind)
            ticket = self.admission.request(spec.kind, now, scan=scan)
            if ticket is None:
                state.defers += 1
                policy = self.admission.policy
                if (policy.max_defers is not None
                        and state.defers > policy.max_defers):
                    self.admission.reject(spec.kind)
                    state.session.stats.rejections += 1
                    if state.first_arrival >= warmup_ms:
                        report.metrics(spec.kind).attempted += 1
                    state.profile = None
                    heapq.heappush(heap, (now + spec.think_ms,
                                          next(seq), idx))
                    continue
                backoff = self.admission.backoff_for(state.defers, state.rng)
                state.session.stats.deferrals += 1
                state.session.stats.backoff_ms += backoff
                heapq.heappush(heap, (now + backoff, next(seq), idx))
                continue
            columnar = (self.engine.route_analytical(now)
                        if spec.kind == "olap" else False)
            work = state.session.run_program(
                profile.name, profile.program, state.rng,
                route_columnar=columnar, max_retries=self.max_retries,
            )
            self._learn_scan(profile, work.combined_stats())
            breakdown = self.engine.account(now, work, columnar)
            admission_wait = now - state.first_arrival
            completion = now + breakdown.total + overhead
            self.admission.occupy(ticket, completion,
                                  waited_ms=admission_wait)
            state.session.stats.admission_wait_ms += admission_wait
            latency = admission_wait + breakdown.total + overhead
            if state.first_arrival >= warmup_ms:
                report.observe(spec.kind, profile.name, latency, breakdown,
                               aborted=work.aborted,
                               completed=completion <= total_ms,
                               admission_wait_ms=admission_wait)
            state.profile = None
            heapq.heappush(heap, (completion + spec.think_ms,
                                  next(seq), idx))
        report.admission = self.admission.stats.as_dict()
        report.sessions = [
            {"name": s.session.name, "kind": s.spec.kind,
             **s.session.stats.as_dict()}
            for s in states
        ]
        report.plan_cache = {
            "hits": self.db.plan_cache_hits - cache_base[0],
            "misses": self.db.plan_cache_misses - cache_base[1],
            "evictions": self.db.plan_cache_evictions - cache_base[2],
        }
        for state in states:
            state.session.close()
        return report


# -- result parity against the sequential runner -----------------------------


class _CapturingSession:
    """Duck-typed workload session that records every statement's rows."""

    def __init__(self, base):
        self._base = base
        self.captured: list = []

    def execute(self, sql: str, params: tuple = ()):
        result = self._base.execute(sql, params)
        self.captured.append((sql, list(getattr(result, "rows", ()))))
        return result

    def query_scalar(self, sql: str, params: tuple = ()):
        return self.execute(sql, params).scalar()


def query_results(session, profiles, seed: int = 0) -> dict:
    """Run each read-only profile once; {name: [(sql, rows), ...]}.

    ``session`` is anything with the workload statement API (a core
    ``Session``-compatible object or a ``ClientSession``); the per-profile
    RNG is derived from the profile name so the same seed issues the same
    parameters regardless of which session executes them — the byte-parity
    contract between the sequential runner and the session server.
    """
    out = {}
    for profile in profiles:
        capture = _CapturingSession(session)
        profile.program(capture, Random(f"{profile.name}:{seed}"))
        out[profile.name] = capture.captured
    return out
