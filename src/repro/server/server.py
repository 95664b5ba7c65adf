"""The session server: deterministic interleaving of many clients.

``Server`` owns one shared engine (and through it the one ``Database``) and
drives any number of closed-loop clients over it, each on its own
``Connection`` (and so its own MVCC snapshot lifecycle).  Scheduling is
cooperative and runs in *simulated* time: a heap of ``(time, seq, client)``
events interleaves ready clients deterministically (seeded RNGs, stable
sequence-number tiebreaks), so a run with the same population and seed is
bit-reproducible without real threads — the same execute-then-time design
as the sequential runner, now with a concurrent front end.

Per event the server: picks the client's next transaction, asks the
``AdmissionController`` for a slot (deferred requests back off and retry),
executes the program logically through ``core.session.run_transaction`` on
the client's connection, asks the engine for the simulated latency, holds
the admission slot for the request's residence, and schedules the client's
next arrival at completion.

It serves one figure: fig11 measures how admission control cuts the commit
tail under a CH-benCHmark scan flood, a repo extension, not a claim of the
paper.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import asdict, dataclass, field
from random import Random

from repro.core.session import run_transaction
from repro.core.stats import ClassTable
from repro.db.database import Connection
from repro.engines.base import HTAPCluster
from repro.errors import ConfigError
from repro.server.admission import (
    AdmissionController,
    AdmissionPolicy,
    backoff_for,
)
from repro.workloads.base import TransactionProfile, Workload, weighted_choice


@dataclass(frozen=True)
class ClientSpec:
    """One client of the mixed-tenant population."""

    name: str
    kind: str                        # "oltp" | "olap"
    profiles: tuple                  # TransactionProfiles this client draws from
    weights: dict | None = None      # per-name weight overrides


def mixed_population(workload: Workload, oltp_clients: int,
                     olap_clients: int,
                     olap_weights: dict | None = None) -> list[ClientSpec]:
    """N transactional + M analytical clients over one workload."""
    oltp = tuple(workload.oltp_transactions())
    olap = tuple(workload.analytical_queries())
    specs = [ClientSpec(f"oltp-{i}", "oltp", oltp)
             for i in range(oltp_clients)]
    specs += [ClientSpec(f"olap-{i}", "olap", olap, weights=olap_weights)
              for i in range(olap_clients)]
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


@dataclass
class _ClientState:
    spec: ClientSpec
    conn: Connection
    rng: Random
    profile: TransactionProfile | None = None
    first_arrival: float = 0.0
    defers: int = 0


class Server:
    """Drives closed-loop clients over one shared engine."""

    def __init__(self, engine: HTAPCluster,
                 policy: AdmissionPolicy | None = None):
        self.engine = engine
        self.db = engine.db
        self.admission = AdmissionController(policy)

    def run(self, clients: list[ClientSpec], duration_ms: float,
            warmup_ms: float = 0.0, seed: int = 0,
            workload_name: str = "") -> ServerReport:
        """One measurement run: closed-loop clients over simulated time."""
        if not clients:
            raise ConfigError("empty client population")
        self.engine.reset_sim()
        self.admission.reset()
        total_ms = warmup_ms + duration_ms
        states = [
            _ClientState(spec=spec, conn=self.db.connect(),
                         rng=Random(f"{seed}:{i}:{spec.name}"))
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
            ticket = self.admission.request(spec.kind, now)
            if ticket is None:
                state.defers += 1
                backoff = backoff_for(state.defers, state.rng)
                heapq.heappush(heap, (now + backoff, next(seq), idx))
                continue
            columnar = (self.engine.route_analytical(now)
                        if spec.kind == "olap" else False)
            work = run_transaction(state.conn, spec.kind, profile.name,
                                   profile.program, state.rng,
                                   route_columnar=columnar)
            breakdown = self.engine.account(now, work, columnar)
            completion = now + breakdown.total + overhead
            self.admission.occupy(ticket, completion)
            if state.first_arrival >= warmup_ms:
                latency = (now - state.first_arrival) + breakdown.total \
                    + overhead
                report.observe(spec.kind, profile.name, latency, breakdown,
                               aborted=work.aborted,
                               completed=completion <= total_ms)
            state.profile = None
            heapq.heappush(heap, (completion, next(seq), idx))
        report.admission = asdict(self.admission.stats)
        for state in states:
            state.conn.close()
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
    ``Session`` over any connection); the per-profile RNG is derived from
    the profile name so the same seed issues the same parameters
    regardless of which session executes them — the byte-parity contract
    between two databases, pipelines or partition counts.
    """
    out = {}
    for profile in profiles:
        capture = _CapturingSession(session)
        profile.program(capture, Random(f"{profile.name}:{seed}"))
        out[profile.name] = capture.captured
    return out
