"""Client sessions: long-lived statement pipelines over one shared Database.

A ``ClientSession`` is what the concurrent front end multiplexes: it wraps
one ``db.database.Connection`` for the lifetime of a client, so each session
carries its own MVCC snapshot lifecycle (an open SNAPSHOT transaction keeps
one read timestamp across interleaved statements from other sessions; a
READ_COMMITTED session refreshes its snapshot at every statement), its own
statement pipeline, and its own accumulated ``ExecStats``.

Two APIs coexist:

* the statement API (``begin``/``execute``/``commit``/``rollback``) — what
  an interactive client drives, and what the snapshot-isolation tests
  interleave directly;
* ``run_program`` — one whole workload transaction program executed through
  ``core.session.run_transaction`` (retry-on-abort included), which is what
  the ``Server`` scheduler dispatches.

Sessions never own timing: the ``Server`` assigns simulated latency through
the engine after the logical execution finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.session import run_transaction
from repro.db.database import Database
from repro.sim.work import WorkResult
from repro.sql.result import REPORT_SECTIONS, DMLResult, ExecStats, Result
from repro.txn.manager import IsolationLevel


@dataclass
class SessionStats:
    """Everything one session accumulated over its lifetime."""

    transactions: int = 0
    commits: int = 0
    aborts: int = 0
    retries: int = 0
    statements: int = 0
    # admission-control interaction (maintained by the Server)
    deferrals: int = 0
    rejections: int = 0
    backoff_ms: float = 0.0
    admission_wait_ms: float = 0.0
    exec: ExecStats = field(default_factory=ExecStats)

    def as_dict(self) -> dict:
        """Every scalar field, then the statement fault counters."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "exec"},
            **{name: getattr(self.exec, name)
               for name, *_ in REPORT_SECTIONS["faults"]},
        }


class ClientSession:
    """One client's connection, snapshot lifecycle and statistics."""

    def __init__(self, db: Database, session_id: int = 0, kind: str = "oltp",
                 isolation: IsolationLevel | None = None,
                 name: str | None = None):
        self.db = db
        self.session_id = session_id
        self.kind = kind
        self.name = name or f"session-{session_id}"
        self.conn = db.connect(isolation)
        self.stats = SessionStats()
        self._closed = False

    # -- transaction control (statement API) --------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.conn.in_transaction

    @property
    def snapshot_ts(self) -> int | None:
        """Read timestamp of the open transaction (None between them)."""
        txn = self.conn._txn
        return txn.read_ts if txn is not None else None

    def begin(self):
        self.stats.transactions += 1
        return self.conn.begin()

    def commit(self):
        self.conn.commit()
        self.stats.commits += 1

    def rollback(self):
        self.conn.rollback()
        self.stats.aborts += 1

    def execute(self, sql: str, params: tuple = (),
                route_columnar: bool = False) -> Result | DMLResult:
        result = self.conn.execute(sql, params,
                                   route_columnar=route_columnar)
        self.stats.statements += 1
        self.stats.exec.merge(result.stats)
        return result

    def query_scalar(self, sql: str, params: tuple = ()):
        return self.execute(sql, params).scalar()

    # -- whole-transaction dispatch (what the Server schedules) --------------

    def run_program(self, name: str, program, rng,
                    route_columnar: bool = False,
                    max_retries: int = 3) -> WorkResult:
        """Execute one workload transaction program on this session."""
        work = run_transaction(self.conn, self.kind, name, program, rng,
                               route_columnar=route_columnar,
                               max_retries=max_retries)
        self.stats.transactions += 1
        if work.aborted:
            self.stats.aborts += 1
        else:
            self.stats.commits += 1
        self.stats.retries += work.retries
        self.stats.statements += (work.n_statements
                                  + work.n_realtime_statements)
        work.merge_into(self.stats.exec)
        return work

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        if not self._closed:
            self.conn.close()
            self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb):
        if exc_type is not None and self.conn.in_transaction:
            self.rollback()
        self.close()
        return False
