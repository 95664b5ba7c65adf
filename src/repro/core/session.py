"""Benchmark session: the handle workload programs execute through.

A ``Session`` wraps one engine connection and accumulates per-transaction
``ExecStats``.  Hybrid transaction programs mark their embedded real-time
query with ``with session.realtime_query(): ...`` — the statistics gathered
inside are kept separate so the cost model can apply the right store
context (real-time queries always run on the row engine, inside the
transaction, holding its locks: the paper's core abstraction).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.db.database import Connection
from repro.errors import TransactionAborted, TransientError
from repro.sim.work import WorkResult
from repro.sql.result import DMLResult, ExecStats, Result


class Session:
    """Execution context handed to transaction/query programs."""

    def __init__(self, connection: Connection, route_columnar: bool = False):
        self._conn = connection
        self._route_columnar = route_columnar
        self._stats = ExecStats()
        self._realtime_stats: ExecStats | None = None
        self._in_realtime = False
        self._n_statements = 0
        self._n_realtime_statements = 0

    # -- statement API (what workload programs call) -------------------------

    def execute(self, sql: str, params: tuple = ()) -> Result | DMLResult:
        result = self._conn.execute(
            sql, params,
            route_columnar=self._route_columnar and not self._in_realtime,
        )
        if self._in_realtime:
            self._realtime_stats.merge(result.stats)
            self._n_realtime_statements += 1
        else:
            self._stats.merge(result.stats)
            self._n_statements += 1
        return result

    def query_scalar(self, sql: str, params: tuple = ()):
        return self.execute(sql, params).scalar()

    @contextmanager
    def realtime_query(self):
        """Mark the real-time query section of a hybrid transaction."""
        if self._in_realtime:
            raise RuntimeError("realtime_query sections cannot nest")
        self._in_realtime = True
        if self._realtime_stats is None:
            self._realtime_stats = ExecStats()
        try:
            yield self
        finally:
            self._in_realtime = False


def run_transaction(connection: Connection, kind: str, name: str, program,
                    rng, route_columnar: bool = False,
                    max_retries: int = 3) -> WorkResult:
    """Execute one transaction program logically; returns its WorkResult.

    ``program`` is a callable ``(session, rng) -> None`` issuing statements
    through the session.  Aborted transactions (write-write conflicts) and
    transient faults (injected failures, 2PC prepare aborts) are retried
    up to ``max_retries`` times, matching a sane client driver; the retry
    re-runs the whole program, so partial statement work is discarded
    with the rollback.
    """
    retries = 0
    while True:
        session = Session(connection, route_columnar)
        txn = connection.begin()
        try:
            program(session, rng)
            write_keys = frozenset(txn.written_keys())
            connection.commit()
            return WorkResult(
                kind=kind,
                name=name,
                stats=session._stats,
                realtime_stats=session._realtime_stats,
                n_statements=session._n_statements,
                n_realtime_statements=session._n_realtime_statements,
                write_keys=write_keys,
                retries=retries,
                commit_partitions=txn.commit_partitions,
            )
        except (TransactionAborted, TransientError):
            connection.rollback()
            retries += 1
            if retries > max_retries:
                return WorkResult(kind=kind, name=name, aborted=True,
                                  retries=retries)
        except Exception:
            connection.rollback()
            raise
