"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from random import Random

import pytest

from repro.core.session import run_transaction
from repro.db import Database
from repro.sql.result import ExecStats
from repro.workloads import make_workload


@pytest.fixture
def db() -> Database:
    """Empty database with a columnar replica."""
    return Database(with_columnar=True)


@pytest.fixture
def orders_db() -> Database:
    """Small two-table database used across SQL tests."""
    database = Database(with_columnar=True)
    database.run_script("""
    CREATE TABLE item (
        i_id INT NOT NULL, i_name VARCHAR(24), i_price DECIMAL(5, 2),
        PRIMARY KEY (i_id)
    );
    CREATE TABLE orders (
        o_id INT NOT NULL, o_c_id INT, o_total DECIMAL(8, 2),
        PRIMARY KEY (o_id)
    );
    CREATE INDEX idx_orders_cust ON orders (o_c_id)
    """)
    with database.connect() as conn:
        conn.begin()
        for i in range(20):
            conn.execute(
                "INSERT INTO item (i_id, i_name, i_price) VALUES (?, ?, ?)",
                (i, f"item{i}", float(i) + 0.5))
            conn.execute(
                "INSERT INTO orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)",
                (i, i % 4, 10.0 * i))
        conn.commit()
    database.replicate()
    return database


@pytest.fixture
def rng() -> Random:
    return Random(1234)


# -- the engine and its oracle ------------------------------------------------
#
# There is one columnar engine; its correctness oracle is the row plan nodes
# run over the *same* replica (``Executor.use_vectorized = False``).  Test
# modules cannot import from a conftest by name (``benchmarks/conftest.py``
# shadows it during a whole-repo collection), so the helpers are fixtures.

@contextmanager
def _executor(db: Database, vectorized: bool):
    """Columnar-routed statements run on the engine, or on its oracle."""
    previous = db.executor.use_vectorized
    db.executor.use_vectorized = vectorized
    try:
        yield
    finally:
        db.executor.use_vectorized = previous


def _routed(db: Database, sql: str, params: tuple = (),
            vectorized: bool = True):
    with _executor(db, vectorized), db.connect() as conn:
        result = conn.execute(sql, params, route_columnar=True)
        conn.commit()
    return result


@pytest.fixture
def routed():
    """``routed(db, sql, params=(), vectorized=True)``: one columnar-routed
    autocommit statement; ``vectorized=False`` answers it with the row plan
    nodes over the same replica — the oracle."""
    return _routed


def _unrouted(db: Database, sql: str, params: tuple = (),
              vectorized: bool = True):
    with _executor(db, vectorized), db.connect() as conn:
        result = conn.execute(sql, params)
        conn.commit()
    return result


@pytest.fixture
def unrouted():
    """``unrouted(db, sql, params=(), vectorized=True)``: one autocommit
    statement on the row store; the vector tree reads it when the
    statement has one, ``vectorized=False`` answers it with the row plan
    nodes — the oracle."""
    return _unrouted


class _Recorder:
    """The workload statement API over one connection: every statement is
    routed columnar (``routed=False``: read from the row store), its
    result captured and its counters summed."""

    def __init__(self, conn, routed: bool = True):
        self._conn = conn
        self._routed = routed
        self.outputs: list = []
        self.stats = ExecStats()

    def execute(self, sql, params=()):
        result = self._conn.execute(sql, params,
                                    route_columnar=self._routed)
        self.outputs.append((result.columns, result.rows))
        self.stats.merge(result.stats)
        return result

    def query_scalar(self, sql, params=()):
        return self.execute(sql, params).scalar()


def _run_analytical(db: Database, workload, seed: int,
                    vectorized: bool = True, routed: bool = True):
    """Every analytical profile once; ``(results, summed ExecStats)``."""
    with _executor(db, vectorized), db.connect() as conn:
        recorder = _Recorder(conn, routed)
        for profile in workload.analytical_queries():
            profile.program(recorder, Random(f"{profile.name}:{seed}"))
        conn.commit()
    return recorder.outputs, recorder.stats


def _mutate(db: Database, workload, seed: int, rounds: int = 2):
    """A deterministic stream of OLTP transactions (replication lag)."""
    rng = Random(seed)
    with db.connect() as conn:
        for profile in workload.oltp_transactions() * rounds:
            run_transaction(conn, "oltp", profile.name, profile.program, rng)


@dataclass
class ParityCell:
    """What one cell of the workload parity matrix saw."""

    outputs: list          # the analytical results (identical on all arms)
    stats: ExecStats       # summed counters of the warm engine pass
    encoding: dict         # the replica's encoding_stats() afterwards
    segments_merged: int   # ordered-compaction output over the cell


def _parity_cell(name: str, partitions: int, lagged: bool) -> ParityCell:
    seed = 9 if lagged else 7
    # 64-row segments so merges, encodings, shared dictionaries and
    # sketches all engage on the per-partition shards of a 0.05-scale load
    db = Database(with_columnar=True, columnar_segment_rows=64,
                  partitions=partitions)
    workload = make_workload(name)
    workload.install(db, Random(seed), 0.05, with_foreign_keys=False)
    if lagged:
        # warm the sketches at the pre-mutation watermark, then leave
        # the replica mid-lag: half the mutation stream applied
        _run_analytical(db, workload, seed)
        _mutate(db, workload, seed=13)
        lag = db.replication_lag()
        assert lag > 1
        db.replicate(limit=lag // 2)
        assert db.replication_lag() > 0
    cold, _ = _run_analytical(db, workload, seed)
    warm, stats = _run_analytical(db, workload, seed)
    oracle, _ = _run_analytical(db, workload, seed, vectorized=False)
    assert stats.vectorized_statements > 0
    assert cold == oracle
    assert warm == oracle
    # unrouted, the same statements read the row store (mid-lag, ahead of
    # the replica): the vector tree there against the row tree there
    store, _ = _run_analytical(db, workload, seed, routed=False)
    store_oracle, _ = _run_analytical(db, workload, seed, vectorized=False,
                                      routed=False)
    assert store == store_oracle
    return ParityCell(oracle, stats, db.columnar.encoding_stats(),
                      db.columnar.segments_merged_total())


@pytest.fixture(scope="session")
def workload_parity():
    """The one workload parity matrix: ``workload_parity(name, partitions,
    lagged)`` loads the workload, optionally leaves the replica
    mid-lag, runs the analytical set on the engine cold, then warm, and
    asserts both byte-identical to the row oracle on the same replica;
    then runs it unrouted on both trees and asserts the vector tree over
    the row store byte-identical to the row tree over it.

    Cells are computed once per session: the layer suites each assert
    their own engagement counter on the shared ``ParityCell``.
    """
    cells: dict[tuple, ParityCell] = {}

    def cell(name: str, partitions: int, lagged: bool) -> ParityCell:
        key = (name, partitions, lagged)
        if key not in cells:
            cells[key] = _parity_cell(*key)
        return cells[key]
    return cell
