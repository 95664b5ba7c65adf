"""The vector tree over the row store: unrouted statements against the row
tree (``vectorized=False``), their oracle.

A SELECT whose row tree only scans has a vector tree, and an unrouted
statement runs it: each ``VColumnarScan`` reads the transaction's snapshot
of the row store, the rows ``SeqScan`` reads in its order, with the
transaction's own writes overlaid.  Every case runs each statement on both
trees inside one transaction at partitions {1, 4} and asserts the same rows
and every cost counter equal.  The groupjoin keeps its own rule for two of
them: one probe per group (``rows_joined``) and every probe row folded,
orphans included (``agg_input_rows``).
"""

from __future__ import annotations

from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.errors import ExecutionError
from repro.sql.vectorized import BatchAggregate, VColumnarScan
from repro.storage.rowstore import SCAN_BATCH_ROWS

DDL = ("CREATE TABLE p (id INT PRIMARY KEY, g INT, v DOUBLE, s VARCHAR(4))",
       "CREATE TABLE d (k INT PRIMARY KEY, name VARCHAR(8))")

# (sql, params): every one has a vector tree
STATEMENTS = [
    ("SELECT id, g, v, s FROM p", ()),
    ("SELECT id, v FROM p WHERE g = ?", (2,)),
    ("SELECT id, v FROM p WHERE g = ?", (None,)),        # NULL-bound push
    ("SELECT COUNT(*), SUM(v) FROM p WHERE v >= ? AND g < ?", (None, 3)),
    ("SELECT COUNT(*), SUM(v) FROM p WHERE v >= ? AND g < ?", (0.5, 3)),
    ("SELECT g, COUNT(*), SUM(v), MIN(s) FROM p WHERE s IS NOT NULL "
     "GROUP BY g", ()),
    ("SELECT s, AVG(v) FROM p WHERE s IN (?, ?) GROUP BY s ORDER BY s",
     ("a", None)),
    ("SELECT g, SUM(v) FROM p GROUP BY g ORDER BY SUM(v) DESC LIMIT 2", ()),
    ("SELECT p.id, d.name FROM p LEFT JOIN d ON d.k = p.g", ()),
    ("SELECT p.id, d.name FROM p LEFT JOIN d ON d.k = p.g "
     "WHERE d.name IS NULL", ()),
    ("SELECT p.id, d.name FROM p JOIN d ON d.k = p.g WHERE p.v > ?", (1.0,)),
    ("SELECT id FROM p LIMIT 3", ()),                     # LIMIT, no ORDER BY
    ("SELECT id, s FROM p WHERE g >= ? LIMIT 2", (3,)),
    ("SELECT id FROM p WHERE g = ? LIMIT 2", (None,)),
    ("SELECT p.id, d.name FROM p JOIN d ON d.k = p.g LIMIT 4", ()),
    ("SELECT p.id, d.name FROM p LEFT JOIN d ON d.k = p.g LIMIT 5", ()),
    ("SELECT DISTINCT g FROM p", ()),
    ("SELECT id FROM p ORDER BY v DESC, id LIMIT 5", ()),
]

# probe keys g in 0..6, build keys k in 0..4: g = 5, 6 are orphans
GROUPJOIN = ("SELECT p.g, d.name, SUM(p.v), COUNT(*) FROM p JOIN d "
             "ON d.k = p.g GROUP BY p.g, d.name")

ROW = st.tuples(st.integers(0, 6), st.sampled_from((-1.5, 0.0, 0.5, 2.0)),
                st.sampled_from((None, "a", "b", "ab")))


def _sized(element, most: int):
    """Lists drawn size first: hypothesis left alone keeps them short."""
    return st.integers(0, most).flatmap(
        lambda n: st.lists(element, min_size=n, max_size=n))


def _load(partitions: int, rows) -> Database:
    db = Database(with_columnar=True, columnar_segment_rows=8,
                  partitions=partitions)
    for ddl in DDL:
        db.execute_ddl(ddl)
    db.bulk_load("p", [(i, *row) for i, row in enumerate(rows)])
    db.bulk_load("d", [(k, f"n{k}") for k in range(5)])
    db.replicate()
    return db


def _counters(stats, skip=()) -> dict:
    """Every cost counter; the plan cache is charged per preparation."""
    return {f.name: getattr(stats, f.name) for f in fields(stats)
            if not f.name.startswith("plan_cache") and f.name not in skip}


def _both(db, conn, sql, params):
    """``(vector result, row result)`` of one unrouted statement inside
    ``conn``'s transaction."""
    results = []
    for vectorized in (True, False):
        db.executor.use_vectorized = vectorized
        try:
            results.append(conn.execute(sql, params))
        finally:
            db.executor.use_vectorized = True
    return results


def _assert_parity(db, conn, statements=STATEMENTS):
    reads = []
    spy = VColumnarScan._scan_row_store

    def counted(self, ctx, size):
        reads.append(self.table.name)
        return spy(self, ctx, size)

    with mock.patch.object(VColumnarScan, "_scan_row_store", counted):
        for sql, params in statements:
            before = len(reads)
            vector, row = _both(db, conn, sql, params)
            assert len(reads) > before, sql          # the vector tree ran
            assert vector.rows == row.rows, (sql, params)
            assert _counters(vector.stats) == _counters(row.stats), \
                (sql, params)
            assert not vector.stats.vectorized and \
                not vector.stats.used_columnar


@pytest.mark.parametrize("partitions", [1, 4])
@given(loaded=_sized(ROW, 40), inserted=_sized(ROW, 4),
       updated=st.lists(st.tuples(st.integers(0, 45), ROW), max_size=4),
       deleted=st.lists(st.integers(0, 45), max_size=4))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_transactions_own_writes(partitions, loaded, inserted, updated,
                                   deleted):
    """Both trees see the open transaction's inserts, updates and deletes
    (the write-buffer overlay), in the same order, charged alike; the rows
    are the model's (the trees share the store read)."""
    model = dict(enumerate(loaded))
    model.update((100 + i, row) for i, row in enumerate(inserted))
    model.update((pk, row) for pk, row in updated if pk in model)
    for pk in deleted:
        model.pop(pk, None)
    db = _load(partitions, loaded)
    with db.connect() as conn:
        conn.begin()
        for i, (g, v, s) in enumerate(inserted):
            conn.execute("INSERT INTO p (id, g, v, s) VALUES (?, ?, ?, ?)",
                         (100 + i, g, v, s))
        for pk, (g, v, s) in updated:
            conn.execute("UPDATE p SET g = ?, v = ?, s = ? WHERE id = ?",
                         (g, v, s, pk))
        for pk in deleted:
            conn.execute("DELETE FROM p WHERE id = ?", (pk,))
        _assert_parity(db, conn)
        assert sorted(conn.execute("SELECT id, g, v, s FROM p").rows) \
            == sorted((pk, *row) for pk, row in model.items())
        conn.rollback()


@pytest.mark.parametrize("partitions", [1, 4])
def test_committed_state_and_an_older_snapshot(partitions):
    """Autocommit reads the newest state; a transaction that began before
    another session's commit reads its own older snapshot on both trees."""
    db = _load(partitions, [(i % 7, (-1.5, 0.5, 2.0)[i % 3],
                             (None, "a", "ab")[i % 3]) for i in range(60)])
    with db.connect() as conn:
        _assert_parity(db, conn)
    with db.connect() as old, db.connect() as writer:
        old.begin()
        before = [old.execute(sql, params).rows
                  for sql, params in STATEMENTS]
        writer.execute("UPDATE p SET g = 6, s = NULL WHERE g = 2")
        writer.execute("DELETE FROM p WHERE id < 10")
        writer.execute("INSERT INTO p (id, g, v, s) VALUES (500, 1, 9.0, 'b')")
        writer.execute("DELETE FROM d WHERE k = 3")
        writer.commit()
        _assert_parity(db, old)
        db.executor.use_vectorized = False
        assert [old.execute(sql, params).rows
                for sql, params in STATEMENTS] == before
        db.executor.use_vectorized = True
        old.commit()
    assert db.query("SELECT COUNT(*) FROM p WHERE id < 10").scalar() == 0


@pytest.mark.parametrize("partitions", [1, 4])
def test_groupjoin_orphan_keys(partitions):
    """Probe keys without a build row (g = 5, 6) fold, then miss: the rows
    are the row tree's, one probe per group is charged as rows joined and
    every probe row as aggregate input; every other counter agrees."""
    db = _load(partitions, [(i % 7, 0.5 * i, "a") for i in range(50)])
    aggregate = db.prepare(GROUPJOIN).vectorized_root
    while not isinstance(aggregate, BatchAggregate):
        aggregate = aggregate.child
    assert aggregate.groupjoin is not None
    with db.connect() as conn:
        conn.execute("INSERT INTO p (id, g, v, s) VALUES (90, 6, 1.0, 'b')")
        vector, row = _both(db, conn, GROUPJOIN, ())
        conn.rollback()
    assert vector.rows == row.rows
    assert sorted(g for g, *_ in vector.rows) == [0, 1, 2, 3, 4]
    odd = ("rows_joined", "agg_input_rows")
    assert _counters(vector.stats, odd) == _counters(row.stats, odd)
    assert vector.stats.rows_joined == 5
    assert row.stats.rows_joined == row.stats.agg_input_rows \
        == sum(1 for i in range(50) if i % 7 < 5)
    assert vector.stats.agg_input_rows == vector.stats.rows_row_store["p"] \
        == 51


@pytest.mark.parametrize("partitions", [1, 4])
def test_a_limit_pulls_rows_from_the_store_one_at_a_time(partitions):
    """The lazy consumer's batch size reaches the store: a LIMIT over the
    vector tree reads as many rows as the row tree's does, not a batch."""
    db = _load(partitions, [(i % 7, 0.5, "a") for i in range(5000)])
    store = db.storage.store("p")
    handed_out = []
    scan_batches = store.scan_batches

    def spy(ts, size):
        for pks, rows in scan_batches(ts, size):
            handed_out.append(len(rows))
            yield pks, rows

    store.scan_batches = spy
    for sql, read in (("SELECT id FROM p LIMIT 1", 1),
                      ("SELECT id FROM p WHERE g = 3 LIMIT 2", 11),
                      ("SELECT COUNT(*) FROM p", 5000)):
        for vectorized in (True, False):
            handed_out.clear()
            db.executor.use_vectorized = vectorized
            result = db.query(sql)
            db.executor.use_vectorized = True
            assert result.stats.rows_row_store == {"p": read}, sql
            assert sum(handed_out) == read, sql
    assert max(handed_out) == SCAN_BATCH_ROWS  # a drain reads whole batches


def test_pushed_constants_are_evaluated_at_the_first_row(unrouted):
    """As the row filter does: an empty table answers without evaluating
    ``1 / 0``, a non-empty one raises on both trees."""
    db = _load(1, [])
    sql = "SELECT id FROM p WHERE g > 1 / 0"
    for vectorized in (True, False):
        assert unrouted(db, sql, vectorized=vectorized).rows == []
    db.bulk_load("p", [(0, 1, 0.5, "a")])
    for vectorized in (True, False):
        with pytest.raises(ExecutionError, match="division by zero"):
            unrouted(db, sql, vectorized=vectorized)
