"""SQL execution semantics: selections, joins, aggregation, DML, stats."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.errors import BindError, ExecutionError, IntegrityError, PlanError
from repro.sql import vectorized
from repro.sql.functions import SCALARS, sql_abs
from repro.sql.plannode import argument_columns


class TestSelect:
    def test_point_lookup(self, orders_db):
        result = orders_db.query("SELECT i_name FROM item WHERE i_id = ?", (3,))
        assert result.rows == [("item3",)]
        assert result.stats.pk_lookups == 1
        assert not result.stats.full_scans

    def test_full_scan_counts_rows(self, orders_db):
        result = orders_db.query("SELECT COUNT(*) FROM item")
        assert result.scalar() == 20
        assert result.stats.full_scans["item"] == 1
        assert result.stats.rows_row_store["item"] == 20

    def test_index_scan_used(self, orders_db):
        result = orders_db.query(
            "SELECT o_id FROM orders WHERE o_c_id = ?", (2,))
        assert sorted(result.rows) == [(2,), (6,), (10,), (14,), (18,)]
        assert result.stats.index_lookups == 1
        assert not result.stats.full_scans

    def test_projection_expressions(self, orders_db):
        result = orders_db.query(
            "SELECT i_id * 2 + 1, i_price - 0.5 FROM item WHERE i_id = 4")
        assert result.rows == [(9, 4.0)]

    def test_order_by_directions(self, orders_db):
        result = orders_db.query(
            "SELECT i_id FROM item WHERE i_id < 5 ORDER BY i_id DESC")
        assert [r[0] for r in result.rows] == [4, 3, 2, 1, 0]

    def test_order_by_alias_and_ordinal(self, orders_db):
        by_alias = orders_db.query(
            "SELECT i_id, i_price AS p FROM item WHERE i_id < 4 ORDER BY p DESC")
        by_ordinal = orders_db.query(
            "SELECT i_id, i_price FROM item WHERE i_id < 4 ORDER BY 2 DESC")
        assert by_alias.rows == by_ordinal.rows

    def test_order_by_hidden_key(self, orders_db):
        result = orders_db.query(
            "SELECT i_name FROM item WHERE i_id < 4 ORDER BY i_price DESC")
        assert result.columns == ["I_NAME"]
        assert [r[0] for r in result.rows] == ["item3", "item2", "item1",
                                               "item0"]

    def test_limit(self, orders_db):
        result = orders_db.query("SELECT i_id FROM item ORDER BY i_id LIMIT 3")
        assert [r[0] for r in result.rows] == [0, 1, 2]

    def test_early_closed_scans_charge_the_rows_they_read(self, orders_db):
        """A LIMIT closes the scan below it mid-way; the rows pulled until
        then are still counted (they used to vanish from the cost model)."""
        seq = orders_db.query("SELECT i_id FROM item LIMIT 3")
        assert len(seq.rows) == 3
        assert seq.stats.rows_row_store == {"item": 3}
        filtered = orders_db.query(
            "SELECT i_id FROM item WHERE i_id >= 5 LIMIT 2")
        assert filtered.rows == [(5,), (6,)]
        assert filtered.stats.rows_row_store == {"item": 7}
        index = orders_db.query(
            "SELECT o_id FROM orders WHERE o_c_id = ? LIMIT 2", (2,))
        assert index.stats.rows_row_store == {"orders": 2}
        orders_db.run_script(
            "CREATE TABLE line (l_o INT, l_n INT, PRIMARY KEY (l_o, l_n))")
        orders_db.bulk_load("line", ((1, n) for n in range(10)))
        prefix = orders_db.query("SELECT l_n FROM line WHERE l_o = 1 LIMIT 4")
        assert prefix.stats.rows_row_store == {"line": 4}
        assert prefix.stats.rows_row_prefix == {"line": 4}
        orders_db.executor.use_vectorized = False   # row nodes on the replica
        with orders_db.connect() as conn:
            columnar = conn.execute("SELECT i_id FROM item LIMIT 3",
                                    route_columnar=True)
        assert columnar.stats.rows_columnar == {"item": 3}
        assert not columnar.stats.rows_row_store

    def test_distinct(self, orders_db):
        result = orders_db.query("SELECT DISTINCT o_c_id FROM orders")
        assert sorted(r[0] for r in result.rows) == [0, 1, 2, 3]

    def test_like_and_between(self, orders_db):
        result = orders_db.query(
            "SELECT i_id FROM item WHERE i_name LIKE 'item1%' "
            "AND i_id BETWEEN 10 AND 19")
        assert sorted(r[0] for r in result.rows) == list(range(10, 20))

    def test_in_list_and_not_in(self, orders_db):
        got = orders_db.query(
            "SELECT i_id FROM item WHERE i_id IN (1, 2, 3) "
            "AND i_id NOT IN (2)")
        assert sorted(r[0] for r in got.rows) == [1, 3]

    def test_case_expression(self, orders_db):
        result = orders_db.query(
            "SELECT SUM(CASE WHEN o_total >= 100 THEN 1 ELSE 0 END) "
            "FROM orders")
        assert result.scalar() == 10


class TestJoins:
    def test_hash_join(self, orders_db):
        result = orders_db.query(
            "SELECT i.i_name, o.o_total FROM item i "
            "JOIN orders o ON i.i_id = o.o_id WHERE o.o_total > 170")
        assert sorted(result.rows) == [("item18", 180.0), ("item19", 190.0)]
        assert result.stats.join_ops == 1

    def test_left_join_null_extension(self, db):
        db.run_script("""
        CREATE TABLE a (id INT PRIMARY KEY, v INT);
        CREATE TABLE b (id INT PRIMARY KEY, w INT)
        """)
        db.query("INSERT INTO a (id, v) VALUES (1, 10), (2, 20)")
        db.query("INSERT INTO b (id, w) VALUES (1, 100)")
        result = db.query(
            "SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id "
            "ORDER BY a.id")
        assert result.rows == [(1, 100), (2, None)]

    def test_comma_join_with_where_keys(self, orders_db):
        result = orders_db.query(
            "SELECT COUNT(*) FROM item i, orders o WHERE i.i_id = o.o_id")
        assert result.scalar() == 20

    def test_computed_key_join(self, orders_db):
        """Expressions as join keys (CH-benCHmark's mod-join convention)."""
        result = orders_db.query(
            "SELECT COUNT(*) FROM item i JOIN orders o "
            "ON o.o_c_id = i.i_id % 4")
        assert result.scalar() == 100  # 20 items x 5 orders per customer

    def test_non_equi_join_nested_loop(self, db):
        db.run_script("CREATE TABLE n (id INT PRIMARY KEY, v INT)")
        db.query("INSERT INTO n (id, v) VALUES (1, 1), (2, 2), (3, 3)")
        result = db.query(
            "SELECT COUNT(*) FROM n a JOIN n b ON a.v < b.v")
        assert result.scalar() == 3

    def test_three_way_join(self, db):
        db.run_script("""
        CREATE TABLE x (id INT PRIMARY KEY, v INT);
        CREATE TABLE y (id INT PRIMARY KEY, v INT);
        CREATE TABLE z (id INT PRIMARY KEY, v INT)
        """)
        for table in "xyz":
            db.query(f"INSERT INTO {table} (id, v) VALUES (1, 1), (2, 2)")
        result = db.query(
            "SELECT COUNT(*) FROM x JOIN y ON x.id = y.id "
            "JOIN z ON y.id = z.id")
        assert result.scalar() == 2


class TestAggregation:
    def test_global_aggregates(self, orders_db):
        result = orders_db.query(
            "SELECT COUNT(*), SUM(o_total), AVG(o_total), MIN(o_total), "
            "MAX(o_total) FROM orders")
        count, total, avg, lo, hi = result.rows[0]
        assert (count, total, lo, hi) == (20, 1900.0, 0.0, 190.0)
        assert avg == pytest.approx(95.0)

    def test_group_by_with_having(self, orders_db):
        result = orders_db.query(
            "SELECT o_c_id, COUNT(*) AS n, SUM(o_total) AS total FROM orders "
            "GROUP BY o_c_id HAVING SUM(o_total) > 450 ORDER BY total DESC")
        assert result.rows == [(3, 5, 550.0), (2, 5, 500.0)]

    def test_count_distinct(self, orders_db):
        result = orders_db.query("SELECT COUNT(DISTINCT o_c_id) FROM orders")
        assert result.scalar() == 4

    def test_aggregate_over_empty_input(self, orders_db):
        result = orders_db.query(
            "SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_id > 999")
        assert result.rows == [(0, None)]

    def test_group_by_expression(self, orders_db):
        result = orders_db.query(
            "SELECT o_c_id % 2, COUNT(*) FROM orders GROUP BY o_c_id % 2 "
            "ORDER BY 1")
        assert result.rows == [(0, 10), (1, 10)]

    def test_aggregate_arithmetic_above(self, orders_db):
        result = orders_db.query(
            "SELECT SUM(o_total) / COUNT(*) FROM orders")
        assert result.scalar() == pytest.approx(95.0)

    def test_non_grouped_column_rejected(self, orders_db):
        with pytest.raises(BindError):
            orders_db.query(
                "SELECT o_id, COUNT(*) FROM orders GROUP BY o_c_id")

    def test_having_without_group_rejected(self, orders_db):
        with pytest.raises(PlanError):
            orders_db.query("SELECT o_id FROM orders HAVING o_id > 1")


# -- global aggregates: row store == columnar replica == a Python oracle ------

def _sized(element, largest):
    """Lists whose *size* is drawn first: left alone hypothesis keeps
    tables nearly empty."""
    return st.integers(0, largest).flatmap(
        lambda n: st.lists(element, min_size=n, max_size=n))


# (f FLOAT, n INT, x nullable FLOAT, m nullable INT); ``+ 0.0`` folds -0.0
# into 0.0 so MIN / MAX ties cannot tell scan orders apart
_float = st.one_of(
    st.floats(-1e6, 1e6).map(lambda v: round(v, 2) + 0.0),
    st.sampled_from([0.0, 0.1, 1e15 + 0.5, -1e15, 2.0 ** -40, 1e-300]))
_int = st.integers(-10**6, 10**6)
_agg_row = st.tuples(_float, _int, st.one_of(st.none(), _float),
                     st.one_of(st.none(), _int))

# argument expression -> the oracle's value of it for one row
_ARGS = {
    "f": lambda f, n, x, m: f,
    "n": lambda f, n, x, m: n,
    "x": lambda f, n, x, m: x,
    "m": lambda f, n, x, m: m,
    "n * 1.0": lambda f, n, x, m: n * 1.0,
    "f * 0": lambda f, n, x, m: f * 0,
    "-x": lambda f, n, x, m: None if x is None else -x,
}
# WHERE clause -> the oracle's reading of it on (id, f, n, x, m)
_FILTERS = {
    "": lambda i, f, n, x, m: True,
    " WHERE id >= 5": lambda i, f, n, x, m: i >= 5,
    " WHERE n < 0": lambda i, f, n, x, m: n < 0,
    " WHERE x IS NULL": lambda i, f, n, x, m: x is None,     # all-NULL input
    " WHERE id < 0": lambda i, f, n, x, m: False,            # empty input
}


def _aggregate_oracle(values):
    """``SUM, AVG, MIN, MAX, COUNT(arg), COUNT(*)`` of one argument column:
    the exact total rounded once, int while every addend is."""
    present = [v for v in values if v is not None]
    if not present:
        return (None, None, None, None, 0, len(values))
    exact = sum(map(Fraction, present))
    mean = exact / len(present)
    total = int(exact) if all(type(v) is int for v in present) \
        else exact.numerator / exact.denominator
    return (total, mean.numerator / mean.denominator, min(present),
            max(present), len(present), len(values))


def _typed(rows):
    return [[(type(v).__name__, v) for v in row] for row in rows]


class TestGlobalAggregateDifferential:
    DDL = ("CREATE TABLE t (id INT PRIMARY KEY, f DOUBLE, n INT, x DOUBLE, "
           "m INT)")

    @staticmethod
    def _check(rows, run):
        """Every argument under every filter, ``run(sql)`` against the
        oracle over ``rows`` (``{id: (f, n, x, m)}``)."""
        for where, keep in _FILTERS.items():
            kept = [row for i, row in rows.items() if keep(i, *row)]
            for arg, value_of in _ARGS.items():
                sql = (f"SELECT SUM({arg}), AVG({arg}), MIN({arg}), "
                       f"MAX({arg}), COUNT({arg}), COUNT(*) FROM t{where}")
                expected = _aggregate_oracle([value_of(*row)
                                              for row in kept])
                assert _typed(run(sql)) == _typed([expected]), sql

    @given(_sized(_agg_row, 40), _sized(_agg_row, 3),
           st.lists(st.integers(0, 39), max_size=4),
           st.lists(st.tuples(st.integers(0, 39), _float), max_size=3))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_row_store_replica_and_oracle_agree(self, routed, unrouted,
                                                loaded, inserted, deleted,
                                                updated):
        """Sealed 8-row segments first; then the same statements over main
        segments with dead rows under a plain delta.  Both trees read each
        store."""
        db = Database(with_columnar=True, columnar_segment_rows=8)
        db.execute_ddl(self.DDL)
        db.bulk_load("t", [(i, *row) for i, row in enumerate(loaded)])
        db.replicate()
        db.columnar.compact(force=True)
        rows = dict(enumerate(loaded))

        def check():
            self._check(rows, lambda sql: unrouted(db, sql).rows)
            self._check(rows, lambda sql: unrouted(db, sql,
                                                   vectorized=False).rows)
            self._check(rows, lambda sql: routed(db, sql).rows)
            self._check(rows, lambda sql: routed(db, sql,
                                                 vectorized=False).rows)

        check()
        with db.connect() as conn:
            conn.begin()
            self._mutate(conn, rows, inserted, deleted, updated)
            conn.commit()
        db.replicate()
        check()

    @staticmethod
    def _mutate(conn, rows, inserted, deleted, updated):
        """Apply the drawn changes through ``conn`` and to the model."""
        for i in deleted:
            if rows.pop(i, None) is not None:
                conn.execute("DELETE FROM t WHERE id = ?", (i,))
        for i, value in updated:
            if i in rows:
                f, n, x, m = rows[i]
                rows[i] = (value, n, None if x is None else value, m)
                conn.execute("UPDATE t SET f = ?, x = ? WHERE id = ?",
                             (*rows[i][::2], i))
        for i, row in enumerate(inserted, start=100):
            rows[i] = row
            conn.execute("INSERT INTO t (id, f, n, x, m) VALUES "
                         "(?, ?, ?, ?, ?)", (i, *row))

    @given(_sized(_agg_row, 40), _sized(_agg_row, 3),
           st.lists(st.integers(0, 39), max_size=4),
           st.lists(st.tuples(st.integers(0, 39), _float), max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_inside_a_transaction_that_wrote_the_table(self, loaded, inserted,
                                                       deleted, updated):
        """The hybrid shape: the real-time aggregate sees the open
        transaction's own updates, inserts and deletes (the write-buffer
        overlay re-cuts the scan's batches), and none of them afterwards."""
        db = Database()
        db.execute_ddl(self.DDL)
        db.bulk_load("t", [(i, *row) for i, row in enumerate(loaded)])
        rows = dict(enumerate(loaded))
        with db.connect() as conn:
            conn.begin()
            self._mutate(conn, rows, inserted, deleted, updated)
            self._check(rows, lambda sql: conn.execute(sql).rows)
            conn.rollback()
        self._check(dict(enumerate(loaded)), lambda sql: db.query(sql).rows)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_one_evaluation_per_distinct_argument(self, monkeypatch, routed,
                                                  unrouted, columnar):
        """``SUM(ABS(bal)), AVG(ABS(bal))`` computes ``ABS`` once per row
        and ``MAX(bal), MIN(bal)`` cut ``bal`` out of a batch once, not
        once per aggregate; ``COUNT(*)`` beside them needs no column."""
        calls, evaluated = [], []

        def counted_abs(value):
            calls.append(value)
            return sql_abs(value)

        def counted_columns(specs, evaluate):
            def counted(fn):
                evaluated.append(fn)
                return evaluate(fn)
            columns = argument_columns(specs, counted)
            assert [c is None for c in columns] \
                == [False, False, True, False, False, False]
            return columns

        monkeypatch.setitem(SCALARS, "ABS", counted_abs)
        # both trees' aggregate is ``vectorized.BatchAggregate``
        monkeypatch.setattr(vectorized, "argument_columns", counted_columns)
        db = Database(with_columnar=True)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, bal DOUBLE)")
        balances = [(-1) ** i * (i + 0.25) for i in range(50)]
        db.bulk_load("t", list(enumerate(balances)))
        db.replicate()
        sql = ("SELECT SUM(ABS(bal)), AVG(ABS(bal)), COUNT(*), MAX(bal), "
               "MIN(bal), SUM(ABS(bal - 1)) FROM t")
        # the vector tree over the replica, or the row tree on the row store
        result = routed(db, sql) if columnar \
            else unrouted(db, sql, vectorized=False)
        assert bool(result.stats.vectorized) == columnar
        total = sum(map(abs, balances))
        assert result.rows == [(total, total / 50, 50, max(balances),
                                min(balances),
                                sum(abs(b - 1) for b in balances))]
        # one 50-row batch: three distinct arguments under five aggregates
        assert len(evaluated) == len(set(evaluated)) == 3
        assert sorted(calls) == sorted(balances + [b - 1 for b in balances])


class TestSubqueries:
    def test_scalar_subquery(self, orders_db):
        result = orders_db.query(
            "SELECT COUNT(*) FROM orders "
            "WHERE o_total > (SELECT AVG(o_total) FROM orders)")
        assert result.scalar() == 10

    def test_in_subquery(self, orders_db):
        result = orders_db.query(
            "SELECT COUNT(*) FROM item "
            "WHERE i_id IN (SELECT o_id FROM orders WHERE o_total >= 150)")
        assert result.scalar() == 5

    def test_not_in_subquery(self, orders_db):
        result = orders_db.query(
            "SELECT COUNT(*) FROM item "
            "WHERE i_id NOT IN (SELECT o_id FROM orders)")
        assert result.scalar() == 0

    def test_exists(self, orders_db):
        result = orders_db.query(
            "SELECT COUNT(*) FROM item "
            "WHERE EXISTS (SELECT 1 FROM orders WHERE o_total > 10000)")
        assert result.scalar() == 0

    def test_scalar_subquery_multi_row_rejected(self, orders_db):
        with pytest.raises(ExecutionError):
            orders_db.query(
                "SELECT (SELECT o_id FROM orders) FROM item WHERE i_id = 1")


class TestDML:
    def test_insert_and_rowcount(self, orders_db):
        result = orders_db.query(
            "INSERT INTO item (i_id, i_name, i_price) VALUES (100, 'new', 9.9)")
        assert result.rowcount == 1
        assert orders_db.query(
            "SELECT i_name FROM item WHERE i_id = 100").scalar() == "new"

    def test_insert_missing_columns_default_null(self, orders_db):
        orders_db.query("INSERT INTO item (i_id) VALUES (101)")
        row = orders_db.query(
            "SELECT i_name, i_price FROM item WHERE i_id = 101").first()
        assert row == (None, None)

    def test_insert_null_pk_rejected(self, orders_db):
        with pytest.raises(IntegrityError):
            orders_db.query(
                "INSERT INTO item (i_id, i_name) VALUES (NULL, 'x')")

    def test_update_with_expression(self, orders_db):
        result = orders_db.query(
            "UPDATE orders SET o_total = o_total * 2 WHERE o_c_id = 1")
        assert result.rowcount == 5
        total = orders_db.query(
            "SELECT SUM(o_total) FROM orders WHERE o_c_id = 1").scalar()
        assert total == 900.0

    def test_update_primary_key_moves_row(self, orders_db):
        orders_db.query("UPDATE item SET i_id = 500 WHERE i_id = 5")
        assert orders_db.query(
            "SELECT COUNT(*) FROM item WHERE i_id = 5").scalar() == 0
        assert orders_db.query(
            "SELECT i_name FROM item WHERE i_id = 500").scalar() == "item5"

    def test_delete(self, orders_db):
        result = orders_db.query("DELETE FROM orders WHERE o_total < 50")
        assert result.rowcount == 5
        assert orders_db.query("SELECT COUNT(*) FROM orders").scalar() == 15

    def test_writes_tracked_in_stats(self, orders_db):
        result = orders_db.query("DELETE FROM orders WHERE o_id = 1")
        assert result.stats.writes["orders"] == 1


def _off_pk_reader(partitions):
    """``(db, conn, txn, visible)`` over ``s (id, g, h, v)`` indexed on
    ``(g, h)``: row 5's ``g`` changed before ``txn`` began, row 4's after
    (its index entry now points at a key ``txn`` does not see, so ``txn``
    reads no index), and ``txn``
    holds its own insert of row 7 and delete of row 3.  The replica stops
    at the snapshot's start."""
    db = Database(partitions=partitions, with_columnar=True)
    db.run_script("CREATE TABLE s (id INT PRIMARY KEY, g INT, h INT, v INT);"
                  "CREATE INDEX idx_s_gh ON s (g, h)")
    with db.connect() as conn:
        for row in ((1, 1, 1, 10), (2, 1, 2, 20), (3, 1, 1, 30),
                    (4, 2, 1, 40), (5, 2, 2, 50), (6, 3, 1, 60)):
            conn.execute("INSERT INTO s (id, g, h, v) VALUES (?, ?, ?, ?)",
                         row)
        conn.commit()
        conn.execute("UPDATE s SET g = 1 WHERE id = 5")
        conn.commit()
    db.replicate()
    conn = db.connect()
    txn = conn.begin()
    with db.connect() as other:
        other.execute("UPDATE s SET g = 1 WHERE id = 4")
        other.commit()
    conn.execute("INSERT INTO s (id, g, h, v) VALUES (7, 1, 1, 70)")
    conn.execute("DELETE FROM s WHERE id = 3")
    visible = {(1,): (1, 1, 1, 10), (2,): (2, 1, 2, 20),
               (4,): (4, 2, 1, 40), (5,): (5, 1, 2, 50),
               (6,): (6, 3, 1, 60), (7,): (7, 1, 1, 70)}
    return db, conn, txn, visible


# (WHERE, params, python predicate, path's index lookups, full scans,
#  rows the path reads): a full secondary-index key, an index prefix with
# a residual and a residual-only full scan.  The snapshot predates row 4's
# commit, which the index already reflects, so both index paths read the
# snapshot scan of the six visible rows under their filter, as the full
# scan does
OFF_PK_PATHS = {
    "index": ("g = ? AND h = ?", (1, 1),
              lambda r: r[1] == 1 and r[2] == 1, 1, 0, 6),
    "index_prefix": ("g = ? AND v > ?", (1, 15),
                     lambda r: r[1] == 1 and r[3] > 15, 1, 0, 6),
    "seq": ("v > ? AND h = ?", (25, 1),
            lambda r: r[3] > 25 and r[2] == 1, 0, 1, 6),
}


@pytest.mark.parametrize("partitions", [1, 2, 8])
@pytest.mark.parametrize("path", sorted(OFF_PK_PATHS))
@pytest.mark.parametrize("statement", ["UPDATE", "DELETE", "FOR UPDATE"])
def test_off_pk_dml_and_lock_targets_match_scan_oracle(partitions, path,
                                                       statement):
    """UPDATE / DELETE / ``SELECT … FOR UPDATE`` targets through a
    secondary index and a full scan, over the transaction's own writes and
    a committed index-key change: target rows, resulting rows, the keys
    the commit validates and every row-access counter.  The FOR UPDATE
    runs routed columnar; its target read still reads the row store, own
    writes included."""
    db, conn, txn, visible = _off_pk_reader(partitions)
    where, params, keep, index_lookups, full_scans, read = \
        OFF_PK_PATHS[path]
    targets = sorted(pk for pk, row in visible.items() if keep(row))
    after = dict(visible)
    # the commit validates exactly the targets, written or selected FOR
    # UPDATE, plus the transaction's own earlier writes
    validated = txn.written_keys() | {("S", pk) for pk in targets}
    # reads of the path: the target read on the row store, plus
    # a FOR UPDATE's own read — the same path, but a routed full scan
    # takes the replica, where rows 3, 4 and 6 match
    row_reads, replica_reads = 1, 0
    if statement == "UPDATE":
        result = conn.execute(f"UPDATE s SET v = v + 1 WHERE {where}", params)
        for pk in targets:
            after[pk] = after[pk][:3] + (after[pk][3] + 1,)
    elif statement == "DELETE":
        result = conn.execute(f"DELETE FROM s WHERE {where}", params)
        for pk in targets:
            del after[pk]
    else:
        result = conn.execute(f"SELECT id FROM s WHERE {where} FOR UPDATE",
                              params, route_columnar=True)
        if path == "seq":
            replica_reads = 1
            assert sorted(result.rows) == [(3,), (4,), (6,)]
        else:
            row_reads = 2
            assert sorted(result.rows) == targets
    if statement == "FOR UPDATE":
        written = {}
    else:
        assert result.rowcount == len(targets)
        written = {"s": len(targets)} if targets else {}
    assert dict(result.stats.writes) == written
    assert txn.written_keys() | txn.for_update_keys == validated
    assert dict(txn.scan("s")) == after
    stats = result.stats
    scans = (row_reads + replica_reads) * full_scans
    assert dict(
        pk_lookups=stats.pk_lookups,
        index_range_scans=stats.index_range_scans,
        index_lookups=stats.index_lookups,
        full_scans=dict(stats.full_scans),
        partitions_scanned=stats.partitions_scanned,
        partitions_pruned=stats.partitions_pruned,
        rows_row_store=dict(stats.rows_row_store),
        rows_row_prefix=dict(stats.rows_row_prefix),
        rows_columnar=dict(stats.rows_columnar),
    ) == dict(
        pk_lookups=0, index_range_scans=0,
        index_lookups=row_reads * index_lookups,
        full_scans={"s": scans} if scans else {},
        partitions_scanned=(row_reads + replica_reads) * partitions,
        partitions_pruned=0,
        rows_row_store={"s": row_reads * read},
        rows_row_prefix={},
        rows_columnar={"s": 6} if replica_reads else {},
    )
    conn.rollback()


class TestNullSemantics:
    @pytest.fixture
    def null_db(self):
        database = Database()
        database.run_script("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        database.query(
            "INSERT INTO t (id, v) VALUES (1, 10), (2, NULL), (3, 30)")
        return database

    def test_comparison_with_null_filters_out(self, null_db):
        assert null_db.query(
            "SELECT COUNT(*) FROM t WHERE v > 5").scalar() == 2

    def test_is_null(self, null_db):
        assert null_db.query(
            "SELECT id FROM t WHERE v IS NULL").rows == [(2,)]
        assert sorted(null_db.query(
            "SELECT id FROM t WHERE v IS NOT NULL").rows) == [(1,), (3,)]

    def test_aggregates_skip_null(self, null_db):
        row = null_db.query(
            "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v) FROM t").first()
        assert row == (3, 2, 40, 20.0)

    def test_null_sorts_first(self, null_db):
        result = null_db.query("SELECT v FROM t ORDER BY v")
        assert [r[0] for r in result.rows] == [None, 10, 30]

    def test_arithmetic_with_null_is_null(self, null_db):
        assert null_db.query(
            "SELECT v + 1 FROM t WHERE id = 2").scalar() is None
