"""Planner: access-path selection and join-strategy choice.

These tests pin down the physical plans — the paper's performance stories
(composite-key slow query, StockLevel's point-read shape, CH's computed-key
joins) depend on the planner making the same choices a real optimiser would.
"""

import pytest

from repro.db import Database
from repro.sql.executor import ExecContext
from repro.sql.planner import (
    Filter,
    HashJoin,
    IndexJoin,
    IndexScan,
    NestedLoopJoin,
    PKLookup,
    PKPrefixScan,
    SeqScan,
    SelectPlan,
)
from repro.workloads import make_workload


@pytest.fixture
def db():
    database = Database()
    database.run_script("""
    CREATE TABLE t (
        a INT NOT NULL, b INT NOT NULL, c INT, name VARCHAR(20),
        PRIMARY KEY (a, b)
    );
    CREATE TABLE u (
        id INT NOT NULL, t_a INT, label VARCHAR(20),
        PRIMARY KEY (id)
    );
    CREATE INDEX idx_t_name ON t (name);
    CREATE INDEX idx_u_ta ON u (t_a)
    """)
    return database


def scan_node(plan: SelectPlan):
    """Innermost access node of a single-table plan."""
    node = plan.root
    while not isinstance(node, (SeqScan, PKLookup, PKPrefixScan, IndexScan,
                                IndexJoin, HashJoin, NestedLoopJoin)):
        node = node.children()[0]
    return node


def join_node(plan: SelectPlan):
    node = plan.root
    while not isinstance(node, (HashJoin, NestedLoopJoin, IndexJoin)):
        children = node.children()
        assert children, f"no join under {node}"
        node = children[0]
    return node


class TestAccessPaths:
    def test_full_pk_becomes_point_lookup(self, db):
        plan = db.prepare("SELECT c FROM t WHERE a = ? AND b = ?")
        assert isinstance(scan_node(plan), PKLookup)

    def test_pk_prefix_becomes_prefix_scan(self, db):
        plan = db.prepare("SELECT c FROM t WHERE a = ?")
        assert isinstance(scan_node(plan), PKPrefixScan)

    def test_non_prefix_pk_column_full_scans(self, db):
        """The tabenchmark slow query shape: predicate on the second
        component of a composite key cannot use the key."""
        plan = db.prepare("SELECT c FROM t WHERE b = ?")
        assert isinstance(scan_node(plan), SeqScan)

    def test_secondary_index_used(self, db):
        plan = db.prepare("SELECT a FROM t WHERE name = ?")
        node = scan_node(plan)
        assert isinstance(node, IndexScan)
        assert node.index_name == "idx_t_name"

    def test_inequality_cannot_use_point_paths(self, db):
        plan = db.prepare("SELECT c FROM t WHERE a > ?")
        assert isinstance(scan_node(plan), SeqScan)

    def test_pk_equality_beats_index(self, db):
        plan = db.prepare("SELECT c FROM t WHERE name = ? AND a = ? AND b = ?")
        assert isinstance(scan_node(plan), PKLookup)

    def test_filter_reapplied_above_index(self, db):
        """Index entries may be stale: the key predicate must be re-checked."""
        plan = db.prepare("SELECT a FROM t WHERE name = ?")
        node = plan.root
        seen_filter = False
        while True:
            if isinstance(node, Filter):
                seen_filter = True
            children = node.children()
            if not children:
                break
            node = children[0]
        assert seen_filter


class TestJoinStrategies:
    def test_selective_outer_pk_inner_uses_index_join(self, db):
        plan = db.prepare(
            "SELECT u.label FROM u JOIN t ON t.a = u.t_a AND t.b = u.id "
            "WHERE u.id = ?")
        node = join_node(plan)
        assert isinstance(node, IndexJoin)
        assert isinstance(node.inner, PKLookup)

    def test_selective_outer_pk_prefix_index_join(self, db):
        plan = db.prepare(
            "SELECT t.c FROM u JOIN t ON t.a = u.t_a WHERE u.id = ?")
        node = join_node(plan)
        assert isinstance(node, IndexJoin)
        assert isinstance(node.inner, PKPrefixScan)

    def test_selective_outer_secondary_index_join(self, db):
        plan = db.prepare(
            "SELECT u.label FROM t JOIN u ON u.t_a = t.c "
            "WHERE t.a = ? AND t.b = ?")
        node = join_node(plan)
        assert isinstance(node, IndexJoin)
        assert isinstance(node.inner, IndexScan)
        assert node.inner.index_name == "idx_u_ta"

    def test_unselective_outer_uses_hash_join(self, db):
        plan = db.prepare("SELECT COUNT(*) FROM t JOIN u ON u.id = t.c")
        assert isinstance(join_node(plan), HashJoin)

    def test_computed_key_join_hashes(self, db):
        """CH-benCHmark's mod-joins must not fall back to nested loops."""
        plan = db.prepare(
            "SELECT COUNT(*) FROM t JOIN u ON u.id = t.c % 7")
        assert isinstance(join_node(plan), HashJoin)

    def test_non_equi_join_nested_loops(self, db):
        plan = db.prepare("SELECT COUNT(*) FROM t JOIN u ON u.id > t.c")
        assert isinstance(join_node(plan), NestedLoopJoin)

    def test_left_join_without_full_pk_no_index_join(self, db):
        """LEFT joins only take the exact-PK IndexJoin path (non-exact
        probes would break null extension)."""
        plan = db.prepare(
            "SELECT t.c FROM u LEFT JOIN t ON t.a = u.t_a WHERE u.id = ?")
        node = join_node(plan)
        assert not isinstance(node, IndexJoin)


class TestPlanCorrectnessParity:
    """Whatever the plan shape, results must agree with a forced-scan plan."""

    @pytest.fixture
    def loaded(self, db):
        rows_t = [(a, b, (a * 7 + b) % 5, f"n{a % 3}")
                  for a in range(10) for b in range(3)]
        db.bulk_load("t", rows_t)
        db.bulk_load("u", [(i, i % 10, f"label{i}") for i in range(20)])
        return db

    def test_index_join_matches_hash_join_results(self, loaded):
        fast = loaded.query(
            "SELECT t.c FROM u JOIN t ON t.a = u.t_a WHERE u.id = 3")
        # same logical query phrased so the planner can't use the pk path
        slow = loaded.query(
            "SELECT t.c FROM u JOIN t ON t.a + 0 = u.t_a WHERE u.id = 3")
        assert sorted(fast.rows) == sorted(slow.rows)

    def test_index_scan_matches_full_scan(self, loaded):
        via_index = loaded.query("SELECT a, b FROM t WHERE name = 'n1'")
        via_scan = loaded.query(
            "SELECT a, b FROM t WHERE name || '' = 'n1'")
        assert sorted(via_index.rows) == sorted(via_scan.rows)

    def test_prefix_scan_matches_filtered_scan(self, loaded):
        prefix = loaded.query("SELECT b FROM t WHERE a = 4")
        full = loaded.query("SELECT b FROM t WHERE a + 0 = 4")
        assert sorted(prefix.rows) == sorted(full.rows)

    def test_stats_reflect_plan_choice(self, loaded):
        point = loaded.query("SELECT c FROM t WHERE a = 1 AND b = 1")
        assert point.stats.pk_lookups == 1
        assert not point.stats.full_scans
        scan = loaded.query("SELECT c FROM t WHERE b = 1")
        assert scan.stats.full_scans["t"] == 1
        assert scan.stats.rows_row_store["t"] == 30
        prefix = loaded.query("SELECT c FROM t WHERE a = 1")
        assert prefix.stats.rows_row_prefix["t"] == 3


def plan_nodes(plan: SelectPlan) -> list:
    """Every node of the row plan, root first."""
    nodes, frontier = [], [plan.root]
    while frontier:
        node = frontier.pop()
        nodes.append(node)
        frontier.extend(node.children())
    return nodes


class TestResidualPredicates:
    """The filter above a scan holds only what the access path does not
    prove: the bound equalities of a PK lookup / PK-prefix scan are not
    evaluated again, a secondary-index path rechecks everything."""

    @pytest.fixture(scope="class")
    def retail(self):
        database = Database()
        database.run_script(make_workload("subenchmark").schema_script())
        return database

    @pytest.mark.parametrize("sql", [
        # subenchmark Q4, Q7 and Delivery's oldest-new-order lookup
        "SELECT c_d_id, c_credit, COUNT(*), AVG(c_balance), MIN(c_balance) "
        "FROM customer WHERE c_w_id = ? GROUP BY c_d_id, c_credit "
        "ORDER BY c_d_id, c_credit",
        "SELECT o_d_id, AVG(o_ol_cnt) FROM orders WHERE o_w_id = ? "
        "GROUP BY o_d_id ORDER BY o_d_id",
        "SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = ? AND no_d_id = ?",
    ], ids=["Q4", "Q7", "delivery_oldest"])
    def test_prefix_only_predicates_plan_no_filter(self, retail, sql):
        nodes = plan_nodes(retail.prepare(sql))
        assert any(isinstance(node, PKPrefixScan) for node in nodes)
        assert not any(isinstance(node, Filter) for node in nodes)

    def test_stock_level_residual_is_the_order_id_range(self, retail):
        plan = retail.prepare(
            "SELECT COUNT(DISTINCT s.s_i_id) FROM order_line ol "
            "JOIN stock s ON s.s_i_id = ol.ol_i_id AND s.s_w_id = ol.ol_w_id "
            "WHERE ol.ol_w_id = ? AND ol.ol_d_id = ? AND ol.ol_o_id >= ? "
            "AND ol.ol_o_id < ? AND s.s_quantity < ?")
        join = join_node(plan)
        assert isinstance(join, IndexJoin) and \
            isinstance(join.inner, PKLookup)
        residual = join.left
        assert isinstance(residual, Filter)
        assert isinstance(residual.child, PKPrefixScan)
        table = retail.catalog.table("order_line")
        ctx = ExecContext(None, (1, 2, 80, 100, 15))

        def line(w_id, d_id, o_id):
            row = [None] * len(table.columns)
            for column, value in (("ol_w_id", w_id), ("ol_d_id", d_id),
                                  ("ol_o_id", o_id)):
                row[table.position(column)] = value
            return tuple(row)

        # only the range is evaluated: a row of another district — which
        # the scan can never produce — would pass
        assert residual.predicate(line(1, 2, 80), ctx)
        assert residual.predicate(line(9, 9, 99), ctx)
        assert not residual.predicate(line(1, 2, 79), ctx)
        assert not residual.predicate(line(1, 2, 100), ctx)

    def test_point_select_by_full_pk_has_no_filter(self, db):
        plan = db.prepare("SELECT c FROM t WHERE a = ? AND b = ?")
        assert not any(isinstance(node, Filter) for node in plan_nodes(plan))
        # ... but what the key does not prove stays
        db.bulk_load("t", [(1, 1, 5, "x")])
        assert db.query("SELECT c FROM t WHERE a = ? AND b = ? AND a = ?",
                        (1, 1, 2)).rows == []
        assert db.query("SELECT c FROM t WHERE a = ? AND a = ?",
                        (1, 2)).rows == []

    @pytest.mark.parametrize("where, prefix", [
        ("name = 'new'", False), ("c = 7", True)],
        ids=["index", "index_prefix"])
    def test_index_paths_recheck_the_whole_predicate(self, db, where,
                                                     prefix):
        """An index entry says what a row's *newest* version holds: a
        snapshot that still sees the version before the update must not get
        the row from the lookup under the new key, and the transaction's
        own buffered rows (every one is a candidate) are filtered too."""
        db.run_script("CREATE INDEX idx_t_c_name ON t (c, name)")
        db.bulk_load("t", [(1, 1, 5, "old"), (2, 2, 7, "new")])
        plan = db.prepare(f"SELECT a FROM t WHERE {where}")
        scan = scan_node(plan)
        assert isinstance(scan, IndexScan) and scan.prefix is prefix
        with db.connect() as reader:
            reader.begin()
            with db.connect() as writer:
                writer.execute(
                    "UPDATE t SET name = 'new', c = 7 WHERE a = 1 AND b = 1")
            reader.execute("INSERT INTO t (a, b, c, name) "
                           "VALUES (3, 3, 0, 'mine')")
            assert reader.execute(f"SELECT a FROM t WHERE {where}").rows \
                == [(2,)]
        assert sorted(db.query(f"SELECT a FROM t WHERE {where}").rows) \
            == [(1,), (2,)]

    @pytest.mark.parametrize("params", [(None,), ("x",)],
                             ids=["null", "mistyped"])
    def test_null_or_mistyped_prefix_matches_nothing(self, db, params):
        """Was a bare ``TypeError`` out of ``bisect``; the full-key form
        already returned no rows."""
        db.bulk_load("t", [(1, 1, 5, "x"), (1, 2, 6, "y")])
        with db.connect() as conn:
            select = conn.execute("SELECT c FROM t WHERE a = ?", params)
            assert select.rows == []
            assert not select.stats.rows_row_store.get("t")
            for sql in ("UPDATE t SET c = 0 WHERE a = ?",
                        "DELETE FROM t WHERE a = ?"):
                result = conn.execute(sql, params)
                assert result.rowcount == 0
                assert not result.stats.rows_row_store.get("t")
                assert not result.stats.writes
            assert conn.execute("SELECT c FROM t WHERE a = NULL").rows == []
            assert conn.execute("SELECT c FROM t WHERE a = ? AND b = ?",
                                params + (1,)).rows == []
            assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 2
