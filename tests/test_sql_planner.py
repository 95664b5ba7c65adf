"""Planner: access-path selection and join-strategy choice.

These tests pin down the physical plans — the paper's performance stories
(composite-key slow query, StockLevel's point-read shape, CH's computed-key
joins) depend on the planner making the same choices a real optimiser would.
"""

import pytest

from repro.db import Database
from repro.errors import BindError
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


@pytest.fixture
def shop():
    """Three replicated tables, one with a secondary index."""
    database = Database(with_columnar=True)
    database.run_script("""
    CREATE TABLE cust (c_id INT PRIMARY KEY, c_name VARCHAR(20),
                       c_region INT);
    CREATE TABLE ord (o_id INT PRIMARY KEY, o_c_id INT, o_amount INT,
                      o_status VARCHAR(10));
    CREATE TABLE line (l_o_id INT NOT NULL, l_no INT NOT NULL, l_qty INT,
                       PRIMARY KEY (l_o_id, l_no));
    CREATE INDEX idx_ord_status ON ord (o_status)
    """)
    database.bulk_load("cust", [(c, f"c{c}", c % 3) for c in range(1, 7)])
    database.bulk_load("ord", [
        (o, o % 5 + 1, o, "open" if o % 3 == 0 else "done")
        for o in range(1, 13)])
    database.bulk_load("line", [(o, n, o + n) for o in range(1, 13)
                                for n in (1, 2)])
    database.replicate()
    return database


class TestVectorEligibility:
    """A statement has a vector tree exactly when its row tree only scans:
    every table a ``SeqScan``, every join a ``HashJoin``."""

    @pytest.mark.parametrize("sql, params, vectorized", [
        pytest.param(
            "SELECT c_name, o_amount, l_qty FROM cust "
            "JOIN ord ON o_c_id = c_id JOIN line ON l_o_id = o_id "
            "WHERE o_amount > 2 ORDER BY c_name, o_amount, l_qty",
            (), True, id="hash-joins-of-full-scans"),
        pytest.param(
            "SELECT c_name, o_amount FROM cust JOIN ord ON o_c_id = c_id "
            "WHERE c_id = ? ORDER BY o_amount",
            (2,), False, id="pk-bound-base"),
        pytest.param(
            "SELECT c_name, o_amount FROM cust JOIN ord ON o_c_id = c_id "
            "WHERE o_status = ? ORDER BY c_name, o_amount",
            ("open",), False, id="joined-table-through-secondary-index"),
        pytest.param(
            "SELECT c_name, o_amount FROM cust JOIN ord ON o_c_id < c_id "
            "ORDER BY c_name, o_amount",
            (), False, id="non-equi-join"),
        pytest.param(
            "SELECT c_name FROM cust WHERE c_region = 1 FOR UPDATE",
            (), False, id="for-update"),
        # the ON conjunct on ord filters its scan; the WHERE conjunct on
        # ord stays above the LEFT join, over its NULL-extended rows
        pytest.param(
            "SELECT c_id, o_id FROM cust "
            "LEFT JOIN ord ON o_c_id = c_id AND o_amount % 2 = 0 "
            "WHERE o_status IS NULL OR o_status = 'done' "
            "ORDER BY c_id, o_id",
            (), True, id="left-join-on-and-where-on-right-table"),
        # a LEFT join's two-table ON residue is its join condition
        pytest.param(
            "SELECT c_id, o_id FROM cust "
            "LEFT JOIN ord ON o_c_id = c_id AND o_amount > c_region * 6 "
            "ORDER BY c_id, o_id",
            (), False, id="left-join-with-two-table-on-residue"),
    ])
    def test_vector_tree_exactly_when_the_row_tree_only_scans(
            self, shop, routed, sql, params, vectorized):
        plan = shop.prepare(sql)
        assert (plan.vectorized_root is not None) == vectorized
        vector = routed(shop, sql, params)
        oracle = routed(shop, sql, params, vectorized=False)
        assert vector.stats.vectorized == vectorized
        assert vector.rows == oracle.rows == shop.query(sql, params).rows
        assert vector.rows

    def test_left_join_answers_match_sql_semantics(self, shop):
        """Customer 6 has no order and the orders of customers 2 and 5
        all fail the two-table ON conjunct: each is NULL-extended, not
        dropped (the answers sqlite gives)."""
        rows = shop.query(
            "SELECT c_id, o_id FROM cust "
            "LEFT JOIN ord ON o_c_id = c_id AND o_amount > c_region * 6 "
            "ORDER BY c_id, o_id").rows
        assert rows == [(1, 10), (2, None), (3, 2), (3, 7), (3, 12),
                        (4, 8), (5, None), (6, None)]

    def test_repeated_binding_raises(self, shop):
        with pytest.raises(BindError):
            shop.prepare("SELECT c.c_id FROM cust c JOIN ord c "
                         "ON c.o_c_id = c.c_id")

    def test_for_update_with_subquery_validates_the_plain_predicate_keys(
            self, shop):
        """The rows a FOR UPDATE validates are its FROM node's: a conjunct
        the scan cannot take (a subquery) filters them all the same."""
        def validated(where):
            with shop.connect() as conn:
                txn = conn.begin()
                conn.execute(f"SELECT c_name FROM cust WHERE {where} "
                             "FOR UPDATE")
                keys = set(txn.for_update_keys)
                conn.rollback()
            return keys

        subquery = validated(
            "c_region <> 0 AND c_id IN (SELECT o_c_id FROM ord "
            "WHERE o_amount > 9)")
        plain = validated("c_region <> 0 AND c_id IN (1, 2, 3)")
        assert subquery == plain == {("CUST", (c,)) for c in (1, 2)}


class TestGroupjoinEligibility:
    """Which aggregates fold their join's probe side before the join: the
    kept GROUP BY columns are the probe-side join key, every other GROUP BY
    column is a build-side dependent one, every aggregate reads the probe
    side (``Planner._plan_groupjoin``)."""

    RETAIL = {
        "Q3": "SELECT w.w_id, w.w_ytd, SUM(d.d_ytd) AS district_ytd "
              "FROM warehouse w JOIN district d ON d.d_w_id = w.w_id "
              "GROUP BY w.w_id, w.w_ytd ORDER BY w.w_id",
        "Q5": "SELECT ol.ol_i_id, i.i_name, SUM(ol.ol_amount) AS revenue, "
              "SUM(ol.ol_quantity) AS units "
              "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
              "GROUP BY ol.ol_i_id, i.i_name ORDER BY revenue DESC LIMIT 10",
        "Q6": "SELECT COUNT(*) AS low_items, AVG(s.s_quantity) AS avg_qty, "
              "SUM(s.s_ytd) AS committed "
              "FROM stock s JOIN item i ON i.i_id = s.s_i_id "
              "WHERE s.s_quantity < ?",
        "Q8": "SELECT d.d_w_id, d.d_id, d.d_name, COUNT(*) AS backlog "
              "FROM new_order no JOIN district d "
              "ON d.d_w_id = no.no_w_id AND d.d_id = no.no_d_id "
              "GROUP BY d.d_w_id, d.d_id, d.d_name "
              "ORDER BY backlog DESC LIMIT 10",
        "left-join": "SELECT ol.ol_i_id, i.i_name, SUM(ol.ol_amount) "
                     "FROM order_line ol LEFT JOIN item i "
                     "ON i.i_id = ol.ol_i_id GROUP BY ol.ol_i_id, i.i_name",
        "build-side-argument": "SELECT ol.ol_i_id, i.i_name, "
                               "SUM(i.i_price) FROM order_line ol "
                               "JOIN item i ON i.i_id = ol.ol_i_id "
                               "GROUP BY ol.ol_i_id, i.i_name",
        "computed-argument": "SELECT ol.ol_i_id, i.i_name, "
                             "SUM(ol.ol_amount * 2) FROM order_line ol "
                             "JOIN item i ON i.i_id = ol.ol_i_id "
                             "GROUP BY ol.ol_i_id, i.i_name",
        "probe-side-residue": "SELECT ol.ol_i_id, i.i_name, "
                              "SUM(ol.ol_amount) FROM order_line ol "
                              "JOIN item i ON i.i_id = ol.ol_i_id "
                              "WHERE ol.ol_amount + 1 > 2 "
                              "GROUP BY ol.ol_i_id, i.i_name",
    }

    @pytest.mark.parametrize("name", sorted(RETAIL))
    def test_only_the_fk_to_pk_fold_is_a_groupjoin(self, name):
        db = Database(with_columnar=True)
        db.run_script(make_workload("subenchmark").schema_script())
        plan = db.prepare(self.RETAIL[name])
        nodes, groupjoins = [plan.vectorized_root], []
        while nodes:
            node = nodes.pop()
            if getattr(node, "groupjoin", None) is not None:
                groupjoins.append(node)
            nodes += node.children()
        assert plan.vectorized_root is not None
        assert len(groupjoins) == (name == "Q5")
        if groupjoins:
            probe, build = groupjoins[0].groupjoin
            # the probe-side fold is the single-table aggregate of the
            # join key: it reads the sealed segments' cached partials
            assert probe.sketch_key is not None
            assert probe.child.table.name == "order_line"
            assert len(build) == 1


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
