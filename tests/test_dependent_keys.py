"""Dependent grouping keys: a GROUP BY column fixed by the columns before it.

When every primary-key column of a column's table is a kept GROUP BY column
or equated to one (a plain ``=`` in WHERE or an INNER join's ON), equal kept
keys pin one row of that table, so the column is never hashed: the
aggregate reads it once per group, from the group's first row.  Nothing
observable may move — the reference for every reduced statement is the
same statement with the dependent column written as an expression, which is
never reduced.
"""

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.session import run_transaction
from repro.db import Database
from repro.sql.functions import GroupedAggregation
from repro.sql.planner import Project
from repro.sql.vectorized import BatchAggregate
from repro.workloads import make_workload

# subenchmark Q5, Q3 and Q8, and CH-benCHmark Q15, as the workloads run them
Q5 = ("SELECT ol.ol_i_id, i.i_name, SUM(ol.ol_amount) AS revenue, "
      "SUM(ol.ol_quantity) AS units "
      "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
      "GROUP BY ol.ol_i_id, i.i_name ORDER BY revenue DESC LIMIT 10")
Q3 = ("SELECT w.w_id, w.w_ytd, SUM(d.d_ytd) AS district_ytd "
      "FROM warehouse w JOIN district d ON d.d_w_id = w.w_id "
      "GROUP BY w.w_id, w.w_ytd ORDER BY w.w_id")
Q8 = ("SELECT d.d_w_id, d.d_id, d.d_name, COUNT(*) AS backlog "
      "FROM new_order no "
      "JOIN district d ON d.d_w_id = no.no_w_id AND d.d_id = no.no_d_id "
      "GROUP BY d.d_w_id, d.d_id, d.d_name "
      "ORDER BY backlog DESC, d.d_w_id, d.d_id")
CH_Q15 = ("SELECT su.su_suppkey, su.su_name, "
          "SUM(ol.ol_amount) AS total_revenue FROM order_line ol "
          "JOIN supplier su ON su.su_suppkey = ol.ol_i_id % 100 "
          "WHERE ol.ol_w_id = 1 GROUP BY su.su_suppkey, su.su_name "
          "ORDER BY total_revenue DESC LIMIT 10")


def _find(root, kind):
    frontier = [root]
    while frontier:
        node = frontier.pop()
        if isinstance(node, kind):
            return node
        frontier.extend(node.children())
    return None


def _aggregates(db: Database, sql: str):
    """The statement's row-tree and vector-tree ``BatchAggregate`` (the
    vector one None when the statement has no vectorized plan)."""
    plan = db.prepare(sql)
    vector = None
    if plan.vectorized_root is not None:
        vector = _find(plan.vectorized_root, BatchAggregate)
    return _find(plan.root, BatchAggregate), vector


def _schema_db(name: str) -> Database:
    db = Database(with_columnar=True)
    db.run_script(make_workload(name).schema_script())
    return db


class TestPlannedKeys:
    @pytest.fixture(scope="class")
    def retail(self):
        return _schema_db("subenchmark")

    @pytest.fixture(scope="class")
    def ch(self):
        return _schema_db("chbenchmark")

    @pytest.mark.parametrize("sql, dependent", [
        (Q5, (False, True)),            # ol_i_id = i_id, item's whole PK
        (Q3, (False, True)),            # w_id is warehouse's PK
        (Q8, (False, False, True)),     # (d_w_id, d_id) is district's PK
    ], ids=["Q5", "Q3", "Q8"])
    def test_workload_shapes_hash_only_the_kept_columns(self, retail, sql,
                                                        dependent):
        row, vector = _aggregates(retail, sql)
        assert row.dependent == dependent
        assert vector.dependent == dependent

    def test_ch_supplier_name_depends_on_its_key(self, ch):
        row, vector = _aggregates(ch, CH_Q15)
        assert row.dependent == (False, True)
        # the PK-prefix WHERE keeps it on the row plan; without it the
        # vectorized planner reduces the same key
        assert vector is None
        row, vector = _aggregates(ch, CH_Q15.replace("WHERE ol.ol_w_id = 1 ",
                                                     ""))
        assert row.dependent == vector.dependent == (False, True)

    @pytest.mark.parametrize("sql", [
        # a LEFT join's ON proves nothing
        "SELECT ol.ol_i_id, i.i_name, COUNT(*) FROM order_line ol "
        "LEFT JOIN item i ON i.i_id = ol.ol_i_id "
        "GROUP BY ol.ol_i_id, i.i_name",
        # joined on a non-PK column
        "SELECT ol.ol_i_id, i.i_name, COUNT(*) FROM order_line ol "
        "JOIN item i ON i.i_im_id = ol.ol_i_id "
        "GROUP BY ol.ol_i_id, i.i_name",
        # customer's PK (c_w_id, c_d_id, c_id) only partly pinned: a
        # constant equality pins nothing
        "SELECT h.h_c_id, c.c_last, COUNT(*) FROM history h "
        "JOIN customer c ON c.c_id = h.h_c_id AND c.c_d_id = h.h_c_d_id "
        "WHERE c.c_w_id = 1 GROUP BY h.h_c_id, c.c_last",
        # the same columns, but h_c_d_id is not kept
        "SELECT h.h_c_id, c.c_last, COUNT(*) FROM history h "
        "JOIN customer c ON c.c_w_id = h.h_c_w_id AND c.c_id = h.h_c_id "
        "AND c.c_d_id = h.h_c_d_id GROUP BY h.h_c_id, h.h_c_w_id, c.c_last",
        # an expression is never a dependent column
        "SELECT ol.ol_i_id, SUBSTR(i.i_name, 1), COUNT(*) FROM order_line ol "
        "JOIN item i ON i.i_id = ol.ol_i_id "
        "GROUP BY ol.ol_i_id, SUBSTR(i.i_name, 1)",
        # the dependent column before the key that would fix it
        "SELECT i.i_name, ol.ol_i_id, COUNT(*) FROM order_line ol "
        "JOIN item i ON i.i_id = ol.ol_i_id GROUP BY i.i_name, ol.ol_i_id",
    ], ids=["left_join", "non_pk_join", "pk_partly_pinned",
            "pk_column_not_kept", "expression", "order_decides"])
    def test_full_key_when_nothing_proves_it(self, retail, sql):
        row, vector = _aggregates(retail, sql)
        assert not any(row.dependent)
        assert vector is None or not any(vector.dependent)

    def test_group_rows_pass_an_identity_projection(self, retail):
        """Q5's SELECT list is its aggregate's columns in place: the group
        rows are built once, by the aggregate, on both plans."""
        plan = retail.prepare(Q5)
        for root in (plan.root, plan.vectorized_root):
            assert _find(root, Project).identity
        swapped = Q5.replace("ol.ol_i_id, i.i_name, SUM", "i.i_name, "
                             "ol.ol_i_id, SUM")
        assert not _find(retail.prepare(swapped).root, Project).identity
        # an empty projection is not an identity: no FROM, no columns
        assert retail.query("SELECT *").rows == []

    def test_computed_join_key_proves_nothing(self, ch):
        sql = ("SELECT s.s_i_id, su.su_name, COUNT(*) FROM stock s "
               "JOIN supplier su ON su.su_suppkey = s.s_i_id % 100 "
               "GROUP BY s.s_i_id, su.su_name")
        row, vector = _aggregates(ch, sql)
        assert row.dependent == vector.dependent == (False, False)

    def test_columns_that_pin_each_other_are_never_both_dropped(self):
        db = Database(with_columnar=True)
        db.run_script("""
        CREATE TABLE a (id INT NOT NULL, b_ref INT, name VARCHAR(8),
                        PRIMARY KEY (id));
        CREATE TABLE b (id INT NOT NULL, a_ref INT, name VARCHAR(8),
                        PRIMARY KEY (id))
        """)
        join = "FROM a JOIN b ON a.id = b.a_ref AND b.id = a.b_ref "
        # each table's PK is pinned only by the other's non-key column:
        # neither name is fixed by a kept column
        row, vector = _aggregates(
            db, f"SELECT a.name, b.name, COUNT(*) {join}"
                "GROUP BY a.name, b.name")
        assert row.dependent == vector.dependent == (False, False)
        # b_ref and a_ref pin each other's table: the first is kept, and it
        # fixes the second — one of the two is hashed, never neither
        for keys in ("a.b_ref, b.a_ref", "b.a_ref, a.b_ref"):
            row, vector = _aggregates(
                db, f"SELECT {keys}, COUNT(*) {join}GROUP BY {keys}")
            assert row.dependent == vector.dependent == (False, True)


# ---------------------------------------------------------------------------
# parity: reduced == the same statement with the column as an expression
# ---------------------------------------------------------------------------

# (reduced, reference): no ORDER BY, so rows leave in group-emission order
PARITY = [
    ("SELECT ol.ol_i_id, i.i_name, SUM(ol.ol_amount), SUM(ol.ol_quantity) "
     "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
     "GROUP BY ol.ol_i_id, i.i_name",
     "SELECT ol.ol_i_id, SUBSTR(i.i_name, 1), SUM(ol.ol_amount), "
     "SUM(ol.ol_quantity) FROM order_line ol JOIN item i "
     "ON i.i_id = ol.ol_i_id GROUP BY ol.ol_i_id, SUBSTR(i.i_name, 1)"),
    ("SELECT w.w_id, w.w_ytd, SUM(d.d_ytd) FROM warehouse w "
     "JOIN district d ON d.d_w_id = w.w_id GROUP BY w.w_id, w.w_ytd",
     "SELECT w.w_id, w.w_ytd * 1, SUM(d.d_ytd) FROM warehouse w "
     "JOIN district d ON d.d_w_id = w.w_id GROUP BY w.w_id, w.w_ytd * 1"),
    ("SELECT d.d_w_id, d.d_id, d.d_name, COUNT(*) FROM new_order no "
     "JOIN district d ON d.d_w_id = no.no_w_id AND d.d_id = no.no_d_id "
     "GROUP BY d.d_w_id, d.d_id, d.d_name",
     "SELECT d.d_w_id, d.d_id, SUBSTR(d.d_name, 1), COUNT(*) "
     "FROM new_order no JOIN district d ON d.d_w_id = no.no_w_id "
     "AND d.d_id = no.no_d_id GROUP BY d.d_w_id, d.d_id, "
     "SUBSTR(d.d_name, 1)"),
    # one table, no join: sketch-eligible, so warm runs merge cached
    # per-segment partials that carry the dependent column
    ("SELECT i_id, i_name, COUNT(*), MAX(i_price) FROM item "
     "GROUP BY i_id, i_name",
     "SELECT i_id, SUBSTR(i_name, 1), COUNT(*), MAX(i_price) FROM item "
     "GROUP BY i_id, SUBSTR(i_name, 1)"),
]


@pytest.fixture(scope="module", params=[(p, lagged) for p in (1, 2, 8)
                                        for lagged in (False, True)],
                ids=lambda param: f"p{param[0]}-{'lagged' if param[1] else 'applied'}")
def retail_db(request):
    partitions, lagged = request.param
    db = Database(with_columnar=True, columnar_segment_rows=64,
                  partitions=partitions)
    workload = make_workload("subenchmark")
    workload.install(db, Random(7), 0.05, with_foreign_keys=False)
    if lagged:
        rng = Random(13)
        with db.connect() as conn:
            for profile in workload.oltp_transactions() * 2:
                run_transaction(conn, "oltp", profile.name, profile.program,
                                rng)
        db.replicate(limit=db.replication_lag() // 2)
        assert db.replication_lag() > 0
    return db


@pytest.mark.parametrize("reduced, reference", PARITY,
                         ids=["Q5", "Q3", "Q8", "item"])
def test_reduced_equals_expression_reference(retail_db, routed, reduced,
                                             reference):
    assert any(_aggregates(retail_db, reduced)[0].dependent)
    expected = repr(routed(retail_db, reference, vectorized=False).rows)
    assert expected != "[]"
    for vectorized in (False, True, True):       # row, vector cold, warm
        assert repr(routed(retail_db, reduced,
                           vectorized=vectorized).rows) == expected
        assert repr(routed(retail_db, reference,
                           vectorized=vectorized).rows) == expected


_names = st.sampled_from(["a", "b", None])
_facts = st.lists(st.tuples(st.integers(0, 7),
                            st.one_of(st.none(), st.integers(-4, 4),
                                      st.integers(-64, 64).map(
                                          lambda n: n / 16))),
                  max_size=60)


@given(st.lists(_names, min_size=8, max_size=8), _facts,
       st.sampled_from([1, 2, 8]))
@settings(max_examples=30, deadline=None,
          # ``routed`` is a stateless helper handed out as a fixture
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_keys_sharing_a_dependent_value_stay_apart(routed, names, facts,
                                                  partitions):
    """Parents drawn from three names, so several PKs share one dependent
    value: every parent is still its own group."""
    db = Database(with_columnar=True, columnar_segment_rows=8,
                  partitions=partitions)
    db.run_script("""
    CREATE TABLE p (id INT NOT NULL, name VARCHAR(8), PRIMARY KEY (id));
    CREATE TABLE f (fid INT NOT NULL, pid INT, v DOUBLE, PRIMARY KEY (fid))
    """)
    db.bulk_load("p", list(enumerate(names)))
    db.bulk_load("f", [(i, pid, v) for i, (pid, v) in enumerate(facts)])
    db.replicate()
    reduced = ("SELECT f.pid, p.name, COUNT(*), SUM(f.v) FROM f "
               "JOIN p ON p.id = f.pid GROUP BY f.pid, p.name")
    reference = reduced.replace("p.name", "SUBSTR(p.name, 1)")
    assert _aggregates(db, reduced)[1].dependent == (False, True)
    expected = routed(db, reference, vectorized=False).rows
    assert len(expected) == len({pid for pid, _v in facts})
    for vectorized in (False, True, True):
        assert repr(routed(db, reduced, vectorized=vectorized).rows) \
            == repr(expected)


# ---------------------------------------------------------------------------
# the state: bare single keys, dependent columns, merges
# ---------------------------------------------------------------------------

SPECS = [("COUNT", True, False), ("SUM", False, False)]


def test_bare_single_keys_group_as_one_tuples_do():
    """A key with one hashed column is the bare value: ``1`` / ``1.0`` /
    ``True``, ``0.0`` / ``-0.0`` and ``None`` still share a group (the
    first-seen value names it), distinct NaN objects still do not."""
    nan_a, nan_b = float("nan"), float("nan")
    keys = [1, 1.0, True, 0.0, -0.0, None, nan_a, nan_b, nan_a, "1", None]
    values = [float(i) for i in range(len(keys))]
    bare = GroupedAggregation(SPECS, (False,))
    bare.scatter(bare.assign_columns([keys]), [None, values])
    # keys the caller shapes as whole 1-tuples: how every key was hashed
    # before single keys went bare
    tupled = GroupedAggregation(SPECS)
    tupled.scatter(tupled.assign([(key,) for key in keys]), [None, values])
    assert repr(bare.rows()) == repr(tupled.rows()) == repr([
        (1, 3, 3.0), (0.0, 2, 7.0), (None, 2, 15.0), (nan_a, 2, 14.0),
        (nan_b, 1, 7.0), ("1", 1, 9.0)])


_keyed = st.lists(st.tuples(st.integers(0, 9),
                            st.one_of(st.none(), st.integers(-5, 5))),
                  max_size=60)


@given(st.lists(_names, min_size=10, max_size=10), _keyed,
       st.lists(st.integers(0, 60), max_size=4), st.randoms())
@settings(max_examples=100, deadline=None)
def test_dependent_state_equals_full_key_state(names, rows, cuts, rng):
    """Any batch split, dealt over partials merged in order: reading the
    dependent column at each new group's first row gives the full-key
    state's rows, order and ``nbytes``."""
    dependent_column = [names[key] for key, _v in rows]
    bounds = sorted({min(cut, len(rows)) for cut in cuts} | {0, len(rows)})
    # (name, key, name): the first name is hashed, the last one depends
    reduced = GroupedAggregation(SPECS, (False, False, True))
    full = GroupedAggregation(SPECS, (False, False, False))
    partials = [GroupedAggregation(SPECS, (False, False, True))
                for _ in range(rng.randint(1, 3))]
    for start, stop in zip(bounds, bounds[1:]):
        keys = [key for key, _v in rows[start:stop]]
        deps = dependent_column[start:stop]
        values = [v for _k, v in rows[start:stop]]
        columns = [deps, keys, deps]
        for groups in (reduced, full, rng.choice(partials)):
            groups.scatter(groups.assign_columns(columns), [None, values])
    merged = GroupedAggregation(SPECS, (False, False, True))
    for partial in partials:
        merged.merge(partial)
    assert reduced.dependent == [2] and reduced.kept == [0, 1]
    assert repr(reduced.rows()) == repr(full.rows())
    assert reduced.nbytes() == full.nbytes()
    assert sorted(map(repr, merged.rows())) \
        == sorted(map(repr, full.rows()))
