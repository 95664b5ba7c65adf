"""Generated expression parity: the vector pipeline against the row oracle.

Random, well-typed expression trees (numeric, string, boolean) over a
small NULL-heavy table with 8-row segments — sealed, encoded, with dead
rows and a delta tail — are placed in the five positions a vector tree
evaluates expressions in: the residual WHERE, the SELECT list, a GROUP
BY key, an aggregate argument and HAVING.  Each statement runs routed to
the columnar replica on the engine and on its oracle
(``vectorized=False``), and again unrouted, where the vector tree reads the
row store; each pair must return the same rows, or raise the same
exception type.

The two pipelines reach rows in different batches (the oracle a scan
batch, the engine a segment), so a statement that can fail two ways may
report either.  The trees are typed so that a statement fails one way
only — division by zero, from ``/``, ``%`` or ``MOD`` — as strings never
meet numbers; a divisor, a SUBSTR position or length and a ROUND digit
count are any numeric tree, NULL included.  The WHERE places a conjunct
the scan pushes before or after the one it does not: both pipelines
evaluate the pushed one first.
"""

from __future__ import annotations

import re
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Database

LEAVES = {
    "num": ("a", "b", "NULL", "0", "1", "-2", "3", "0.0", "2.5"),
    "text": ("s", "NULL", "''", "'a'", "'ab'", "'b'"),
}
# HAVING reads the aggregate's output: the group key and aggregates
HAVING_LEAVES = {
    "num": ("a", "COUNT(*)", "SUM(a)", "MAX(b)", "AVG(b)", "COUNT(s)",
            "NULL", "0", "1", "-2", "2.5"),
    "text": ("MIN(s)", "MAX(s)", "NULL", "'a'", "'b'"),
}
# one form per construct; each ``{slot}`` is drawn independently
FORMS = {
    "num": ("({num} {arith} {num})", "(- {num})", "({num} % {num})",
            "MOD({num}, {num})", "ABS({num})", "ROUND({num}, {num})",
            "LENGTH({text})", "CASE WHEN {bool} THEN {num} ELSE {num} END",
            "CASE WHEN {bool} THEN {num} END"),
    "text": ("({text} || {text})", "UPPER({text})", "LOWER({text})",
             "SUBSTR({text}, {num})", "SUBSTR({text}, {num}, {num})",
             "CASE WHEN {bool} THEN {text} ELSE {text} END"),
    "bool": ("({num} {cmp} {num})", "({text} {cmp} {text})",
             "({bool} AND {bool})", "({bool} OR {bool})", "(NOT {bool})",
             "({any} IS {not}NULL)", "({text} {not}LIKE {pattern})",
             "({num} {not}BETWEEN {num} AND {num})",
             "({num} {not}IN ({num}, {num}))",
             "({text} {not}IN ({text}, {text}))"),
}
TOKENS = {
    "arith": ("+", "-", "*", "/"),
    "cmp": ("=", "<>", "<", "<=", ">", ">="),
    "not": ("", "NOT "),
    "pattern": ("'a%'", "'%b'", "'_'", "'%'", "'ab'"),
}
SLOT = re.compile(r"\{(\w+)\}")


def _load(partitions: int) -> Database:
    db = Database(with_columnar=True, columnar_segment_rows=8,
                  partitions=partitions)
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, a INT, b DOUBLE, "
                   "s VARCHAR(4))")
    rng = Random(48)

    def nullable(values):
        return None if rng.random() < 0.4 else rng.choice(values)

    with db.connect() as conn:
        for i in range(44):
            conn.execute("INSERT INTO t (id, a, b, s) VALUES (?, ?, ?, ?)",
                         (i, nullable(range(-3, 6)),
                          nullable((-2.5, 0.0, 1.5, 3.0)),
                          nullable(("", "a", "ab", "ba", "b"))))
        conn.commit()
    db.replicate()
    # dead rows in sealed segments and rows left in the delta tail
    with db.connect() as conn:
        conn.execute("DELETE FROM t WHERE id IN (3, 17, 30)")
        conn.execute("UPDATE t SET a = NULL, s = 'ab' WHERE id IN (5, 9)")
        conn.execute("INSERT INTO t (id, a, b, s) VALUES (44, 0, NULL, 'b')")
        conn.commit()
    db.replicate()
    return db


@st.composite
def expression(draw, kind: str, leaves=LEAVES, depth: int = 3) -> str:
    """SQL text of one ``kind`` expression ("num", "text", "bool" or
    "any"), at most ``depth`` operators deep."""
    if kind == "any":
        kind = draw(st.sampled_from(("num", "text", "bool")))
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if kind == "bool":          # a comparison of two leaves
            return "({} {} {})".format(
                draw(st.sampled_from(leaves["num"])),
                draw(st.sampled_from(TOKENS["cmp"])),
                draw(st.sampled_from(leaves["num"])))
        return draw(st.sampled_from(leaves[kind]))

    def slot(match):
        name = match.group(1)
        if name in TOKENS:
            return draw(st.sampled_from(TOKENS[name]))
        return draw(expression(name, leaves, depth - 1))
    return SLOT.sub(slot, draw(st.sampled_from(FORMS[kind])))


NUM, TEXT, BOOL, ANY = (expression(kind)
                        for kind in ("num", "text", "bool", "any"))
GROUPING = st.sampled_from(("", " GROUP BY a"))
# conjuncts the scan pushes, written before or after the residual: the
# row filter evaluates them first wherever they stand, as the scan does
PUSHED = st.sampled_from(("a > 0", "b IS NOT NULL", "s IN ('a', 'b')"))

# one conjunct the scan never pushes: a CASE hands the filter its
# operand's NULL, an OR evaluates it as an OR operand
RESIDUAL = st.sampled_from(("CASE WHEN TRUE THEN {} END", "({} OR FALSE)"))


@st.composite
def where_clause(draw) -> str:
    conjuncts = [draw(RESIDUAL).format(draw(BOOL))]
    if draw(st.booleans()):
        conjuncts.insert(draw(st.integers(0, 1)), draw(PUSHED))
    return " AND ".join(conjuncts)


STATEMENTS = st.one_of(
    where_clause().map(lambda where: "SELECT id, a, b, s FROM t WHERE "
                                     + where),
    st.tuples(NUM, TEXT, BOOL, BOOL, BOOL).map(
        lambda e: "SELECT id, {}, {}, {}, {}, {} FROM t".format(*e)),
    ANY.map(lambda key: f"SELECT {key}, COUNT(*), SUM(b) FROM t "
                        f"GROUP BY {key}"),
    st.tuples(ANY, NUM, TEXT, NUM, GROUPING).map(
        lambda e: "SELECT COUNT({0}), SUM({1}), MIN({2}), MAX({3}), "
                  "AVG({3}) FROM t{4}".format(*e)),
    expression("bool", HAVING_LEAVES).map(
        lambda p: f"SELECT a, COUNT(*) FROM t GROUP BY a HAVING {p}"),
)


@pytest.fixture(scope="module", params=[1, 4], ids=lambda p: f"parts{p}")
def table(request) -> Database:
    return _load(request.param)


def _outcome(run, db, sql: str, vectorized: bool, routed: bool):
    try:
        result = run(db, sql, vectorized=vectorized)
    except Exception as exc:            # compared by type
        return type(exc)
    # only a routed vector tree counts as vectorized (it reads the replica)
    assert result.stats.vectorized is (vectorized and routed), sql
    return repr(result.rows)


@pytest.mark.parametrize("partitions", [1, 4])
def test_a_pushed_conjunct_is_evaluated_first_on_both_trees(
        routed, unrouted, partitions):
    """``1 / a > 0 AND a > 100`` over a row with ``a = 0``: the scan
    evaluates the pushed ``a > 100`` first and never divides, on the
    replica and on the row store, and so does the row filter, although
    WHERE writes it second."""
    db = Database(with_columnar=True, columnar_segment_rows=8,
                  partitions=partitions)
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, a INT)")
    db.bulk_load("t", [(i, i % 5) for i in range(20)])
    db.replicate()
    for sql, rows in (("SELECT id FROM t WHERE 1 / a > 0 AND a > 100", []),
                      ("SELECT id FROM t WHERE 1 / a > 0 AND a >= 4",
                       [(4,), (9,), (14,), (19,)])):
        for vectorized in (True, False):
            result = routed(db, sql, vectorized=vectorized)
            assert result.stats.vectorized is vectorized
            assert sorted(result.rows) == rows, (sql, vectorized)
            result = unrouted(db, sql, vectorized=vectorized)
            assert sorted(result.rows) == rows, (sql, vectorized)


@given(sql=STATEMENTS)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_expressions_match_the_row_oracle(table, routed, unrouted,
                                                   sql):
    for run, on_replica in ((routed, True), (unrouted, False)):
        assert _outcome(run, table, sql, True, on_replica) \
            == _outcome(run, table, sql, False, on_replica), \
            (on_replica, sql)
