"""Property-based SQL tests: the engine vs a plain-Python reference.

Random row populations are loaded into a single table; SQL results must
match what straightforward Python computes for the same filter /
aggregation / ordering.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.sql.executor import ExecContext
from repro.sql.expressions import Schema, column_fn
from repro.sql.planner import Limit, Sort, TopN
from repro.sql.plannode import BatchNode, chunked

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 40),                     # k (grouping key)
        st.integers(-1000, 1000),               # v
        st.one_of(st.none(), st.integers(-50, 50)),  # w (nullable)
    ),
    min_size=0, max_size=80,
)


def build_db(rows) -> Database:
    db = Database()
    db.run_script(
        "CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT, w INT)")
    if rows:
        db.bulk_load("t", ((i, k, v, w) for i, (k, v, w) in enumerate(rows)))
    return db


@given(rows_strategy, st.integers(-1000, 1000))
@settings(max_examples=60, deadline=None)
def test_filter_matches_reference(rows, threshold):
    db = build_db(rows)
    got = db.query("SELECT id FROM t WHERE v > ?", (threshold,)).rows
    expected = {i for i, (_k, v, _w) in enumerate(rows) if v > threshold}
    assert {r[0] for r in got} == expected


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_global_aggregates_match_reference(rows):
    db = build_db(rows)
    row = db.query(
        "SELECT COUNT(*), COUNT(w), SUM(v), MIN(v), MAX(v), AVG(v) "
        "FROM t").first()
    values = [v for _k, v, _w in rows]
    non_null_w = [w for _k, _v, w in rows if w is not None]
    assert row[0] == len(rows)
    assert row[1] == len(non_null_w)
    if values:
        assert row[2] == sum(values)
        assert row[3] == min(values)
        assert row[4] == max(values)
        assert math.isclose(row[5], sum(values) / len(values))
    else:
        assert row[2] is None and row[3] is None and row[4] is None
        assert row[5] is None


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_group_by_matches_reference(rows):
    db = build_db(rows)
    got = {
        (k, n, total)
        for k, n, total in db.query(
            "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k").rows
    }
    expected = {}
    for k, v, _w in rows:
        count, total = expected.get(k, (0, 0))
        expected[k] = (count + 1, total + v)
    assert got == {(k, n, total) for k, (n, total) in expected.items()}


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_order_by_is_total_and_stable(rows):
    db = build_db(rows)
    got = [r[0] for r in db.query(
        "SELECT v FROM t ORDER BY v, id").rows]
    assert got == sorted(v for _k, v, _w in rows)


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_distinct_matches_reference(rows):
    db = build_db(rows)
    got = {r[0] for r in db.query("SELECT DISTINCT k FROM t").rows}
    assert got == {k for k, _v, _w in rows}


@given(rows_strategy, st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_limit_returns_prefix_of_ordering(rows, limit):
    db = build_db(rows)
    got = [r[0] for r in db.query(
        f"SELECT v FROM t ORDER BY v, id LIMIT {limit}").rows]
    assert got == sorted(v for _k, v, _w in rows)[:limit]


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_self_join_on_key_matches_reference(rows):
    db = build_db(rows)
    got = db.query(
        "SELECT COUNT(*) FROM t a JOIN t b ON a.k = b.k").scalar()
    from collections import Counter

    counts = Counter(k for k, _v, _w in rows)
    assert got == sum(n * n for n in counts.values())


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_scalar_subquery_threshold(rows):
    values = [v for _k, v, _w in rows]
    db = build_db(rows)
    got = db.query(
        "SELECT COUNT(*) FROM t WHERE v < (SELECT AVG(v) FROM t)").scalar()
    if not values:
        assert got == 0
    else:
        avg = sum(values) / len(values)
        assert got == sum(1 for v in values if v < avg)


@given(st.lists(st.integers(-100, 100), min_size=0, max_size=50),
       st.integers(-100, 100), st.integers(-100, 100))
@settings(max_examples=40, deadline=None)
def test_between_matches_reference(values, a, b):
    lo, hi = min(a, b), max(a, b)
    db = Database()
    db.run_script("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    if values:
        db.bulk_load("t", ((i, v) for i, v in enumerate(values)))
    got = db.query(
        "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?", (lo, hi)).scalar()
    assert got == sum(1 for v in values if lo <= v <= hi)


@given(st.lists(st.text(alphabet="abc%_", min_size=0, max_size=6),
                max_size=30))
@settings(max_examples=40, deadline=None)
def test_like_prefix_matches_reference(texts):
    db = Database()
    db.run_script("CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(10))")
    if texts:
        db.bulk_load("t", ((i, s) for i, s in enumerate(texts)))
    got = db.query("SELECT COUNT(*) FROM t WHERE s LIKE 'a%'").scalar()
    assert got == sum(1 for s in texts if s.startswith("a"))


class _Batches(BatchNode):
    """A plan-node stub serving fixed rows in batches of ``size``."""

    def __init__(self, rows, size):
        self.served = rows
        self.size = size
        self.schema = Schema([(None, "a"), (None, "b"), (None, "c")])

    def execute_batches(self, ctx, size=None):
        return chunked(list(self.served), self.size)


def _outcome(node, ctx):
    try:
        return list(node.execute(ctx)), ctx.stats.sort_rows
    except TypeError:
        return "TypeError"


_topn_rows = st.lists(
    st.tuples(
        # leading-key material: NULLs, a narrow int range so tie groups
        # straddle the k-th value, and the odd string to mix types
        st.one_of(st.none(), st.integers(0, 4), st.sampled_from(["x", "y"])),
        st.one_of(st.none(), st.integers(-3, 3),
                  st.floats(-3, 3, allow_nan=False)),
        st.integers(0, 2),
    ),
    max_size=40,
)


@given(_topn_rows,
       st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                min_size=1, max_size=3),
       st.sampled_from(["0", "1", "n-1", "n", "n+3"]),
       st.integers(1, 9), st.booleans(),
       st.sampled_from([0, 3, TopN.SLACK_ROWS]))
@settings(max_examples=300, deadline=None)
def test_topn_is_sort_then_limit(rows, keys, limit, batch, strings, slack):
    """``TopN`` == ``Sort`` + ``Limit``: multi-key mixed ASC/DESC, NULLs in
    the leading key, tie groups straddling the k-th value, every limit
    regime — and the same ``TypeError`` when a key column mixes
    uncomparable types.  ``slack`` 0 cuts the buffer back mid-stream."""
    if not strings:
        rows = [row for row in rows if not isinstance(row[0], str)]
    limit = {"0": 0, "1": 1, "n-1": max(len(rows) - 1, 0), "n": len(rows),
             "n+3": len(rows) + 3}[limit]
    specs = [(column_fn(position), descending)
             for position, descending in keys]
    fused = TopN(_Batches(rows, batch), specs, limit)
    fused.SLACK_ROWS = slack
    plain = Limit(Sort(_Batches(rows, batch), specs), limit)
    assert _outcome(fused, ExecContext(None)) \
        == _outcome(plain, ExecContext(None))


class TestDeterminism:
    """The same seed must produce byte-identical run results (the paper's
    statistics are averages of repeated runs; ours are deterministic)."""

    @pytest.mark.parametrize("seed", [7, 99])
    def test_runs_are_reproducible(self, seed):
        from repro.core import BenchConfig, OLxPBench
        from repro.engines import TiDBCluster
        from repro.workloads.fibench import Fibenchmark

        def one_run():
            engine = TiDBCluster(nodes=4)
            bench = OLxPBench(engine, Fibenchmark(), scale=0.02, seed=seed)
            config = BenchConfig(workload="fibenchmark", oltp_rate=200,
                                 olap_rate=1, duration_ms=300,
                                 warmup_ms=100, seed=seed)
            report = bench.run(config)
            return (report.throughput("oltp"),
                    report.latency("oltp").mean,
                    report.latency("oltp").p95)

        assert one_run() == one_run()
