"""Vectorized executor: parity with the row pipeline, zone-map pruning,
TopN fusion, and the batch operator/stat plumbing."""

import math
from random import Random

import pytest

from repro.core.session import run_transaction
from repro.db import Database
from repro.errors import ExecutionError
from repro.sql.planner import Limit, Sort, TopN
from repro.sql.result import Batch
from repro.workloads import make_workload


def _close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def rows_equivalent(left, right) -> bool:
    """Exact row-by-row comparison with float tolerance (aggregation fold
    order over floats is executor-internal and not SQL-defined)."""
    if len(left) != len(right):
        return False
    return all(
        len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


class _QuerySession:
    """Minimal stand-in for core.Session: records each statement result."""

    def __init__(self, conn, route_columnar: bool):
        self._conn = conn
        self._route = route_columnar
        self.results = []

    def execute(self, sql, params=()):
        result = self._conn.execute(sql, params,
                                    route_columnar=self._route)
        self.results.append(result)
        return result

    def query_scalar(self, sql, params=()):
        return self.execute(sql, params).scalar()


def _run_queries(db, profiles, seed: int):
    """Run every analytical profile once; returns per-query result lists."""
    outputs = []
    stats = []
    for i, profile in enumerate(profiles):
        rng = Random(f"{profile.name}:{seed}")
        with db.connect() as conn:
            session = _QuerySession(conn, route_columnar=True)
            profile.program(session, rng)
            conn.commit()
        outputs.append([(r.columns, r.rows) for r in session.results])
        stats.append([r.stats for r in session.results])
    return outputs, stats


def _build_workload_db(name: str, scale: float, seed: int):
    db = Database(with_columnar=True, columnar_segment_rows=512)
    workload = make_workload(name)
    workload.install(db, Random(seed), scale, with_foreign_keys=False)
    db.replicate()
    return db, workload


@pytest.mark.parametrize("workload_name,scale", [
    ("subenchmark", 0.05),
    ("fibenchmark", 0.05),
    ("tabenchmark", 0.05),
])
class TestAnalyticalParity:
    """Both executors must return identical results, query by query."""

    def test_parity_on_loaded_data(self, workload_name, scale):
        db, workload = _build_workload_db(workload_name, scale, seed=7)
        profiles = workload.analytical_queries()
        assert profiles, "workload has no analytical queries"

        db.executor.use_vectorized = True
        vec_out, vec_stats = _run_queries(db, profiles, seed=7)
        db.executor.use_vectorized = False
        row_out, _ = _run_queries(db, profiles, seed=7)

        ran_vectorized = 0
        for profile, vec, row, stats in zip(profiles, vec_out, row_out,
                                            vec_stats):
            assert len(vec) == len(row), profile.name
            for (vcols, vrows), (rcols, rrows) in zip(vec, row):
                assert vcols == rcols, profile.name
                assert rows_equivalent(vrows, rrows), profile.name
            ran_vectorized += any(s.vectorized for s in stats)
        # the vectorized plan must cover most of the query set; selective
        # statements (PK/index access paths) deliberately stay on the row
        # pipeline, which reads the fresh row store even when routed
        assert ran_vectorized >= len(profiles) * 2 // 3

    def test_parity_after_oltp_mutations(self, workload_name, scale):
        db, workload = _build_workload_db(workload_name, scale, seed=11)
        rng = Random(13)
        with db.connect() as conn:
            for i, profile in enumerate(workload.oltp_transactions() * 3):
                run_transaction(conn, "oltp", profile.name, profile.program,
                                rng)
        db.replicate()
        assert db.replication_lag() == 0

        profiles = workload.analytical_queries()
        db.executor.use_vectorized = True
        vec_out, _ = _run_queries(db, profiles, seed=17)
        db.executor.use_vectorized = False
        row_out, _ = _run_queries(db, profiles, seed=17)
        for profile, vec, row in zip(profiles, vec_out, row_out):
            for (vcols, vrows), (rcols, rrows) in zip(vec, row):
                assert rows_equivalent(vrows, rrows), profile.name


def _make_db(segment_rows: int = 64) -> Database:
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows)
    db.execute_ddl(
        "CREATE TABLE m (id INT PRIMARY KEY, grp INT, v DOUBLE, "
        "note VARCHAR(16))")
    return db


def _fill(db, n: int = 512):
    with db.connect() as conn:
        for i in range(n):
            conn.execute(
                "INSERT INTO m (id, grp, v, note) VALUES (?, ?, ?, ?)",
                (i, i // 64, float(i % 10), f"n{i}"))
        conn.commit()
    db.replicate()


def _both(db, sql, params=()):
    """Run one routed-columnar statement through both executors."""
    db.executor.use_vectorized = True
    vec = _routed(db, sql, params)
    db.executor.use_vectorized = False
    row = _routed(db, sql, params)
    db.executor.use_vectorized = True
    return vec, row


def _routed(db, sql, params=()):
    with db.connect() as conn:
        result = conn.execute(sql, params, route_columnar=True)
        conn.commit()
    return result


class TestZoneMapPruning:
    def test_selective_scan_prunes_segments(self):
        db = _make_db(segment_rows=64)
        _fill(db, 512)
        vec, row = _both(db, "SELECT COUNT(*), SUM(v) FROM m WHERE grp = 3")
        assert vec.rows == row.rows
        assert vec.stats.vectorized and not row.stats.vectorized
        assert vec.stats.segments_pruned >= 6
        assert vec.stats.batches_scanned >= 1
        # pruned segments are not scanned: fewer columnar rows touched
        assert sum(vec.stats.rows_columnar.values()) < \
            sum(row.stats.rows_columnar.values())

    def test_param_bound_range_prunes(self):
        db = _make_db(segment_rows=64)
        _fill(db, 512)
        vec, row = _both(
            db, "SELECT COUNT(*) FROM m WHERE id BETWEEN ? AND ?", (100, 160))
        assert vec.rows == row.rows == [(61,)]
        assert vec.stats.segments_pruned >= 5

    def test_null_bound_matches_nothing(self):
        db = _make_db(segment_rows=64)
        _fill(db, 128)
        vec, row = _both(db, "SELECT COUNT(*) FROM m WHERE id = ?", (None,))
        assert vec.rows == row.rows == [(0,)]

    def test_pruning_never_drops_rows_after_updates(self):
        """Widen-only zone maps stay a superset of live values: rows moved
        *into* a predicate range by UPDATE must still be found."""
        db = _make_db(segment_rows=32)
        _fill(db, 256)
        with db.connect() as conn:
            # move rows from the low id-range segment into high v values
            for i in (3, 7, 11):
                conn.execute("UPDATE m SET v = ? WHERE id = ?",
                             (900.0 + i, i))
            conn.commit()
        db.replicate()
        vec, row = _both(db, "SELECT id FROM m WHERE v > 800 ORDER BY id")
        assert vec.rows == row.rows == [(3,), (7,), (11,)]

    def test_query_sees_exactly_applied_watermark(self):
        """Under piecemeal WAL replication the vectorized scan must reflect
        exactly the applied prefix — never more, never less."""
        db = _make_db(segment_rows=16)
        with db.connect() as conn:
            for i in range(100):
                conn.execute(
                    "INSERT INTO m (id, grp, v, note) VALUES (?, ?, ?, ?)",
                    (i, 0, float(i), "x"))
            conn.commit()
        applied_rows = 0
        while db.replication_lag() > 0:
            applied_rows += db.replicate(limit=7)
            vec = _routed(db, "SELECT COUNT(*), MAX(id) FROM m WHERE id >= 0")
            assert vec.stats.vectorized
            assert vec.rows == [(applied_rows, applied_rows - 1)]
        assert applied_rows == 100

    def test_deleted_rows_invisible_to_batches(self):
        db = _make_db(segment_rows=16)
        _fill(db, 48)
        with db.connect() as conn:
            conn.execute("DELETE FROM m WHERE id >= 16 AND id < 32")
            conn.commit()
        db.replicate()
        vec, row = _both(db, "SELECT COUNT(*) FROM m")
        assert vec.rows == row.rows == [(32,)]


class TestTopNFusion:
    def _plan(self, db, sql):
        return db.prepare(sql)

    def test_order_by_limit_plans_topn(self):
        db = _make_db()
        plan = self._plan(db, "SELECT id, v FROM m ORDER BY v DESC LIMIT 3")
        assert isinstance(plan.root, TopN)

    def test_hidden_key_limit_plans_topn_below_strip(self):
        db = _make_db()
        plan = self._plan(db, "SELECT id FROM m ORDER BY v DESC LIMIT 3")
        assert isinstance(plan.root.children()[0], TopN)

    def test_order_by_without_limit_keeps_sort(self):
        db = _make_db()
        plan = self._plan(db, "SELECT id, v FROM m ORDER BY v DESC")
        assert isinstance(plan.root, Sort)

    def test_limit_without_order_keeps_limit(self):
        db = _make_db()
        plan = self._plan(db, "SELECT id FROM m LIMIT 3")
        assert isinstance(plan.root, Limit)

    def test_topn_matches_full_sort(self):
        db = _make_db()
        _fill(db, 200)
        result = _routed(
            db, "SELECT id, v FROM m ORDER BY v DESC, id LIMIT 7")
        with db.connect() as conn:
            full = conn.execute("SELECT id, v FROM m ORDER BY v DESC, id")
            conn.commit()
        assert result.rows == full.rows[:7]

    def test_topn_stability_on_duplicate_keys(self):
        db = _make_db()
        with db.connect() as conn:
            for i in range(50):
                conn.execute(
                    "INSERT INTO m (id, grp, v, note) VALUES (?, 0, ?, 'd')",
                    (i, float(i % 3)))
            conn.commit()
        with db.connect() as conn:
            limited = conn.execute(
                "SELECT id FROM m ORDER BY v LIMIT 10")
            everything = conn.execute("SELECT id FROM m ORDER BY v")
            conn.commit()
        assert limited.rows == everything.rows[:10]

    def test_topn_nulls_and_directions(self):
        db = _make_db()
        with db.connect() as conn:
            rows = [(1, 5.0), (2, None), (3, 1.0), (4, None), (5, 9.0)]
            for i, v in rows:
                conn.execute(
                    "INSERT INTO m (id, grp, v, note) VALUES (?, 0, ?, 'n')",
                    (i, v))
            conn.commit()
        with db.connect() as conn:
            asc = conn.execute("SELECT id FROM m ORDER BY v LIMIT 3")
            desc = conn.execute("SELECT id FROM m ORDER BY v DESC LIMIT 3")
            conn.commit()
        # ascending: NULLs first; descending: NULLs last
        assert asc.rows == [(2,), (4,), (3,)]
        assert desc.rows == [(5,), (1,), (3,)]

    def test_topn_limit_zero(self):
        db = _make_db()
        _fill(db, 10)
        with db.connect() as conn:
            result = conn.execute("SELECT id FROM m ORDER BY v LIMIT 0")
            conn.commit()
        assert result.rows == []

    def test_topn_counts_sort_rows(self):
        db = _make_db()
        _fill(db, 100)
        with db.connect() as conn:
            result = conn.execute("SELECT id FROM m ORDER BY v LIMIT 5")
            conn.commit()
        assert result.stats.sort_rows == 100

    def test_ranked_aggregate_counts_every_group(self):
        """A Q5-shaped aggregate ranked by its own SUM under a LIMIT emits
        only the groups that can reach it; ``sort_rows`` still counts every
        group, as the ORDER BY ranks them all."""
        db = _make_db()
        db.execute_ddl("CREATE TABLE g (grp INT PRIMARY KEY, label VARCHAR)")
        with db.connect() as conn:
            for grp in range(8):
                conn.execute("INSERT INTO g (grp, label) VALUES (?, ?)",
                             (grp, f"g{grp % 3}"))
            conn.commit()
        _fill(db, 512)
        vec, row = _both(db, "SELECT m.note, g.label, SUM(m.v) AS s "
                         "FROM m JOIN g ON g.grp = m.grp "
                         "GROUP BY m.note, g.label ORDER BY s DESC LIMIT 10")
        assert vec.stats.vectorized and not row.stats.vectorized
        assert vec.rows == row.rows and len(vec.rows) == 10
        for result in (vec, row):
            assert result.stats.sort_rows == result.stats.groups == 512


class TestSelectiveStatementsStayOnRowStore:
    def test_pk_lookup_sees_fresh_rows_under_replication_lag(self):
        """Selective routed statements (PK/index paths) read the fresh row
        store in the row pipeline; the planner must not substitute a stale
        replica scan for them."""
        db = _make_db()
        _fill(db, 10)            # replicated
        with db.connect() as conn:
            conn.execute(
                "INSERT INTO m (id, grp, v, note) VALUES (12, 1, 2.0, 'new')")
            conn.commit()
        assert db.replication_lag() > 0  # row 12 not in the replica yet
        vec, row = _both(db, "SELECT note FROM m WHERE id = 12")
        assert vec.rows == row.rows == [("new",)]
        assert not vec.stats.vectorized  # fell back: PK access path

    def test_seq_scan_statements_still_vectorize(self):
        db = _make_db()
        _fill(db, 10)
        vec, _row = _both(db, "SELECT COUNT(*) FROM m WHERE grp = 0")
        assert vec.stats.vectorized  # grp is not a key: genuine full scan

    def test_invalid_segment_rows_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            Database(with_columnar=True, columnar_segment_rows=0)


class TestShortCircuitParity:
    def test_and_guard_protects_division(self):
        """AND must not evaluate its right operand on rows the left operand
        already excluded — exactly like the row pipeline."""
        db = _make_db()
        with db.connect() as conn:
            for i, g in ((1, 0), (2, 5), (3, 0), (4, 2)):
                conn.execute(
                    "INSERT INTO m (id, grp, v, note) VALUES (?, ?, 1.0, 'g')",
                    (i, g))
            conn.commit()
        db.replicate()
        vec, row = _both(
            db, "SELECT id FROM m WHERE grp <> 0 AND 100 / grp > 10 "
                "ORDER BY id")
        assert vec.rows == row.rows == [(2,), (4,)]

    def test_or_guard_protects_division(self):
        db = _make_db()
        with db.connect() as conn:
            for i, g in ((1, 0), (2, 5)):
                conn.execute(
                    "INSERT INTO m (id, grp, v, note) VALUES (?, ?, 1.0, 'g')",
                    (i, g))
            conn.commit()
        db.replicate()
        vec, row = _both(
            db, "SELECT id FROM m WHERE grp = 0 OR 100 / grp > 10 "
                "ORDER BY id")
        assert vec.rows == row.rows == [(1,), (2,)]

    def test_in_list_item_laziness(self):
        """IN-list items after a match must not be evaluated — the row
        pipeline's any() stops early, so expression items stay lazy."""
        db = _make_db()
        with db.connect() as conn:
            for i, g, v in ((1, 0, 0.0), (2, 5, 2.0)):
                conn.execute(
                    "INSERT INTO m (id, grp, v, note) VALUES (?, ?, ?, 'g')",
                    (i, g, v))
            conn.commit()
        db.replicate()
        vec, row = _both(
            db, "SELECT id FROM m WHERE grp IN (0, 100 / v) ORDER BY id")
        assert vec.rows == row.rows == [(1,)]


def _replica(partitions: int, n: int) -> Database:
    """``m`` with ``n`` rows, replicated and sealed into 64-row segments."""
    db = Database(with_columnar=True, columnar_segment_rows=64,
                  partitions=partitions)
    db.execute_ddl("CREATE TABLE m (id INT PRIMARY KEY, grp INT, v DOUBLE, "
                   "note VARCHAR(16))")
    db.bulk_load("m", [(i, i % 7, float(i), "n") for i in range(n)])
    db.replicate()
    db.columnar.compact(force=True)
    return db


class TestRoutedScanBoundaries:
    """What a routed scan charges and evaluates when its consumer stops
    early or it has nothing to read: what the row tree does."""

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_a_limit_charges_the_rows_it_pulled(self, partitions):
        db = _replica(partitions, 1000)
        charged = {}
        for sql, read in (("SELECT id FROM m LIMIT 3", 3),
                          ("SELECT id, note FROM m WHERE grp = 2 LIMIT 2", 2),
                          ("SELECT COUNT(*) FROM m", 1000)):
            vec, row = _both(db, sql)
            assert vec.stats.vectorized and not row.stats.vectorized
            assert vec.rows == row.rows
            assert vec.stats.rows_columnar == {"m": read}, sql
            charged[read] = row.stats.rows_columnar["m"]
        # the pushed grp = 2 charges the rows that passed it, the row
        # tree's scan the rows it read to find them
        assert charged[3] == 3 and charged[2] > 2 and charged[1000] == 1000

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_an_empty_replica_binds_no_pushed_constant(self, partitions):
        """As the row filter does: ``1 / 0`` is evaluated at the first
        live row, so an empty replica answers, routed or not."""
        db = _replica(partitions, 0)
        sql = "SELECT id FROM m WHERE grp > 1 / 0"
        vec, row = _both(db, sql)
        assert vec.rows == row.rows == []
        for vectorized in (True, False):
            db.executor.use_vectorized = vectorized
            try:
                assert db.query(sql).rows == []
            finally:
                db.executor.use_vectorized = True
        db.bulk_load("m", [(0, 1, 0.5, "a")])
        db.replicate()
        for vectorized in (True, False):
            db.executor.use_vectorized = vectorized
            try:
                with pytest.raises(ExecutionError, match="division by zero"):
                    _routed(db, sql)
            finally:
                db.executor.use_vectorized = True


class TestBatchContainer:
    def test_rows_round_trip(self):
        batch = Batch([[1, 2, 3], ["a", "b", "c"]])
        assert len(batch) == 3
        assert list(batch.rows()) == [(1, "a"), (2, "b"), (3, "c")]
        assert batch.row(1) == (2, "b")

    def test_take_gathers(self):
        batch = Batch([[1, 2, 3, 4], [10, 20, 30, 40]])
        taken = batch.take([0, 3])
        assert list(taken.rows()) == [(1, 10), (4, 40)]


class TestStatsPlumbing:
    def test_counters_merge(self):
        from repro.sql.result import ExecStats

        a, b = ExecStats(), ExecStats()
        b.vectorized = True
        b.batches_scanned = 3
        b.segments_pruned = 2
        a.merge(b)
        assert a.vectorized and a.batches_scanned == 3
        assert a.segments_pruned == 2

    def test_row_store_routing_never_vectorizes(self):
        db = _make_db()
        _fill(db, 10)
        with db.connect() as conn:
            result = conn.execute("SELECT COUNT(*) FROM m")  # not routed
            conn.commit()
        assert not result.stats.vectorized
        assert result.stats.batches_scanned == 0

    def test_bulk_load_commits_at_the_next_timestamp(self):
        db = _make_db()
        before = db.txn_manager.current_ts()
        db.bulk_load("m", [(1000, 1, 1.0, "bulk")])
        assert db.txn_manager.current_ts() == before + 1
        db.replicate()
        result = _routed(db, "SELECT note FROM m WHERE id = 1000")
        assert result.rows == [("bulk",)]
