"""Worker-pool execution: background compaction, the calling-thread
statement contract, reverse ordered scans and segment-granular merges.

The contract under test everywhere: ``Database(workers=N)`` produces
byte-identical results to the sequential ``workers=0`` baseline — the pool
only moves ordered compaction off the query path, and every statement
operator runs on the thread that executes the statement.
"""

import threading
from random import Random

import pytest

from repro.db import Database
from repro.exec import default_workers
from repro.sql.planner import SortedMerge
from repro.sql.vectorized import BatchAggregate, BatchRows


def _make_db(workers=0, partitions=1, segment_rows=32):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  partitions=partitions, workers=workers)
    db.execute_ddl(
        "CREATE TABLE t (a INT, b INT, tag VARCHAR(8), v DOUBLE, "
        "id INT PRIMARY KEY)")
    return db


def _fill(db, n=256, seed=11):
    rng = Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    with db.connect() as conn:
        for i in ids:
            conn.execute(
                "INSERT INTO t (a, b, tag, v, id) VALUES (?, ?, ?, ?, ?)",
                (i // 32, i % 7, f"g{i % 3}", float(i) * 0.5, i))
        conn.commit()
    db.replicate()


class TestWorkerPool:
    def test_default_workers_positive(self):
        assert default_workers() >= 1


# ---------------------------------------------------------------------------
# pooled statements: byte parity and stats parity vs workers=0
# ---------------------------------------------------------------------------

_QUERIES = [
    ("SELECT b, COUNT(*), SUM(v), AVG(a) FROM t GROUP BY b ORDER BY b", ()),
    ("SELECT tag, MIN(id), MAX(v) FROM t GROUP BY tag ORDER BY tag", ()),
    ("SELECT id, v FROM t WHERE a >= ? ORDER BY id", (3,)),
    ("SELECT id, tag FROM t ORDER BY id", ()),
    ("SELECT id FROM t ORDER BY id DESC", ()),
    ("SELECT COUNT(*) FROM t WHERE b = ?", (2,)),
    # nested uncorrelated subqueries: _run_subplan re-enters the subquery
    # lock on the same thread, so this deadlocks unless the lock is reentrant
    ("SELECT id FROM t WHERE v > (SELECT AVG(v) FROM t WHERE v < "
     "(SELECT MAX(v) FROM t)) ORDER BY id", ()),
]


@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestPooledStatementParity:
    def test_rows_identical_and_stats_consistent(self, routed, partitions):
        seq = _make_db(workers=0, partitions=partitions)
        par = _make_db(workers=4, partitions=partitions)
        _fill(seq, 256)
        _fill(par, 256)
        par.quiesce()
        for sql, params in _QUERIES:
            r0 = routed(seq, sql, params)
            r1 = routed(par, sql, params)
            assert r1.rows == r0.rows, sql
            assert r1.columns == r0.columns
            # physical-work counters agree: background compaction moves
            # merge work off the query path, it does not change what is
            # scanned or aggregated
            assert r1.stats.agg_input_rows == r0.stats.agg_input_rows, sql
            assert r1.stats.groups == r0.stats.groups, sql
            assert r1.stats.partial_aggregates == \
                r0.stats.partial_aggregates, sql
        par.pool.shutdown()

    def test_pool_counters_flow(self, routed, partitions):
        # matched replicas: the sequential arm is force-compacted too, so
        # a pooled statement's counters must equal the sequential ones
        # field for field — the pool adds no counter of its own
        seq = _make_db(workers=0, partitions=partitions)
        par = _make_db(workers=4, partitions=partitions)
        _fill(seq, 256)
        _fill(par, 256)
        seq.columnar.compact(force=True)
        par.quiesce()
        assert par.bg_compactions_total >= 1
        sql = "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b"
        r0 = routed(seq, sql)
        r1 = routed(par, sql)
        assert r1.rows == r0.rows
        assert r1.stats == r0.stats
        assert r1.stats.scatter_partitions == partitions
        par.pool.shutdown()


class TestStatementsRunOnTheCallingThread:
    """The pool never runs a statement operator: partition folds and
    partition row streams drain on the thread that executes the
    statement, with answers byte-identical to ``workers=0``."""

    SHAPES = [
        # grouped full-scan aggregate: one partial fold per partition
        ("SELECT b, COUNT(*), SUM(v), AVG(a) FROM t GROUP BY b", ()),
        # filtered projection: batches flattened by BatchRows
        ("SELECT id, v, tag FROM t WHERE b < ?", (4,)),
        # sort-elided ORDER BY: SortedMerge k-way merges partition streams
        ("SELECT id, tag, v FROM t ORDER BY id", ()),
    ]

    def test_every_operator_runs_on_the_caller(self, routed, monkeypatch):
        seq = _make_db(workers=0, partitions=8)
        par = _make_db(workers=4, partitions=8)
        _fill(seq, 256)
        _fill(par, 256)
        par.quiesce()
        threads: list = []
        fold, rows_of = BatchAggregate._fold, BatchRows._rows_of

        def recording_fold(self, batches, ctx, groups):
            threads.append(threading.get_ident())
            return fold(self, batches, ctx, groups)

        def recording_rows_of(batches):
            # a generator: records the thread that *drains* the stream
            threads.append(threading.get_ident())
            yield from rows_of(batches)

        monkeypatch.setattr(BatchAggregate, "_fold", recording_fold)
        monkeypatch.setattr(BatchRows, "_rows_of",
                            staticmethod(recording_rows_of))
        try:
            for sql, params in self.SHAPES:
                expect = routed(seq, sql, params)
                threads.clear()
                got = routed(par, sql, params)
                assert repr(got.rows) == repr(expect.rows), sql
                assert got.stats.scatter_partitions == 8, sql
                assert threads, f"{sql}: the recorded hook never ran"
                assert set(threads) == {threading.get_ident()}, sql
            assert routed(par, self.SHAPES[2][0]).stats.sort_elided == 1
        finally:
            par.pool.shutdown()


# ---------------------------------------------------------------------------
# workload-level byte parity: pooled vs sequential, full and mid-lag
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload_name", ["subenchmark", "fibenchmark",
                                           "tabenchmark"])
@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestPooledWorkloadParity:
    """The parity matrix's ``workers`` axis: the pooled cell (itself
    checked cold and warm against the row oracle on its own replica) must
    answer exactly what the sequential cell answered."""

    def test_fully_replicated_byte_identical(self, workload_parity,
                                             workload_name, partitions):
        par = workload_parity(workload_name, partitions, lagged=False,
                              workers=4)
        seq = workload_parity(workload_name, partitions, lagged=False)
        assert par.outputs == seq.outputs

    def test_mid_replication_byte_identical(self, workload_parity,
                                            workload_name, partitions):
        par = workload_parity(workload_name, partitions, lagged=True,
                              workers=4)
        seq = workload_parity(workload_name, partitions, lagged=True)
        assert par.outputs == seq.outputs


# ---------------------------------------------------------------------------
# background compaction off the query path
# ---------------------------------------------------------------------------

class TestBackgroundCompaction:
    def test_replicate_schedules_merge_off_path(self):
        db = _make_db(workers=2, partitions=2)
        _fill(db, 200)
        assert db.bg_compactions_total >= 1
        db.quiesce()
        # the background merge drained every delta into sorted main
        for part in db.columnar.table_partitions("t"):
            assert part.delta_live_rows() == 0
        assert db.columnar.segments_merged_total() > 0
        db.pool.shutdown()

    def test_sequential_baseline_unchanged(self):
        db = _make_db(workers=0, partitions=2)
        assert db.pool is None
        _fill(db, 200)
        assert db.bg_compactions_total == 0
        db.quiesce()  # no-op without a pool

    def test_bg_counter_reaches_run_stats(self):
        db = _make_db(workers=2, partitions=2)
        before = db.bg_compactions_total
        _fill(db, 64)
        assert db.bg_compactions_total > before
        db.quiesce()
        db.pool.shutdown()


# ---------------------------------------------------------------------------
# real-thread stress: scans racing WAL apply + background compaction
# ---------------------------------------------------------------------------

class TestConcurrentStress:
    def test_scans_during_apply_and_compaction(self, routed):
        db = _make_db(workers=4, partitions=4, segment_rows=16)
        _fill(db, 128)
        db.quiesce()
        stop = threading.Event()
        errors: list = []

        def writer():
            try:
                i = 1000
                while not stop.is_set():
                    with db.connect() as conn:
                        for _ in range(8):
                            conn.execute(
                                "INSERT INTO t (a, b, tag, v, id) "
                                "VALUES (?, ?, ?, ?, ?)",
                                (i // 32, i % 7, f"g{i % 3}",
                                 float(i) * 0.5, i))
                            i += 1
                        conn.commit()
                    db.replicate()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(30):
                result = routed(
                    db, "SELECT COUNT(*), SUM(id), SUM(v) FROM t")
                count, id_sum, v_sum = result.rows[0]
                # every committed row satisfies v == id / 2: any torn read
                # of a segment mid-swap would break the invariant
                assert count >= 128
                assert v_sum == pytest.approx(id_sum * 0.5)
                ordered = routed(db, "SELECT id FROM t ORDER BY id")
                ids = [row[0] for row in ordered.rows]
                assert ids == sorted(ids) and len(ids) == len(set(ids))
        finally:
            stop.set()
            thread.join()
        assert not errors
        db.quiesce()
        final = routed(db, "SELECT COUNT(*) FROM t").scalar()
        assert final >= 128
        db.pool.shutdown()

    def test_no_lost_stat_counts_under_pool(self, routed):
        seq = _make_db(workers=0, partitions=8)
        par = _make_db(workers=4, partitions=8)
        _fill(seq, 256)
        _fill(par, 256)
        par.quiesce()
        sql = "SELECT a, b, COUNT(*), SUM(v) FROM t GROUP BY a, b " \
              "ORDER BY a, b"
        r0 = routed(seq, sql)
        r1 = routed(par, sql)
        assert r1.rows == r0.rows
        # additive counters accumulated across four worker threads match
        # the sequential totals exactly — nothing dropped, nothing doubled
        assert r1.stats.rows_columnar == r0.stats.rows_columnar
        assert r1.stats.agg_input_rows == r0.stats.agg_input_rows
        assert r1.stats.batches_scanned == r0.stats.batches_scanned
        assert r1.stats.groups == r0.stats.groups
        assert r1.stats.partitions_scanned == r0.stats.partitions_scanned
        par.pool.shutdown()


# ---------------------------------------------------------------------------
# reverse ordered scans: DESC sort elision
# ---------------------------------------------------------------------------

class TestReverseOrderedScan:
    def _plan_root(self, db, sql):
        plan, _hit, _e, _c = db._prepare(sql)
        return plan.vectorized_root

    def test_desc_elides_sort(self, routed):
        db = _make_db()
        _fill(db, 256)
        root = self._plan_root(db, "SELECT id, v FROM t ORDER BY id DESC")
        assert isinstance(root, SortedMerge) and root.reverse
        result = routed(db, "SELECT id, v FROM t ORDER BY id DESC")
        assert result.stats.sort_elided == 1
        assert [row[0] for row in result.rows] == list(range(255, -1, -1))

    def test_desc_parity_with_arrival_engine(self, routed):
        srt = _make_db(partitions=2)
        _fill(srt, 200)
        for sql, params in [
            ("SELECT id, tag FROM t ORDER BY id DESC", ()),
            ("SELECT id FROM t WHERE a >= ? ORDER BY id DESC", (2,)),
            ("SELECT id, v FROM t ORDER BY id DESC LIMIT 7", ()),
        ]:
            expect = routed(srt, sql, params, vectorized=False)
            got = routed(srt, sql, params)
            assert got.rows == expect.rows, sql
            assert got.stats.sort_elided == 1
            assert expect.stats.sort_elided == 0

    def test_desc_with_delta_overlay(self, routed):
        db = _make_db(segment_rows=64)
        _fill(db, 192)
        # now leave fresh rows unmerged in the delta (below the merge
        # threshold) so the reverse scan must interleave the overlay
        with db.connect() as conn:
            conn.execute(
                "INSERT INTO t (a, b, tag, v, id) VALUES (?, ?, ?, ?, ?)",
                (15, 3, "g1", 250.0, 500))
            for i in (40, 141, 7):
                conn.execute("UPDATE t SET v = ? WHERE id = ?",
                             (float(i) * 10.0, i))
            conn.commit()
        db.replicate()
        table = db.columnar.table("t")
        assert table.delta_live_rows() > 0, \
            "delta unexpectedly merged — the overlay case is not covered"
        result = routed(db, "SELECT id FROM t ORDER BY id DESC")
        ids = [row[0] for row in result.rows]
        assert ids == sorted(ids, reverse=True)
        assert ids[0] == 500 and len(ids) == 193
        assert result.stats.sort_elided == 1

    def test_mixed_directions_still_sort(self, routed):
        db = _make_db()
        _fill(db, 64)
        root = self._plan_root(
            db, "SELECT a, id FROM t ORDER BY a DESC, id ASC")
        assert not isinstance(root, SortedMerge)
        result = routed(db, "SELECT a, id FROM t ORDER BY a DESC, id ASC")
        assert result.stats.sort_elided == 0
        rows = result.rows
        assert rows == sorted(rows, key=lambda r: (-r[0], r[1]))

    def test_desc_pooled_parity(self, routed):
        seq = _make_db(workers=0, partitions=4)
        par = _make_db(workers=4, partitions=4)
        _fill(seq, 256)
        _fill(par, 256)
        par.quiesce()
        sql = "SELECT id, tag, v FROM t ORDER BY id DESC"
        assert routed(par, sql).rows == routed(seq, sql).rows
        par.pool.shutdown()


# ---------------------------------------------------------------------------
# segment-granular merge: narrow deltas rewrite only overlapping segments
# ---------------------------------------------------------------------------

class TestSegmentGranularMerge:
    def test_narrow_delta_rewrites_only_overlap(self):
        db = _make_db(segment_rows=32)
        _fill(db, 256)  # 8 sorted main segments of 32 rows
        table = db.columnar.table("t")
        main_before = list(table.main_segments())
        assert len(main_before) == 8
        merged_before = table.segments_merged_total
        # touch keys inside one segment's range only
        with db.connect() as conn:
            for i in (70, 71):
                conn.execute("UPDATE t SET v = ? WHERE id = ?",
                             (float(i) * 10.0, i))
            conn.commit()
        db.replicate()
        table.compact(force=True)
        main_after = list(table.main_segments())
        # untouched prefix and suffix segments survive by identity: the
        # merge spliced new segments into the overlap region only
        rewritten = table.segments_merged_total - merged_before
        assert 0 < rewritten < len(main_before)
        identical = sum(1 for s in main_after if any(s is o
                                                     for o in main_before))
        assert identical >= len(main_before) - rewritten
        assert table.delta_live_rows() == 0

    def test_disjoint_append_does_not_rewrite_main(self):
        db = _make_db(segment_rows=32)
        _fill(db, 128)
        table = db.columnar.table("t")
        main_before = list(table.main_segments())
        with db.connect() as conn:
            for i in range(1000, 1032):
                conn.execute(
                    "INSERT INTO t (a, b, tag, v, id) VALUES (?, ?, ?, ?, ?)",
                    (i // 32, i % 7, f"g{i % 3}", float(i) * 0.5, i))
            conn.commit()
        db.replicate()
        table.compact(force=True)
        main_after = table.main_segments()
        # keys beyond the old high end: every old segment survives
        for old in main_before:
            assert any(s is old for s in main_after)
        assert table.row_count == 160

    def test_bounds_stay_consistent_after_merges(self, routed):
        db = _make_db(segment_rows=16, partitions=2)
        _fill(db, 200)
        rng = Random(5)
        for round_no in range(3):
            with db.connect() as conn:
                for _ in range(12):
                    i = rng.randrange(200)
                    conn.execute("UPDATE t SET b = ? WHERE id = ?",
                                 (round_no, i))
                conn.commit()
            db.replicate()
        db.columnar.compact(force=True)
        for part in db.columnar.table_partitions("t"):
            main = part.main_segments()
            assert len(part.main_lo) == len(main) == len(part.main_hi)
            for lo, hi in zip(part.main_lo, part.main_hi):
                assert lo <= hi
            flat = [key for pair in zip(part.main_lo, part.main_hi)
                    for key in pair]
            assert flat == sorted(flat)
        # point lookups in the columnar path still find every row
        result = routed(db, "SELECT COUNT(*) FROM t")
        assert result.scalar() == 200

    def test_query_parity_after_narrow_merges(self, routed):
        srt = _make_db(segment_rows=32)
        _fill(srt, 192)
        with srt.connect() as conn:
            for i in (10, 60, 61, 150):
                conn.execute("UPDATE t SET v = -1.0 WHERE id = ?", (i,))
            conn.commit()
        srt.replicate()
        merged_before = srt.columnar.segments_merged_total()
        srt.columnar.compact(force=True)
        assert srt.columnar.segments_merged_total() > merged_before
        for sql in ["SELECT id, v FROM t ORDER BY id",
                    "SELECT b, COUNT(*), SUM(v) FROM t GROUP BY b ORDER BY b",
                    "SELECT COUNT(*) FROM t WHERE v < 0"]:
            # the row store is the independent witness here: the replica
            # is fully caught up, so it must hold exactly these rows
            with srt.connect() as conn:
                expect = conn.execute(sql)
                conn.commit()
            assert routed(srt, sql).rows == expect.rows, sql
