"""Real-thread execution, DESC ordering over the replica and merges
into a non-empty main.

The thread-safety promise under test: a writer thread may ``replicate()``
— WAL apply plus the inline compaction it triggers — while other threads
scan the replica, and every scan sees one consistent snapshot.
"""

import threading
from random import Random

import pytest

from repro.db import Database


def _make_db(partitions=1, segment_rows=32):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  partitions=partitions)
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


# ---------------------------------------------------------------------------
# real-thread stress: scans racing WAL apply + inline compaction
# ---------------------------------------------------------------------------

class TestConcurrentStress:
    def test_scans_during_apply_and_compaction(self, routed):
        db = _make_db(partitions=4, segment_rows=16)
        _fill(db, 128)
        merged_before = db.columnar.segments_merged_total()
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
        # the writer's replicate() compacted inline during the race: the
        # compaction swap, not only the apply, raced the scans
        assert db.columnar.segments_merged_total() > merged_before
        final = routed(db, "SELECT COUNT(*) FROM t").scalar()
        assert final >= 128


# ---------------------------------------------------------------------------
# DESC orderings over sorted main segments and the delta tail
# ---------------------------------------------------------------------------

class TestReverseOrderedScan:
    def test_desc_over_sorted_main(self, routed):
        db = _make_db()
        _fill(db, 256)
        result = routed(db, "SELECT id, v FROM t ORDER BY id DESC")
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

    def test_desc_with_delta_overlay(self, routed):
        db = _make_db(segment_rows=64)
        _fill(db, 192)
        # now leave fresh rows unmerged in the delta (below the merge
        # threshold) so the ordering spans main and the delta tail
        with db.connect() as conn:
            conn.execute(
                "INSERT INTO t (a, b, tag, v, id) VALUES (?, ?, ?, ?, ?)",
                (15, 3, "g1", 250.0, 500))
            for i in (40, 141, 7):
                conn.execute("UPDATE t SET v = ? WHERE id = ?",
                             (float(i) * 10.0, i))
            conn.commit()
        db.replicate()
        table = db.columnar.table_partitions("t")[0]
        assert table.delta_live_rows() > 0, \
            "delta unexpectedly merged — the overlay case is not covered"
        result = routed(db, "SELECT id FROM t ORDER BY id DESC")
        ids = [row[0] for row in result.rows]
        assert ids == sorted(ids, reverse=True)
        assert ids[0] == 500 and len(ids) == 193

    def test_mixed_directions_still_sort(self, routed):
        db = _make_db()
        _fill(db, 64)
        result = routed(db, "SELECT a, id FROM t ORDER BY a DESC, id ASC")
        rows = result.rows
        assert rows == sorted(rows, key=lambda r: (-r[0], r[1]))


# ---------------------------------------------------------------------------
# merges into a non-empty main
# ---------------------------------------------------------------------------

class TestMergeIntoMain:
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
