"""Storage layer: MVCC row store, indexes, WAL, columnar replica, buffer pool."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import INT, VARCHAR, Column, IndexDef, Table
from repro.db import Database
from repro.errors import IntegrityError
from repro.storage import (
    BufferPool,
    ColumnarReplica,
    ColumnarTable,
    OrderedIndex,
    RowStorage,
    TableStore,
    WriteAheadLog,
)
from repro.storage.columnstore import _encoding_stats
from repro.storage.rowstore import iter_pairs
from repro.storage.wal import LogOp
from repro.workloads import make_workload


def make_table():
    return Table(
        "t",
        [Column("id", INT, nullable=False), Column("v", VARCHAR(32))],
        primary_key=("id",),
    )


class TestOrderedIndex:
    def test_insert_lookup_remove(self):
        idx = OrderedIndex("o", ("v",))
        idx.insert(("a",), (1,))
        idx.insert(("a",), (2,))
        assert idx.lookup(("a",)) == {(1,), (2,)}
        idx.remove(("a",), (1,))
        assert idx.lookup(("a",)) == {(2,)}
        idx.remove(("a",), (2,))
        assert idx.lookup(("a",)) == set()
        assert list(idx.prefix_scan(())) == []

    def test_remove_missing_is_noop(self):
        idx = OrderedIndex("o", ("v",))
        idx.remove(("nope",), (1,))  # must not raise

    def test_prefix_scan(self):
        idx = OrderedIndex("o", ("a", "b"))
        for a in range(3):
            for b in range(3):
                idx.insert((a, b), (a * 10 + b,))
        keys = [key for key, _pks in idx.prefix_scan((1,))]
        assert keys == [(1, 0), (1, 1), (1, 2)]

    def test_remove_cleans_sorted_keys(self):
        idx = OrderedIndex("o", ("a",))
        idx.insert((1,), (1,))
        idx.insert((1,), (2,))
        idx.remove((1,), (1,))
        assert [k for k, _ in idx.prefix_scan((1,))] == [(1,)]
        idx.remove((1,), (2,))
        assert list(idx.prefix_scan((1,))) == []

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 1000)), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_prefix_scan_matches_filter(self, triples):
        idx = OrderedIndex("o", ("a", "b"))
        for a, b, pk in triples:
            idx.insert((a, b), (pk,))
        for a in range(6):
            keys = [key for key, _pks in idx.prefix_scan((a,))]
            assert keys == sorted({(x, b) for x, b, _pk in triples if x == a})
            got = set()
            for key, pks in idx.prefix_scan((a,)):
                assert pks == idx.lookup(key)
                got |= pks
            assert got == {(pk,) for x, _b, pk in triples if x == a}


class TestMVCCTableStore:
    def test_insert_visible_after_commit_ts(self):
        store = TableStore(make_table())
        store.install((1,), (1, "a"), commit_ts=5)
        assert store.get((1,), 4) is None
        assert store.get((1,), 5) == (1, "a")
        assert store.get((1,), 100) == (1, "a")

    def test_update_creates_version_chain(self):
        store = TableStore(make_table())
        store.install((1,), (1, "a"), commit_ts=5)
        store.install((1,), (1, "b"), commit_ts=10)
        assert store.get((1,), 7) == (1, "a")
        assert store.get((1,), 10) == (1, "b")
        assert store.version_count() == 2

    def test_delete_is_tombstone(self):
        store = TableStore(make_table())
        store.install((1,), (1, "a"), commit_ts=5)
        store.install((1,), None, commit_ts=8)
        assert store.get((1,), 7) == (1, "a")
        assert store.get((1,), 8) is None
        assert store.row_count == 0

    def test_delete_of_missing_row_raises(self):
        store = TableStore(make_table())
        with pytest.raises(IntegrityError):
            store.install((1,), None, commit_ts=5)

    def test_scan_respects_snapshot(self):
        store = TableStore(make_table())
        store.install((1,), (1, "a"), commit_ts=5)
        store.install((2,), (2, "b"), commit_ts=10)
        assert dict(store.scan(5)) == {(1,): (1, "a")}
        assert dict(store.scan(10)) == {(1,): (1, "a"), (2,): (2, "b")}

    def test_pk_prefix_scan(self):
        table = Table("c", [Column("a", INT), Column("b", INT),
                            Column("v", INT)], primary_key=("a", "b"))
        store = TableStore(table)
        for a in range(3):
            for b in range(3):
                store.install((a, b), (a, b, a * b), commit_ts=1)
        rows = dict(iter_pairs(store.pk_prefix_scan_batches((1,), ts=1)))
        assert set(rows) == {(1, 0), (1, 1), (1, 2)}

    def test_secondary_index_maintained_on_update(self):
        store = TableStore(make_table())
        store.create_index(IndexDef("iv", "t", ("v",)))
        store.install((1,), (1, "a"), commit_ts=1)
        store.install((1,), (1, "b"), commit_ts=2)
        assert store.index("iv").lookup(("b",)) == {(1,)}
        assert store.index("iv").lookup(("a",)) == set()

    def test_index_backfilled_at_creation(self):
        store = TableStore(make_table())
        store.install((1,), (1, "a"), commit_ts=1)
        store.create_index(IndexDef("iv", "t", ("v",)))
        assert store.index("iv").lookup(("a",)) == {(1,)}

    def test_garbage_collect_keeps_visible_versions(self):
        store = TableStore(make_table())
        store.install((1,), (1, "a"), commit_ts=1)
        store.install((1,), (1, "b"), commit_ts=2)
        store.install((1,), (1, "c"), commit_ts=3)
        reclaimed = store.garbage_collect(watermark_ts=3)
        assert reclaimed == 2
        assert store.get((1,), 3) == (1, "c")

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_snapshot_reads_are_stable(self, ops):
        """A row read at timestamp T always returns the same value no matter
        how many later versions are installed — the MVCC core invariant."""
        store = TableStore(make_table())
        expected_at = {}
        ts = 0
        live = set()
        for pk_val, payload in ops:
            ts += 1
            pk = (pk_val,)
            store.install(pk, (pk_val, str(payload)), ts)
            live.add(pk)
            expected_at[ts] = {p: store.get(p, ts) for p in live}
        for snapshot_ts, snapshot in expected_at.items():
            for pk, value in snapshot.items():
                assert store.get(pk, snapshot_ts) == value


class TestWALAndColumnar:
    def test_wal_lsn_sequence(self):
        wal = WriteAheadLog()
        r1 = wal.append(1, "t", (1,), LogOp.INSERT, (1, "a"))
        r2 = wal.append(2, "t", (2,), LogOp.INSERT, (2, "b"))
        assert (r1.lsn, r2.lsn) == (0, 1)
        assert wal.head_lsn == 2
        assert [r.lsn for r in wal.read_from(1)] == [1]

    def test_replica_applies_and_tracks_lag(self):
        storage = RowStorage()
        table = make_table()
        storage.register_table(table)
        replica = ColumnarReplica()
        replica.register_table(table)
        storage.apply_commit(1, [("t", (1,), (1, "a"), LogOp.INSERT)])
        storage.apply_commit(2, [("t", (2,), (2, "b"), LogOp.INSERT)])
        assert replica.total_lag(storage.wals) == 2
        applied = replica.apply_from_partitions(storage.wals)
        assert applied == 2
        assert replica.total_lag(storage.wals) == 0
        assert dict(replica.table_partitions("t")[0].scan()) == {
            (1,): (1, "a"), (2,): (2, "b")}

    def test_replica_update_and_delete(self):
        storage = RowStorage()
        table = make_table()
        storage.register_table(table)
        replica = ColumnarReplica()
        replica.register_table(table)
        storage.apply_commit(1, [("t", (1,), (1, "a"), LogOp.INSERT)])
        storage.apply_commit(2, [("t", (1,), (1, "b"), LogOp.UPDATE)])
        storage.apply_commit(3, [("t", (1,), None, LogOp.DELETE)])
        replica.apply_from_partitions(storage.wals, limit=2)
        assert dict(replica.table_partitions("t")[0].scan()) == {(1,): (1, "b")}
        replica.apply_from_partitions(storage.wals)
        assert dict(replica.table_partitions("t")[0].scan()) == {}
        assert replica.table_partitions("t")[0].row_count == 0


class TestColumnarSegments:
    def _table(self, segment_rows=4) -> ColumnarTable:
        replica = ColumnarReplica(segment_rows=segment_rows)
        replica.register_table(make_table())
        return replica.table_partitions("t")[0]

    def test_rows_split_across_segments(self):
        store = self._table(segment_rows=4)
        for i in range(10):
            store.apply((i,), (i, f"v{i}"), LogOp.INSERT)
        assert len(store.segments()) == 3
        assert [s.live_count for s in store.segments()] == [4, 4, 2]
        assert store.row_count == 10

    def test_delete_then_reinsert_reuses_slot(self):
        store = self._table(segment_rows=4)
        for i in range(8):
            store.apply((i,), (i, f"v{i}"), LogOp.INSERT)
        store.apply((2,), None, LogOp.DELETE)
        assert store.row_count == 7
        assert store.segments()[0].live_count == 3
        store.apply((2,), (2, "new"), LogOp.INSERT)
        assert len(store.segments()) == 2  # no fresh slot allocated
        assert store.row_count == 8
        assert dict(store.scan())[(2,)] == (2, "new")

    def test_zone_maps_track_min_max(self):
        store = self._table(segment_rows=4)
        for i, v in enumerate((7, 3, 9, 5)):
            store.apply((i,), (v, f"v{i}"), LogOp.INSERT)
        segment = store.segments()[0]
        assert (segment.mins[0], segment.maxs[0]) == (3, 9)
        assert segment.may_contain(0, 3, 4)
        assert not segment.may_contain(0, 10, None)
        assert not segment.may_contain(0, None, 2)

    def test_zone_maps_widen_never_narrow(self):
        store = self._table(segment_rows=4)
        store.apply((1,), (5, "a"), LogOp.INSERT)
        store.apply((1,), (100, "b"), LogOp.UPDATE)
        segment = store.segments()[0]
        # old bound is kept (conservative superset), new value included
        assert segment.mins[0] == 5 and segment.maxs[0] == 100
        store.apply((1,), None, LogOp.DELETE)
        assert segment.maxs[0] == 100  # deletes never narrow

    def test_zone_map_disabled_on_mixed_types(self):
        store = self._table(segment_rows=4)
        store.apply((1,), (5, "a"), LogOp.INSERT)
        store.apply((2,), ("oops", "b"), LogOp.INSERT)
        segment = store.segments()[0]
        assert not segment.zone_valid[0]
        assert segment.may_contain(0, 0, 0)  # pruning is off, never skips

    def test_all_null_column_prunes_everything(self):
        store = self._table(segment_rows=4)
        store.apply((1,), (None, "a"), LogOp.INSERT)
        segment = store.segments()[0]
        assert not segment.may_contain(0, 1, 10)

    def test_encoding_stats_count_one_snapshot(self):
        """A merge publishing between two reads of the segment lists must
        not pair one list's total with another's encoded count."""
        replica = ColumnarReplica(segment_rows=4)
        replica.register_table(make_table())
        store = replica.table_partitions("t")[0]
        for i in range(8):
            store.apply((i,), (i, f"v{i}"), LogOp.INSERT)
        store.compact(force=True)
        read_segments = store._all_segments

        def merge_lands_after_read():
            segments = read_segments()
            store._all_segments = read_segments
            for i in range(8, 16):
                store.apply((i,), (i, f"v{i}"), LogOp.INSERT)
            store.compact(force=True)
            return segments

        store._all_segments = merge_lands_after_read
        stats = replica.encoding_stats()
        assert (stats["segments_encoded"], stats["segments_total"]) == (2, 2)
        assert replica.encoding_stats()["segments_total"] == 4


# encoding accounting of a loaded replica with main segments, a delta tail
# and warm sketches; a change meant to move it edits these and says why.
# ``sketch_bytes`` is the one cached state of the run of 7 fully-live
# segments; it is reported beside ``bytes_encoded``, never inside it, so
# ``compression_ratio`` and the scan cost factor read segment and shared
# dictionary bytes alone
PINNED_REPLICA_ACCOUNTING = {
    1: ({'segments_total': 23, 'segments_encoded': 16,
         'bytes_plain': 30034680, 'bytes_encoded': 18528524,
         'bytes_saved': 11506156,
         'encodings': {'plain': 46, 'dict': 14, 'rle': 48, 'native': 60},
         'dict_code_bytes': 229376, 'dicts_shared': 14,
         'shared_dict_bytes': 4065360, 'shared_dicts_total': 38,
         'shared_dicts_demoted': 14, 'sketch_bytes': 1424,
         'sketches_cached': 1, 'sketch_evictions': 0,
         'compression_ratio': 1.6209969018579138},
        0.6169043252666584,
        {'segments_total': 9, 'segments_encoded': 8,
         'bytes_plain': 11474752, 'bytes_encoded': 3174572,
         'encodings': {'plain': 7, 'dict': 1, 'rle': 32, 'native': 40},
         'dict_code_bytes': 16384, 'dicts_shared': 1,
         'bytes_saved': 8300180}),
    4: ({'segments_total': 23, 'segments_encoded': 12,
         'bytes_plain': 26388560, 'bytes_encoded': 15983988,
         'bytes_saved': 10404572,
         'encodings': {'plain': 40, 'dict': 12, 'rle': 48, 'native': 48},
         'dict_code_bytes': 196608, 'dicts_shared': 12,
         'shared_dict_bytes': 3496016, 'shared_dicts_total': 38,
         'shared_dicts_demoted': 12, 'sketch_bytes': 1424,
         'sketches_cached': 1, 'sketch_evictions': 0,
         'compression_ratio': 1.6509371753782598},
        0.605716568088596,
        {'segments_total': 9, 'segments_encoded': 8,
         'bytes_plain': 11474752, 'bytes_encoded': 3174572,
         'encodings': {'plain': 7, 'dict': 1, 'rle': 32, 'native': 40},
         'dict_code_bytes': 16384, 'dicts_shared': 1,
         'bytes_saved': 8300180}),
}


@pytest.mark.parametrize("partitions", [1, 4])
def test_replica_encoding_accounting_pinned(partitions):
    """Replica-wide and per-partition ``encoding_stats()`` and the
    simulator's ``scan_cost_factor()`` over main segments, a delta tail
    and warm sketches."""
    db = Database(with_columnar=True, partitions=partitions)
    make_workload("subenchmark").install(db, Random(3))
    with db.connect() as conn:
        keys = conn.execute("SELECT ol_w_id, ol_d_id, ol_o_id, ol_number "
                            "FROM order_line WHERE ol_number = 1").rows[:200]
        for key in keys:
            conn.execute("UPDATE order_line SET ol_quantity = ol_quantity "
                         "+ 1 WHERE ol_w_id = ? AND ol_d_id = ? "
                         "AND ol_o_id = ? AND ol_number = ?", key)
        conn.commit()
    db.replicate()          # 200 delta rows: below a segment, no merge
    assert sum(part.delta_live_rows()
               for part in db.columnar.table_partitions("order_line")) > 0
    sql = "SELECT ol_w_id, SUM(ol_amount) FROM order_line GROUP BY ol_w_id"
    for _ in range(2):      # cold builds the sketches, warm hits them
        with db.connect() as conn:
            warm = conn.execute(sql, (), route_columnar=True)
            conn.commit()
    assert warm.stats.sketches_hit > 0
    replica, factor, order_line = PINNED_REPLICA_ACCOUNTING[partitions]
    assert db.columnar.encoding_stats() == replica
    assert db.columnar.scan_cost_factor() == factor
    part = next(p for p in db.columnar.table_partitions("order_line")
                if p.row_count)
    assert _encoding_stats(part.segments()) == order_line


class TestBufferPool:
    def test_hit_after_miss(self):
        pool = BufferPool(capacity_pages=4)
        assert pool.access(("t", 0)) is False
        assert pool.access(("t", 0)) is True
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_lru_eviction_order(self):
        pool = BufferPool(capacity_pages=2)
        pool.access(("t", 0))
        pool.access(("t", 1))
        pool.access(("t", 0))      # page 0 is now most recently used
        pool.access(("t", 2))      # evicts page 1
        assert ("t", 0) in pool
        assert ("t", 1) not in pool
        assert ("t", 2) in pool

    def test_scan_flood_evicts_everything(self):
        """A scan larger than the pool leaves only its own tail resident —
        the mechanism by which analytics evict the OLTP working set."""
        pool = BufferPool(capacity_pages=8)
        for p in range(8):
            pool.access(("hot", p))
        misses = pool.access_range("big", 0, 100)
        assert misses == 100
        assert all(("hot", p) not in pool for p in range(8))
        assert len(pool) == 8  # tail of the scan

    def test_small_range_counts_hits(self):
        pool = BufferPool(capacity_pages=16)
        assert pool.access_range("t", 0, 4) == 4
        assert pool.access_range("t", 0, 4) == 0

    def test_rows_to_pages(self):
        pool = BufferPool(capacity_pages=4, rows_per_page=64)
        assert pool.rows_to_pages(0) == 0
        assert pool.rows_to_pages(1) == 1
        assert pool.rows_to_pages(64) == 1
        assert pool.rows_to_pages(65) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferPool(0)
