"""Delta–main columnar replica: ordered compaction, merge-on-read scans,
order-aware planning (sort elision), span pruning, encoded group-by — each
checked against the row oracle on the same replica — and this layer's view
of the three-workload parity matrix."""

from random import Random

import pytest

from repro.db import Database
from repro.sql.planner import SortedMerge


def _make_db(segment_rows=64, partitions=1, sort_keys=None):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  sort_keys=sort_keys, partitions=partitions)
    db.execute_ddl(
        "CREATE TABLE t (a INT, b INT, tag VARCHAR(8), v DOUBLE, "
        "id INT PRIMARY KEY)")
    return db


def _fill_shuffled(db, n=256, seed=11):
    """Insert rows in an order decorrelated from the primary key, so the
    sorted engine's physical layout actually differs from arrival order."""
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
# storage level: merge mechanics
# ---------------------------------------------------------------------------

class TestOrderedCompaction:
    def test_merge_sorts_main_on_primary_key(self):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 256)
        table = db.columnar.table("t")
        main = table.main_segments()
        assert len(main) == 4 and all(s.encoded for s in main)
        assert table.delta_live_rows() == 0
        # ids are globally sorted across main segments
        ids = [row[4] for _pk, row in table.scan()]
        assert ids == sorted(ids)
        # the sorted zone-map index is disjoint and ordered
        assert table.main_lo == sorted(table.main_lo)
        assert all(lo <= hi for lo, hi in zip(table.main_lo, table.main_hi))
        assert all(table.main_hi[i] <= table.main_lo[i + 1]
                   for i in range(len(main) - 1))

    def test_small_delta_stays_unmerged_until_threshold(self):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 128)
        table = db.columnar.table("t")
        merges_before = table.compactions
        with db.connect() as conn:
            conn.execute(
                "INSERT INTO t (a, b, tag, v, id) VALUES (9, 9, 'd', 1.0, 500)")
            conn.commit()
        db.replicate()
        # one pending row is far below the merge threshold
        assert table.compactions == merges_before
        assert table.delta_live_rows() == 1
        # forcing merges it anyway
        assert db.columnar.compact(force=True) > 0
        assert table.delta_live_rows() == 0

    def test_update_supersedes_main_version(self, routed):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 128)
        table = db.columnar.table("t")
        with db.connect() as conn:
            conn.execute("UPDATE t SET v = 999.0 WHERE id = 40")
            conn.commit()
        db.replicate()
        # newest version lives in the delta; the main slot is dead
        assert table.delta_live_rows() == 1
        assert table.row_count == 128
        assert routed(db, "SELECT v FROM t WHERE id = 40").rows == [(999.0,)]
        assert routed(db, "SELECT COUNT(*) FROM t WHERE v = 999.0").rows \
            == [(1,)]
        # after a forced merge the row is back in (sorted) main
        db.columnar.compact(force=True)
        assert table.delta_live_rows() == 0
        assert routed(db, "SELECT v FROM t WHERE id = 40").rows == [(999.0,)]

    def test_delete_then_reinsert_through_merge(self, routed):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 128)
        table = db.columnar.table("t")
        with db.connect() as conn:
            conn.execute("DELETE FROM t WHERE id = 7")
            conn.commit()
        db.replicate()
        assert table.row_count == 127
        with db.connect() as conn:
            conn.execute(
                "INSERT INTO t (a, b, tag, v, id) VALUES (0, 0, 'x', -1.0, 7)")
            conn.commit()
        db.replicate()
        assert table.row_count == 128
        assert routed(db, "SELECT v FROM t WHERE id = 7").rows == [(-1.0,)]
        db.columnar.compact(force=True)
        # merge reclaimed the dead slot: live rows only, still sorted
        ids = [row[4] for _pk, row in table.scan()]
        assert ids == sorted(ids) and len(ids) == 128
        assert routed(db, "SELECT v FROM t WHERE id = 7").rows == [(-1.0,)]

    def test_sort_keys_typo_raises_at_replication(self):
        from repro.errors import CatalogError

        db = _make_db(sort_keys={"tt": ("b",)})   # no table named TT
        with db.connect() as conn:
            conn.execute(
                "INSERT INTO t (a, b, tag, v, id) VALUES (0, 0, 'x', 1.0, 1)")
            conn.commit()
        with pytest.raises(CatalogError, match="TT"):
            db.replicate()

    def test_custom_sort_key(self):
        db = _make_db(segment_rows=32, sort_keys={"t": ("b", "id")})
        _fill_shuffled(db, 128)
        table = db.columnar.table("t")
        rows = [row for _pk, row in table.scan()]
        keys = [(row[1], row[4]) for row in rows]
        assert keys == sorted(keys)

    def test_compaction_counters_and_drain(self):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 256)
        segments, rows = db.columnar.drain_compaction_stats()
        assert segments == 4 and rows == 256
        assert db.columnar.drain_compaction_stats() == (0, 0)
        assert db.columnar.segments_merged_total() == 4
        assert db.columnar.delta_rows_pending() == 0


# ---------------------------------------------------------------------------
# scan level: span pruning and merge-on-read
# ---------------------------------------------------------------------------

class TestSpanPruning:
    def test_range_on_sort_key_binds_contiguous_span(self, routed):
        db = _make_db(segment_rows=32)
        _fill_shuffled(db, 256)
        result = routed(db, "SELECT COUNT(*) FROM t WHERE id BETWEEN ? AND ?",
                         (64, 95))
        assert result.rows == [(32,)]
        # 8 main segments of 32 sorted ids: the range lands in one
        assert result.stats.segments_pruned >= 6
        assert result.stats.batches_scanned <= 2

    def test_span_with_custom_sort_key(self, routed):
        db = _make_db(segment_rows=32, sort_keys={"t": ("a", "id")})
        _fill_shuffled(db, 256)
        # equality on the first sort column + range on the second
        result = routed(
            db, "SELECT COUNT(*) FROM t WHERE a = 3 AND id < 120")
        assert result.rows == [(24,)]
        assert result.stats.segments_pruned > 0

    def test_empty_span_prunes_everything(self, routed):
        db = _make_db(segment_rows=32)
        _fill_shuffled(db, 256)
        result = routed(db, "SELECT COUNT(*) FROM t WHERE id > 100000")
        assert result.rows == [(0,)]
        assert result.stats.batches_scanned == 0

    def test_delta_rows_pending_counted(self, routed):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 128)
        with db.connect() as conn:
            for i in (300, 301):
                conn.execute(
                    "INSERT INTO t (a, b, tag, v, id) "
                    "VALUES (0, 0, 'd', 0.0, ?)", (i,))
            conn.commit()
        db.replicate()
        result = routed(db, "SELECT COUNT(*) FROM t")
        assert result.rows == [(130,)]
        assert result.stats.delta_rows_pending == 2


class TestMergeOnRead:
    """ORDER BY/LIMIT correctness when results span delta and main."""

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_order_by_spans_delta_and_main(self, routed, partitions):
        db = _make_db(segment_rows=64, partitions=partitions)
        _fill_shuffled(db, 200)
        # interleave fresh rows (kept in the delta: below the merge
        # threshold) with merged history
        with db.connect() as conn:
            for i in (205, 3, 77, 130, 199):
                conn.execute("DELETE FROM t WHERE id = ?", (i,))
            for i in (205, 3, 77, 130, 401, 402):
                conn.execute(
                    "INSERT INTO t (a, b, tag, v, id) "
                    "VALUES (0, 1, 'm', ?, ?)", (float(i), i))
            conn.commit()
        db.replicate()
        assert db.columnar.delta_rows_pending() > 0
        for sql, params in [
            ("SELECT id, v FROM t ORDER BY id", ()),
            ("SELECT id FROM t ORDER BY id LIMIT 9", ()),
            ("SELECT id FROM t WHERE id >= ? ORDER BY id LIMIT 6", (70,)),
            ("SELECT id, tag FROM t WHERE v < 60 ORDER BY id", ()),
            ("SELECT id FROM t ORDER BY id DESC LIMIT 4", ()),
        ]:
            got = routed(db, sql, params)
            expected = routed(db, sql, params, vectorized=False)
            assert got.rows == expected.rows, sql
        # the ascending prefix queries rode the scan order
        elided = routed(db, "SELECT id FROM t ORDER BY id LIMIT 9")
        assert elided.stats.sort_elided == 1
        assert elided.stats.sort_rows == 0
        # DESC rides the reverse scan; parity with the sorting row plan
        # is asserted above
        desc = routed(db, "SELECT id FROM t ORDER BY id DESC LIMIT 4")
        assert desc.stats.sort_elided == 1
        assert desc.stats.sort_rows == 0


# ---------------------------------------------------------------------------
# planner level: order awareness
# ---------------------------------------------------------------------------

def _vectorized_root(db, sql):
    return db.prepare(sql).vectorized_root


class TestSortElisionPlanning:
    def test_pk_prefix_order_by_elides_sort(self):
        db = _make_db()
        root = _vectorized_root(db, "SELECT id, v FROM t ORDER BY id")
        assert isinstance(root, SortedMerge)

    def test_limit_becomes_streaming(self):
        db = _make_db()
        root = _vectorized_root(db, "SELECT id FROM t ORDER BY id LIMIT 5")
        assert isinstance(root, SortedMerge) and root.limit == 5

    def test_descending_elides_via_reverse_scan(self):
        db = _make_db()
        root = _vectorized_root(db, "SELECT id FROM t ORDER BY id DESC")
        assert isinstance(root, SortedMerge) and root.reverse

    def test_mixed_directions_keep_sort(self):
        db = _make_db(sort_keys={"t": ("b", "id")})
        root = _vectorized_root(db,
                                "SELECT b, id FROM t ORDER BY b DESC, id")
        assert not isinstance(root, SortedMerge)

    def test_non_prefix_keeps_sort(self):
        db = _make_db()
        root = _vectorized_root(db, "SELECT id, v FROM t ORDER BY v")
        assert not isinstance(root, SortedMerge)

    def test_custom_sort_key_prefix_elides(self):
        db = _make_db(sort_keys={"t": ("b", "id")})
        assert isinstance(
            _vectorized_root(db, "SELECT b, id FROM t ORDER BY b"),
            SortedMerge)
        assert isinstance(
            _vectorized_root(db, "SELECT b, id FROM t ORDER BY b, id"),
            SortedMerge)
        assert not isinstance(
            _vectorized_root(db, "SELECT b, id FROM t ORDER BY id"),
            SortedMerge)

    def test_distinct_keeps_sort(self):
        db = _make_db()
        root = _vectorized_root(db, "SELECT DISTINCT id FROM t ORDER BY id")
        assert not isinstance(root, SortedMerge)


# ---------------------------------------------------------------------------
# encoded group-by
# ---------------------------------------------------------------------------

class TestEncodedGroupBy:
    def test_dict_group_by_matches_plain_and_skips_decode(self, routed):
        enc = _make_db(segment_rows=64)
        _fill_shuffled(enc, 256)
        sql = ("SELECT tag, COUNT(*), SUM(v), AVG(v) FROM t "
               "GROUP BY tag ORDER BY tag")
        a = routed(enc, sql)
        b = routed(enc, sql, vectorized=False)
        assert a.rows == b.rows
        assert a.stats.groups_global_coded > 0
        # the group-key column never materialises
        assert a.stats.columns_decoded <= a.stats.batches_scanned
        assert b.stats.groups_global_coded == 0

    def test_dict_group_by_with_nulls(self, routed):
        enc = _make_db(segment_rows=32)
        rng = Random(3)
        ids = list(range(128))
        rng.shuffle(ids)
        with enc.connect() as conn:
            for i in ids:
                conn.execute(
                    "INSERT INTO t (a, b, tag, v, id) VALUES (?, ?, ?, ?, ?)",
                    (0, 0, None if i % 5 == 0 else f"k{i % 2}", 1.0, i))
            conn.commit()
        enc.replicate()
        result = routed(
            enc, "SELECT tag, COUNT(*) FROM t GROUP BY tag ORDER BY tag")
        assert result.rows == [(None, 26), ("k0", 51), ("k1", 51)]

    def test_grouped_emission_order_unchanged(self, routed):
        """Without ORDER BY, groups emit in first-encounter scan order —
        identical between the code path and the row oracle's value path."""
        enc = _make_db(segment_rows=64)
        _fill_shuffled(enc, 256)
        sql = "SELECT tag, COUNT(*) FROM t GROUP BY tag"
        coded = routed(enc, sql)
        assert coded.stats.groups_global_coded > 0
        assert coded.rows == routed(enc, sql, vectorized=False).rows


class TestRunGroupedFold:
    """Grouping by an RLE sort-key column folds run-at-a-time: one group
    lookup per run, one bulk fold over each argument's span.  INT keys
    never dictionary-encode, so ``groups_coded > 0`` on these queries can
    only come from the run fold."""

    def _filled(self):
        db = _make_db(segment_rows=64, sort_keys={"t": ("a", "id")})
        _fill_shuffled(db, 256)
        db.columnar.compact(force=True)
        return db

    def test_rle_group_by_matches_plain(self, routed):
        enc = self._filled()
        table = enc.columnar.table("t")
        assert any(type(s.columns[0]).__name__ == "RLEColumn"
                   for s in table.main_segments())
        sql = ("SELECT a, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), "
               "MAX(b), MIN(tag) FROM t GROUP BY a ORDER BY a")
        a = routed(enc, sql)
        b = routed(enc, sql, vectorized=False)
        assert a.rows == b.rows
        assert a.stats.groups_coded > 0
        assert b.stats.groups_coded == 0

    def test_rle_group_by_with_null_keys_and_args(self, routed):
        enc = _make_db(segment_rows=64, sort_keys={"t": ("a", "id")})
        with enc.connect() as conn:
            for i in range(256):
                conn.execute(
                    "INSERT INTO t (a, b, tag, v, id) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (None if i < 64 else i // 64, i % 7, f"g{i % 3}",
                     None if i % 13 == 0 else float(i) * 0.5, i))
            conn.commit()
        enc.replicate()
        enc.columnar.compact(force=True)
        sql = ("SELECT a, COUNT(*), COUNT(v), SUM(v), AVG(v), "
               "COUNT(DISTINCT b), SUM(DISTINCT b) FROM t "
               "GROUP BY a ORDER BY a")
        a = routed(enc, sql)
        b = routed(enc, sql, vectorized=False)
        assert a.rows == b.rows
        assert a.rows[0][0] is None and a.rows[0][1] == 64
        assert a.stats.groups_coded > 0

    def test_run_grouped_computed_args(self, routed):
        enc = self._filled()
        sql = ("SELECT a, SUM(v * 2.0), AVG(b + 1), COUNT(v + b) FROM t "
               "GROUP BY a ORDER BY a")
        a = routed(enc, sql)
        assert a.stats.groups_coded > 0
        assert a.rows == routed(enc, sql, vectorized=False).rows

    def test_run_grouped_emission_order_unchanged(self, routed):
        """Without ORDER BY, groups emit in first-encounter scan order —
        identical between the run fold and the row oracle's value path."""
        enc = self._filled()
        sql = "SELECT a, COUNT(*), SUM(v) FROM t GROUP BY a"
        coded = routed(enc, sql)
        assert coded.stats.groups_coded > 0
        assert coded.rows == routed(enc, sql, vectorized=False).rows


# ---------------------------------------------------------------------------
# cost model: compaction cost and merge-on-read demand
# ---------------------------------------------------------------------------

class TestDeltaMainCosting:
    def test_compaction_cost_scales_with_rows(self):
        from repro.sim.costmodel import CostModel, CostParams

        model = CostModel(CostParams())
        assert model.compaction_cost(0) == 0.0
        assert model.compaction_cost(10_000) == \
            10_000 * model.params.compaction_per_row

    def test_delta_overlay_rows_add_scan_demand(self):
        from repro.sim.costmodel import CostModel, CostParams
        from repro.sql.result import ExecStats

        model = CostModel(CostParams())
        clean = ExecStats()
        lagging = ExecStats()
        lagging.delta_rows_pending = 5000
        assert model.statement_cost(lagging).cpu > \
            model.statement_cost(clean).cpu

    def test_sort_elision_drops_sort_demand(self):
        from repro.sim.costmodel import CostModel, CostParams
        from repro.sql.result import ExecStats

        model = CostModel(CostParams())
        sorted_stats = ExecStats()
        sorted_stats.sort_elided = 1          # no sort_rows recorded
        full_sort = ExecStats()
        full_sort.sort_rows = 20_000
        assert model.statement_cost(sorted_stats).cpu < \
            model.statement_cost(full_sort).cpu


# ---------------------------------------------------------------------------
# workload level: this layer's view of the parity matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload_name", ["subenchmark", "fibenchmark",
                                           "tabenchmark"])
@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestWorkloadParity:
    """Byte parity with the row oracle is asserted inside the shared
    ``workload_parity`` cell (tests/conftest.py); what this suite adds is
    that ordered compaction built the main the scans read."""

    def test_fully_replicated_byte_identical(self, workload_parity,
                                             workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=False)
        assert cell.segments_merged > 0, \
            "ordered compaction never engaged — shrink segment_rows"

    def test_mid_replication_byte_identical(self, workload_parity,
                                            workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=True)
        assert cell.segments_merged > 0
