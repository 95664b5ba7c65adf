"""Delta–main columnar replica: ordered compaction, merge-on-read scans,
order-aware planning (sort elision), span pruning, encoded group-by, and
three-workload byte-parity of the sorted engine against the arrival-order
(PR 4) engine across partitions, fully replicated and mid-lag."""

from random import Random

import pytest

from repro.db import Database
from repro.sql.planner import SortedMerge
from repro.workloads import make_workload


def _make_db(segment_rows=64, sorted_compaction=True, encoding=True,
             partitions=1, sort_keys=None):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  columnar_encoding=encoding,
                  sorted_compaction=sorted_compaction,
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


def _routed(db, sql, params=()):
    with db.connect() as conn:
        result = conn.execute(sql, params, route_columnar=True)
        conn.commit()
    return result


# ---------------------------------------------------------------------------
# storage level: merge mechanics
# ---------------------------------------------------------------------------

class TestOrderedCompaction:
    def test_merge_sorts_main_on_primary_key(self):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 256)
        table = db.columnar.table("t")
        assert table.sorted_mode
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

    def test_update_supersedes_main_version(self):
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
        assert _routed(db, "SELECT v FROM t WHERE id = 40").rows == [(999.0,)]
        assert _routed(db, "SELECT COUNT(*) FROM t WHERE v = 999.0").rows \
            == [(1,)]
        # after a forced merge the row is back in (sorted) main
        db.columnar.compact(force=True)
        assert table.delta_live_rows() == 0
        assert _routed(db, "SELECT v FROM t WHERE id = 40").rows == [(999.0,)]

    def test_delete_then_reinsert_through_merge(self):
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
        assert _routed(db, "SELECT v FROM t WHERE id = 7").rows == [(-1.0,)]
        db.columnar.compact(force=True)
        # merge reclaimed the dead slot: live rows only, still sorted
        ids = [row[4] for _pk, row in table.scan()]
        assert ids == sorted(ids) and len(ids) == 128
        assert _routed(db, "SELECT v FROM t WHERE id = 7").rows == [(-1.0,)]

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
    def test_range_on_sort_key_binds_contiguous_span(self):
        db = _make_db(segment_rows=32)
        _fill_shuffled(db, 256)
        result = _routed(db, "SELECT COUNT(*) FROM t WHERE id BETWEEN ? AND ?",
                         (64, 95))
        assert result.rows == [(32,)]
        # 8 main segments of 32 sorted ids: the range lands in one
        assert result.stats.segments_pruned >= 6
        assert result.stats.batches_scanned <= 2

    def test_span_with_custom_sort_key(self):
        db = _make_db(segment_rows=32, sort_keys={"t": ("a", "id")})
        _fill_shuffled(db, 256)
        # equality on the first sort column + range on the second
        result = _routed(
            db, "SELECT COUNT(*) FROM t WHERE a = 3 AND id < 120")
        assert result.rows == [(24,)]
        assert result.stats.segments_pruned > 0

    def test_empty_span_prunes_everything(self):
        db = _make_db(segment_rows=32)
        _fill_shuffled(db, 256)
        result = _routed(db, "SELECT COUNT(*) FROM t WHERE id > 100000")
        assert result.rows == [(0,)]
        assert result.stats.batches_scanned == 0

    def test_delta_rows_pending_counted(self):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 128)
        with db.connect() as conn:
            for i in (300, 301):
                conn.execute(
                    "INSERT INTO t (a, b, tag, v, id) "
                    "VALUES (0, 0, 'd', 0.0, ?)", (i,))
            conn.commit()
        db.replicate()
        result = _routed(db, "SELECT COUNT(*) FROM t")
        assert result.rows == [(130,)]
        assert result.stats.delta_rows_pending == 2


class TestMergeOnRead:
    """ORDER BY/LIMIT correctness when results span delta and main."""

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_order_by_spans_delta_and_main(self, partitions):
        db = _make_db(segment_rows=64, partitions=partitions)
        unsorted = _make_db(segment_rows=64, sorted_compaction=False,
                            partitions=partitions)
        for engine in (db, unsorted):
            _fill_shuffled(engine, 200)
            # interleave fresh rows (kept in the delta of the sorted
            # engine: below the merge threshold) with merged history
            with engine.connect() as conn:
                for i in (205, 3, 77, 130, 199):
                    conn.execute("DELETE FROM t WHERE id = ?", (i,))
                for i in (205, 3, 77, 130, 401, 402):
                    conn.execute(
                        "INSERT INTO t (a, b, tag, v, id) "
                        "VALUES (0, 1, 'm', ?, ?)", (float(i), i))
                conn.commit()
            engine.replicate()
        assert db.columnar.delta_rows_pending() > 0
        for sql, params in [
            ("SELECT id, v FROM t ORDER BY id", ()),
            ("SELECT id FROM t ORDER BY id LIMIT 9", ()),
            ("SELECT id FROM t WHERE id >= ? ORDER BY id LIMIT 6", (70,)),
            ("SELECT id, tag FROM t WHERE v < 60 ORDER BY id", ()),
            ("SELECT id FROM t ORDER BY id DESC LIMIT 4", ()),
        ]:
            got = _routed(db, sql, params)
            expected = _routed(unsorted, sql, params)
            assert got.rows == expected.rows, sql
        # the ascending prefix queries rode the scan order
        elided = _routed(db, "SELECT id FROM t ORDER BY id LIMIT 9")
        assert elided.stats.sort_elided == 1
        assert elided.stats.sort_rows == 0
        # DESC rides the reverse scan (sort elided since the worker-pool
        # PR); parity with the sorting engine is asserted above
        desc = _routed(db, "SELECT id FROM t ORDER BY id DESC LIMIT 4")
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

    def test_unsorted_engine_never_elides(self):
        db = _make_db(sorted_compaction=False)
        root = _vectorized_root(db, "SELECT id FROM t ORDER BY id")
        assert not isinstance(root, SortedMerge)

    def test_distinct_keeps_sort(self):
        db = _make_db()
        root = _vectorized_root(db, "SELECT DISTINCT id FROM t ORDER BY id")
        assert not isinstance(root, SortedMerge)

    def test_plan_cache_keyed_on_engine_flags(self):
        """A/B toggles on a shared Database must re-plan, not serve the
        other engine's physical plan."""
        db = _make_db()
        sql = "SELECT id FROM t ORDER BY id"
        sorted_plan = db.prepare(sql)
        assert isinstance(sorted_plan.vectorized_root, SortedMerge)
        db.planner.sorted_scan = False
        unsorted_plan = db.prepare(sql)
        assert unsorted_plan is not sorted_plan
        assert not isinstance(unsorted_plan.vectorized_root, SortedMerge)
        db.planner.sorted_scan = True
        assert db.prepare(sql) is sorted_plan
        # encoded-pushdown flips are isolated the same way
        db.planner.encoded_pushdown = False
        assert db.prepare(sql) is not sorted_plan


# ---------------------------------------------------------------------------
# encoded group-by
# ---------------------------------------------------------------------------

class TestEncodedGroupBy:
    def test_dict_group_by_matches_plain_and_skips_decode(self):
        enc = _make_db(segment_rows=64)
        plain = _make_db(segment_rows=64, encoding=False)
        _fill_shuffled(enc, 256)
        _fill_shuffled(plain, 256)
        sql = ("SELECT tag, COUNT(*), SUM(v), AVG(v) FROM t "
               "GROUP BY tag ORDER BY tag")
        a = _routed(enc, sql)
        b = _routed(plain, sql)
        assert a.rows == b.rows
        # shared dictionaries (the default since PR 8) supersede the
        # per-segment coded fold with the global-code fold
        assert a.stats.groups_coded + a.stats.groups_global_coded > 0
        # the group-key column never materialises
        assert a.stats.columns_decoded <= a.stats.batches_scanned
        assert b.stats.groups_coded + b.stats.groups_global_coded == 0

    def test_dict_group_by_with_nulls(self):
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
        result = _routed(
            enc, "SELECT tag, COUNT(*) FROM t GROUP BY tag ORDER BY tag")
        assert result.rows == [(None, 26), ("k0", 51), ("k1", 51)]

    def test_grouped_emission_order_unchanged(self):
        """Without ORDER BY, groups emit in first-encounter scan order —
        identical between the code path and the generic value path."""
        enc = _make_db(segment_rows=64)
        _fill_shuffled(enc, 256)
        coded = _routed(enc, "SELECT tag, COUNT(*) FROM t GROUP BY tag")
        assert coded.stats.groups_coded + coded.stats.groups_global_coded > 0
        enc.planner.encoded_pushdown = False  # new plan; generic fold
        generic = _routed(enc, "SELECT tag, COUNT(*) FROM t GROUP BY tag")
        assert coded.rows == generic.rows


class TestRunGroupedFold:
    """Grouping by an RLE sort-key column folds run-at-a-time: one group
    lookup per run, one bulk fold over each argument's span.  INT keys
    never dictionary-encode, so ``groups_coded > 0`` on these queries can
    only come from the run fold."""

    def _filled(self, **kwargs):
        db = _make_db(segment_rows=64, sort_keys={"t": ("a", "id")},
                      **kwargs)
        _fill_shuffled(db, 256)
        db.columnar.compact(force=True)
        return db

    def test_rle_group_by_matches_plain(self):
        enc = self._filled()
        plain = self._filled(encoding=False)
        table = enc.columnar.table("t")
        assert any(type(s.columns[0]).__name__ == "RLEColumn"
                   for s in table.main_segments())
        sql = ("SELECT a, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), "
               "MAX(b), MIN(tag) FROM t GROUP BY a ORDER BY a")
        a = _routed(enc, sql)
        b = _routed(plain, sql)
        assert a.rows == b.rows
        assert a.stats.groups_coded > 0
        assert b.stats.groups_coded == 0

    def test_rle_group_by_with_null_keys_and_args(self):
        dbs = []
        for encoding in (True, False):
            db = _make_db(segment_rows=64, encoding=encoding,
                          sort_keys={"t": ("a", "id")})
            with db.connect() as conn:
                for i in range(256):
                    conn.execute(
                        "INSERT INTO t (a, b, tag, v, id) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (None if i < 64 else i // 64, i % 7, f"g{i % 3}",
                         None if i % 13 == 0 else float(i) * 0.5, i))
                conn.commit()
            db.replicate()
            db.columnar.compact(force=True)
            dbs.append(db)
        enc, plain = dbs
        sql = ("SELECT a, COUNT(*), COUNT(v), SUM(v), AVG(v), "
               "COUNT(DISTINCT b), SUM(DISTINCT b) FROM t "
               "GROUP BY a ORDER BY a")
        a = _routed(enc, sql)
        b = _routed(plain, sql)
        assert a.rows == b.rows
        assert a.rows[0][0] is None and a.rows[0][1] == 64
        assert a.stats.groups_coded > 0

    def test_run_grouped_computed_args(self):
        enc = self._filled()
        plain = self._filled(encoding=False)
        sql = ("SELECT a, SUM(v * 2.0), AVG(b + 1), COUNT(v + b) FROM t "
               "GROUP BY a ORDER BY a")
        a = _routed(enc, sql)
        assert a.stats.groups_coded > 0
        assert a.rows == _routed(plain, sql).rows

    def test_run_grouped_emission_order_unchanged(self):
        """Without ORDER BY, groups emit in first-encounter scan order —
        identical between the run fold and the generic value path."""
        enc = self._filled()
        coded = _routed(enc, "SELECT a, COUNT(*), SUM(v) FROM t GROUP BY a")
        assert coded.stats.groups_coded > 0
        enc.planner.encoded_pushdown = False  # new plan; generic fold
        generic = _routed(enc, "SELECT a, COUNT(*), SUM(v) FROM t GROUP BY a")
        assert coded.rows == generic.rows


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
# workload-level byte-parity: sorted vs arrival-order engines
# ---------------------------------------------------------------------------

def _build_workload_db(name, scale, seed, sorted_compaction, partitions):
    db = Database(with_columnar=True, columnar_segment_rows=64,
                  sorted_compaction=sorted_compaction, partitions=partitions)
    workload = make_workload(name)
    workload.install(db, Random(seed), scale, with_foreign_keys=False)
    return db, workload


def _mutate(db, workload, seed, rounds=2):
    from repro.core.session import run_transaction

    rng = Random(seed)
    with db.connect() as conn:
        for _ in range(rounds):
            for profile in workload.oltp_transactions():
                run_transaction(conn, "oltp", profile.name, profile.program,
                                rng)


def _run_analytical(db, workload, seed):
    outputs = []
    for profile in workload.analytical_queries():
        rng = Random(f"{profile.name}:{seed}")
        with db.connect() as conn:
            class _S:
                def execute(self, sql, params=()):
                    result = conn.execute(sql, params, route_columnar=True)
                    outputs.append((profile.name, result.columns,
                                    result.rows))
                    return result

                def query_scalar(self, sql, params=()):
                    return self.execute(sql, params).scalar()
            profile.program(_S(), rng)
            conn.commit()
    return outputs


@pytest.mark.parametrize("workload_name", ["subenchmark", "fibenchmark",
                                           "tabenchmark"])
@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestWorkloadParity:
    def test_fully_replicated_byte_identical(self, workload_name, partitions):
        srt, workload = _build_workload_db(workload_name, 0.05, 7, True,
                                           partitions)
        arr, _ = _build_workload_db(workload_name, 0.05, 7, False,
                                    partitions)
        srt.replicate()
        arr.replicate()
        assert srt.columnar.segments_merged_total() > 0, \
            "ordered compaction never engaged — shrink segment_rows"
        assert _run_analytical(srt, workload, seed=7) == \
            _run_analytical(arr, workload, seed=7)

    def test_mid_replication_byte_identical(self, workload_name, partitions):
        srt, workload = _build_workload_db(workload_name, 0.05, 9, True,
                                           partitions)
        arr, _ = _build_workload_db(workload_name, 0.05, 9, False,
                                    partitions)
        _mutate(srt, workload, seed=13)
        _mutate(arr, workload, seed=13)
        lag = srt.replication_lag()
        assert lag == arr.replication_lag() and lag > 1
        assert srt.replicate(limit=lag // 2) == arr.replicate(limit=lag // 2)
        assert srt.replication_lag() > 0
        assert _run_analytical(srt, workload, seed=9) == \
            _run_analytical(arr, workload, seed=9)
