"""Delta–main columnar replica: ordered compaction, merge-on-read scans,
zone-map pruning of the key-sorted main, encoded group-by — each checked
against the row oracle on the same replica — and this layer's view of the
three-workload parity matrix."""

from array import array
from random import Random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import FLOAT, INT, VARCHAR, Column, Table
from repro.db import Database
from repro.sql.ordering import canonical_value_key
from repro.storage import columnstore
from repro.storage.columnstore import (
    RLE_FALLBACK_AVG_RUN,
    RLE_MIN_AVG_RUN,
    ColumnarReplica,
    DictColumn,
    NativeColumn,
    RLEColumn,
    Segment,
)
from repro.storage.wal import LogOp


def _make_db(segment_rows=64, partitions=1, primary_key="id"):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  partitions=partitions)
    db.execute_ddl(
        "CREATE TABLE t (a INT, b INT, tag VARCHAR(8), v DOUBLE, id INT, "
        f"PRIMARY KEY ({primary_key}))")
    return db


def _delta_rows(db, name="t"):
    return sum(part.delta_live_rows()
               for part in db.columnar.table_partitions(name))


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
        table = db.columnar.table_partitions("t")[0]
        main = table.read_snapshot()[0]
        assert len(main) == 4 and all(s.encoded for s in main)
        assert table.delta_live_rows() == 0
        # ids are globally sorted across main segments
        ids = [row[4] for _pk, row in table.scan()]
        assert ids == sorted(ids)
        # the zone maps on the key are disjoint and ordered
        bounds = [(s.mins[4], s.maxs[4]) for s in main]
        assert all(lo <= hi for lo, hi in bounds)
        assert all(bounds[i][1] < bounds[i + 1][0]
                   for i in range(len(bounds) - 1))

    def test_small_delta_stays_unmerged_until_threshold(self):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 128)
        table = db.columnar.table_partitions("t")[0]
        merges_before = db.columnar.segments_merged_total()
        with db.connect() as conn:
            conn.execute(
                "INSERT INTO t (a, b, tag, v, id) VALUES (9, 9, 'd', 1.0, 500)")
            conn.commit()
        db.replicate()
        # one pending row is far below the merge threshold
        assert db.columnar.segments_merged_total() == merges_before
        assert table.delta_live_rows() == 1
        # forcing merges it anyway
        assert db.columnar.compact(force=True) > 0
        assert table.delta_live_rows() == 0

    def test_update_supersedes_main_version(self, routed):
        db = _make_db(segment_rows=64)
        _fill_shuffled(db, 128)
        table = db.columnar.table_partitions("t")[0]
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
        table = db.columnar.table_partitions("t")[0]
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

    def test_custom_sort_key(self):
        # a composite primary key leading with a non-unique column
        db = _make_db(segment_rows=32, primary_key="b, id")
        _fill_shuffled(db, 128)
        table = db.columnar.table_partitions("t")[0]
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
        assert _delta_rows(db) == 0


# ---------------------------------------------------------------------------
# scan level: zone-map pruning of the key-sorted main, and merge-on-read
# ---------------------------------------------------------------------------

class TestSpanPruning:
    """A key range is pruned to the segments that can hold it by each
    segment's zone maps: the main is sorted on the primary key, so the
    leading key column's zone maps are disjoint."""

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
        db = _make_db(segment_rows=32, primary_key="a, id")
        _fill_shuffled(db, 256)
        # one value of the first key column + a range on the second (an
        # equality on a key prefix would plan a row-store prefix scan)
        result = routed(
            db, "SELECT COUNT(*) FROM t WHERE a BETWEEN 3 AND 3 AND id < 120")
        assert result.rows == [(24,)]
        assert result.stats.vectorized
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
        assert _delta_rows(db) > 0
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

    @given(st.data())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ordered_scans_match_the_row_oracle(self, routed, data):
        """ORDER BY both ways over a non-unique leading key column: TopN /
        Sort tie-breaking over 8-row main segments whose ``k`` ranges tie
        at their boundaries, and a delta tail keyed before, inside,
        between, on and after them."""
        db = Database(with_columnar=True, columnar_segment_rows=8,
                      partitions=data.draw(st.sampled_from([1, 2])))
        db.execute_ddl(
            "CREATE TABLE q (id INT, k INT, v INT, PRIMARY KEY (k, id))")
        # multiples of 10: ties inside and across segments, and key room
        # between neighbouring segments for the overlay to land in
        main = data.draw(st.integers(8, 40).flatmap(lambda n: st.lists(
            st.integers(0, 12).map(lambda k: 10 * k), min_size=n,
            max_size=n)))
        with db.connect() as conn:
            for i, k in enumerate(main):
                conn.execute("INSERT INTO q (id, k, v) VALUES (?, ?, ?)",
                             (i, k, i % 5))
            conn.commit()
        db.replicate()
        db.columnar.compact(force=True)
        # overlay keys: anywhere from below to above main, often exactly a
        # main key (so often a segment boundary)
        keys = st.one_of(st.integers(-15, 135), st.sampled_from(main))
        ids = st.integers(0, len(main) - 1)
        # at most 7 rows: the delta stays below the 8-row merge threshold;
        # an insert takes a fresh id, an update moves a main row's key
        ops = data.draw(_sized(st.tuples(
            st.sampled_from(["insert", "insert", "update", "delete"]), ids,
            keys), 7))
        with db.connect() as conn:
            for j, (op, i, k) in enumerate(ops):
                if op == "insert":
                    conn.execute("INSERT INTO q (id, k, v) VALUES (?, ?, 9)",
                                 (100 + j, k))
                elif op == "update":
                    conn.execute("UPDATE q SET k = ? WHERE id = ?", (k, i))
                else:
                    conn.execute("DELETE FROM q WHERE id = ?", (i,))
            conn.commit()
        db.replicate()
        limit = data.draw(st.sampled_from(["", " LIMIT 1", " LIMIT 5"]))
        for order in ("k", "k DESC"):
            sql = f"SELECT id, k, v FROM q ORDER BY {order}{limit}"
            got = routed(db, sql)
            assert got.rows == routed(db, sql, vectorized=False).rows, sql


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
        # whole sealed segments fold without a gather
        assert a.stats.columns_decoded <= a.stats.batches_scanned

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
        identical between the vector path and the row oracle."""
        enc = _make_db(segment_rows=64)
        _fill_shuffled(enc, 256)
        sql = "SELECT tag, COUNT(*) FROM t GROUP BY tag"
        got = routed(enc, sql)
        assert got.stats.segments_encoded > 0
        assert got.rows == routed(enc, sql, vectorized=False).rows


class TestRunGroupedFold:
    """RLE columns under an aggregate — as the group key and as the
    argument — answer exactly as the row oracle does on the same replica.
    The aggregation layer does not read runs: an RLE key scatters through
    the generic value path and an RLE argument folds value by value, so
    what these pin is the parity, not a fast path."""

    def _filled(self):
        db = _make_db(segment_rows=64, primary_key="a, id")
        _fill_shuffled(db, 256)
        db.columnar.compact(force=True)
        return db

    def test_rle_group_by_matches_plain(self, routed):
        enc = self._filled()
        table = enc.columnar.table_partitions("t")[0]
        assert any(type(s.columns[0]).__name__ == "RLEColumn"
                   for s in table.read_snapshot()[0])
        sql = ("SELECT a, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), "
               "MAX(b), MIN(tag) FROM t GROUP BY a ORDER BY a")
        a = routed(enc, sql)
        b = routed(enc, sql, vectorized=False)
        assert a.stats.vectorized and not b.stats.vectorized
        assert a.rows == b.rows

    def test_rle_group_by_with_null_keys_and_args(self, routed):
        # a primary key holds no NULL: ``a`` rises with ``id``, so the
        # id-sorted main already lays it out in runs
        enc = _make_db(segment_rows=64)
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

    def test_run_grouped_computed_args(self, routed):
        enc = self._filled()
        sql = ("SELECT a, SUM(v * 2.0), AVG(b + 1), COUNT(v + b) FROM t "
               "GROUP BY a ORDER BY a")
        assert routed(enc, sql).rows \
            == routed(enc, sql, vectorized=False).rows

    def test_run_grouped_emission_order_unchanged(self, routed):
        """Without ORDER BY, groups emit in first-encounter scan order —
        identical between the vector pipeline and the row oracle."""
        enc = self._filled()
        sql = "SELECT a, COUNT(*), SUM(v) FROM t GROUP BY a"
        assert routed(enc, sql).rows \
            == routed(enc, sql, vectorized=False).rows

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_rle_argument_columns(self, routed, partitions):
        """SUM / MIN / MAX / COUNT over RLE argument columns with NULL
        runs — a DOUBLE and an INT — whole segments (global and grouped,
        cold and warm sketches) and a filtered selection alike."""
        enc = _make_db(segment_rows=64, partitions=partitions)
        with enc.connect() as conn:
            # runs of ~64 rows in every partition's id-sorted main
            for i in range(512 * partitions):
                run = i // (64 * partitions)
                conn.execute(
                    "INSERT INTO t (a, b, tag, v, id) VALUES (?, ?, ?, ?, ?)",
                    (i % 3, None if run % 3 == 1 else run - 7, None,
                     None if run % 4 == 2 else run * 0.1 - 0.4, i))
            conn.commit()
        enc.replicate()
        enc.columnar.compact(force=True)
        encodings = {type(s.columns[i]) for part in
                     enc.columnar.table_partitions("t")
                     for s in part.read_snapshot()[0] for i in (1, 3)}
        assert encodings == {RLEColumn}
        aggs = ("COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), "
                "COUNT(b), SUM(b), MIN(b), MAX(b), AVG(b)")
        for sql, sketched in (
                (f"SELECT {aggs} FROM t", True),
                (f"SELECT a, {aggs} FROM t GROUP BY a ORDER BY a", True),
                (f"SELECT {aggs} FROM t WHERE id >= 200 AND id < 900",
                 False)):
            expected = routed(enc, sql, vectorized=False).rows
            enc.columnar.sketches.clear()
            cold = routed(enc, sql)
            warm = routed(enc, sql)
            assert cold.stats.vectorized
            assert cold.rows == warm.rows == expected, sql
            assert bool(cold.stats.sketches_built) == sketched, sql
            assert bool(warm.stats.sketches_hit) == sketched, sql


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

    def test_sort_rows_drive_sort_demand(self):
        from repro.sim.costmodel import CostModel, CostParams
        from repro.sql.result import ExecStats

        model = CostModel(CostParams())
        sorted_stats = ExecStats()
        sorted_stats.sort_rows = 0
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


# ---------------------------------------------------------------------------
# the columnar merge against the row-wise merge it replaced
# ---------------------------------------------------------------------------
#
# ``_oracle_merge_delta`` is the merge as it stood before it went columnar
# (``self`` became ``table``), cut down to the whole-main rewrite the engine
# does now: live rows as value tuples, one canonical primary-key tuple per
# row as the sort key, ``Segment.append`` row by row, and a seal that
# encodes and sizes every column one value at a time.  It restates the
# encoding rule on its own: runs only for one non-NULL type among int /
# str / float (no NaN, no ``-0.0``) or an all-NULL column, and strings
# dictionary-encode only through the table dictionary.  Two replicas
# receive the same applies; one merges through the engine, one through
# the oracle, and everything a reader or a counter can see must agree.

def _oracle_value_bytes(value):
    if value is None:
        return 8
    if isinstance(value, float):
        return 24
    if isinstance(value, int):
        return 28
    if isinstance(value, str):
        return 49 + len(value)
    return 48


def _oracle_plain_bytes(values):
    return 56 + 8 * len(values) + sum(_oracle_value_bytes(v) for v in values)


def _oracle_encoded_bytes(column):
    if isinstance(column, DictColumn):
        return (64 + column.codes.itemsize * len(column.codes)
                + 8 * len(column.code_set))
    if isinstance(column, RLEColumn):
        return (64 + 2 * column.run_lengths.itemsize * len(column.run_lengths)
                + _oracle_plain_bytes(column.run_values))
    if isinstance(column, NativeColumn):
        return (64 + column.data.itemsize * len(column.data)
                + 8 * len(column.nulls))
    return _oracle_plain_bytes(column)


def _oracle_encode_column(values, shared=None):
    n = len(values)
    if n == 0:
        return values
    kinds = set()
    odd_float = False           # a NaN or a -0.0: ``==`` misjudges both
    nulls = 0
    for value in values:
        if value is None:
            nulls += 1
            continue
        kinds.add(type(value))
        if type(value) is float and repr(value) in ("nan", "-0.0"):
            odd_float = True
    kind = next(iter(kinds)) if len(kinds) == 1 else None
    runs = 0
    if not kinds or (kind in (int, str, float) and not odd_float):
        runs = 1
        for previous, value in zip(values, values[1:]):
            if value != previous:
                runs += 1
    average_run = n // runs if runs else 0

    def build_rle():
        run_values = []
        run_lengths = array("q")
        for value in values:
            if run_values and value == run_values[-1]:
                run_lengths[-1] += 1
            else:
                run_values.append(value)
                run_lengths.append(1)
        return RLEColumn(run_values, run_lengths)

    if average_run >= RLE_MIN_AVG_RUN:
        return build_rle()
    if kind is float or (kind is int and all(
            -(1 << 63) <= v <= (1 << 63) - 1 for v in values
            if v is not None)):
        data = array("q" if kind is int else "d",
                     [0 if v is None else v for v in values])
        null_set = (frozenset(i for i, v in enumerate(values) if v is None)
                    if nulls else frozenset())
        return NativeColumn(data, null_set)
    if kind is str and shared is not None:
        shared_codes = shared.encode(values)
        if shared_codes is not None:
            code_set = frozenset(c for c in set(shared_codes) if c >= 0)
            return DictColumn(shared_codes, shared, code_set)
    if average_run >= RLE_FALLBACK_AVG_RUN:
        return build_rle()
    return values


def _oracle_seal(segment, shared_dicts=None):
    plain_total = 0
    encoded_total = 0
    new_columns = []
    for pos, values in enumerate(segment.columns):
        shared = shared_dicts.get(pos) if shared_dicts else None
        encoded = _oracle_encode_column(values, shared)
        new_columns.append(encoded)
        plain_total += _oracle_plain_bytes(values)
        encoded_total += _oracle_encoded_bytes(encoded)
    segment.columns = new_columns
    segment.plain_bytes = plain_total
    segment.encoded_bytes = encoded_total
    segment.encoded = True
    segment.sketch_epoch += 1


def _oracle_live_rows_of(segments):
    rows = []
    for segment in segments:
        if segment.live_count == 0:
            continue
        columns = [col if isinstance(col, list) else col.decode()
                   for col in segment.columns]
        live = segment.live
        if segment.live_count == segment.size:
            rows.extend(zip(*columns))
        else:
            rows.extend(tuple(col[i] for col in columns)
                        for i in range(segment.size) if live[i])
    return rows


def _oracle_merge_delta(table):
    pk_positions = table.table.pk_positions

    def merge_key(row):
        return tuple(canonical_value_key(row[p]) for p in pk_positions)

    delta_rows = _oracle_live_rows_of(table._segments)
    if not delta_rows:
        return 0
    main = table._main_segments
    rows = _oracle_live_rows_of(main)
    rows.extend(delta_rows)
    rows.sort(key=merge_key)

    n_columns = len(table.table.columns)
    width = table.segment_rows
    pk_of = table.table.pk_of
    segments = []
    for begin in range(0, len(rows), width):
        chunk = rows[begin:begin + width]
        segment = Segment(n_columns, width)
        for row in chunk:
            segment.append(row)
        segment.observe_batch(chunk)
        _oracle_seal(segment, table.shared_dicts)
        table.encode_events += 1
        segments.append(segment)
    pk_map = {pk_of(row): offset for offset, row in enumerate(rows)}
    table._sketches.drop_segments(main)
    table._main_segments = segments
    table._main_pk_to_slot = pk_map
    table._segments = []
    table._pk_to_slot = {}
    table._zone_pending = []
    table._merge_totals[0] += len(segments)
    table._merge_totals[1] += len(rows)
    return len(segments)


def _visible_state(replica, table):
    """Everything a reader, a counter or the next merge can observe —
    through ``repr``, which tells ``1`` / ``1.0`` / ``True`` and ``0.0`` /
    ``-0.0`` apart and makes every NaN alike."""
    segments = []
    for segment in table._main_segments:
        segments.append((
            [col if isinstance(col, list) else col.decode()
             for col in segment.columns],
            segment.live, segment.size, segment.live_count,
            segment.mins, segment.maxs, segment.zone_valid,
            segment.encodings(), segment.encoded,
            segment.plain_bytes, segment.encoded_bytes))
    dictionaries = {
        pos: (shared.values, shared.active, shared.referenced)
        for pos, shared in (table.shared_dicts or {}).items()}
    return repr((
        segments, sorted(table._main_pk_to_slot.items(), key=repr),
        len(table._segments), table.delta_live_rows(), table._pk_to_slot,
        len(table._zone_pending), table.row_count, table.encode_events,
        replica._merge_totals, dictionaries,
        {k: v for k, v in sorted(replica.encoding_stats().items())},
    ))


MERGE_COLUMNS = ("k", "j", "s", "x", "t")


def _merge_replica(segment_rows, primary_key, shared_cap):
    table = Table(
        "m", [Column("k", INT), Column("j", INT), Column("s", INT),
              Column("x", FLOAT), Column("t", VARCHAR(16))],
        primary_key=primary_key)
    replica = ColumnarReplica(segment_rows=segment_rows)
    with mock.patch.object(columnstore, "SHARED_DICT_MAX_CARDINALITY",
                           shared_cap):
        replica.register_table(table)
    return replica, replica.table_partitions("m")[0]


def _check_merges_agree(segment_rows, key_prefix, composite_pk, shared_cap,
                        batches):
    """Apply each batch of ``(k, j, row-or-None)`` to two replicas, merge
    one through the engine and one through the oracle, compare.

    ``(k, j)`` (``(k,)`` unless ``composite_pk``) names a row; the primary
    key is ``key_prefix`` followed by those columns, so a row whose prefix
    columns change is deleted under its old key and inserted under its
    new one, as the row store logs it."""
    identity = ("k", "j") if composite_pk else ("k",)
    primary_key = tuple(dict.fromkeys((key_prefix or ()) + identity))
    engine_replica, engine = _merge_replica(
        segment_rows, primary_key, shared_cap)
    oracle_replica, oracle = _merge_replica(
        segment_rows, primary_key, shared_cap)
    pk_of = engine.table.pk_of
    live_keys = {}          # row name -> primary key of its live version
    for batch in batches:
        for k, j, rest in batch:
            name = (k, j) if composite_pk else (k,)
            old = live_keys.pop(name, None)
            values = None if rest is None else (k, j) + tuple(rest)
            pk = None if values is None else pk_of(values)
            for table in (engine, oracle):
                if old is not None and pk != old:
                    table.apply(old, None, LogOp.DELETE)
                if values is not None:
                    table.apply(pk, values, LogOp.INSERT)
            if values is not None:
                live_keys[name] = pk
        engine.flush_zone_maps()
        oracle.flush_zone_maps()
        assert _visible_state(engine_replica, engine) == \
            _visible_state(oracle_replica, oracle)      # same input
        made = engine._merge_delta()
        assert made == _oracle_merge_delta(oracle)
        assert _visible_state(engine_replica, engine) == \
            _visible_state(oracle_replica, oracle)
        # the slot map points at exactly the live main rows (through
        # ``repr``: a decoded NaN is a new object that equals nothing)
        for pk, slot in engine._main_pk_to_slot.items():
            segment, offset = engine._locate_main(slot)
            assert segment.live[offset]
            assert repr(pk_of([col[offset] for col in segment.columns])) \
                == repr(pk)
        assert len(engine._main_pk_to_slot) == engine.row_count


_NAN = float("nan")
# each a value domain for one column of one scenario
_INT_DOMAINS = [
    st.integers(0, 3),
    st.one_of(st.none(), st.none(), st.integers(0, 2)),       # NULL-heavy
    st.none(),                                                # all NULL
    st.sampled_from([0, 1, 2, 1.0, 2.0, 0.5]),                # int / float
    st.sampled_from([0, 1, True, False, 2]),                  # bool among
    st.sampled_from([1 << 70, -(1 << 63) - 1, 1 << 63, 5, -5]),
    st.sampled_from([0, "a", None, 1.5, "b"]),                # mixed classes
]
_FLOAT_DOMAINS = [
    st.sampled_from([0.0, -0.0, 1.5, -2.25]),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([_NAN, float("nan"), 1.0, float("inf"),
                     float("-inf"), None]),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.none(),
    st.just(0.0),
]
_STR_DOMAINS = [
    st.sampled_from(["a", "b"]),
    st.sampled_from(["a", "b", "c", "d", "e", None]),   # straddles cap 4
    st.integers(0, 40).map(lambda i: f"v{i}"),
    st.none(),
]


def _sized(elements, largest):
    # sizes drawn first and uniformly: left to itself hypothesis keeps the
    # lists — and so the tables — nearly empty
    return st.integers(0, largest).flatmap(
        lambda size: st.lists(elements, min_size=size, max_size=size))


@st.composite
def merge_scenarios(draw):
    # drawn rows make short runs; striped batches repeat a few drawn values
    # over stretches of keys, the only way a 32- or 64-row segment sees the
    # long runs RLE needs
    striped = draw(st.booleans())
    segment_rows = draw(st.sampled_from([32, 64] if striped
                                        else [8, 8, 8, 3, 32]))
    key_prefix = draw(st.sampled_from(
        [None, ("s",), ("s", "k"), ("x", "s"), ("t",), ("j", "k")]))
    composite_pk = draw(st.booleans())
    shared_cap = draw(st.sampled_from([4, 4096]))
    values = st.tuples(draw(st.sampled_from(_INT_DOMAINS)),
                       draw(st.sampled_from(_FLOAT_DOMAINS)),
                       draw(st.sampled_from(_STR_DOMAINS)))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        # a key window per batch: the delta's keys fall before, among or
        # after what earlier batches merged into main
        low = draw(st.integers(0, 60))
        if striped:
            pool = draw(st.lists(values, min_size=1, max_size=4))
            stripe = draw(st.sampled_from([1, 16, 40, 200]))
            dead = draw(st.sampled_from([0, 0, 5, 7]))
            keys = range(low, low + draw(st.sampled_from([40, 150])),
                         draw(st.sampled_from([1, 1, 3])))
            batches.append([
                (k, 0, None if dead and k % dead == 0
                 else pool[k // stripe % len(pool)]) for k in keys])
        else:
            span = draw(st.sampled_from([2, 10, 60]))
            op = st.tuples(st.integers(low, low + span), st.integers(0, 1),
                           st.one_of(st.none(), values, values))
            batches.append(draw(_sized(op, 40)))
    return segment_rows, key_prefix, composite_pk, shared_cap, batches


class TestColumnarMergeDifferential:
    @settings(max_examples=150, deadline=None)
    @given(merge_scenarios())
    def test_generated_tables_merge_like_the_row_wise_oracle(self, scenario):
        _check_merges_agree(*scenario)

    @pytest.mark.parametrize("distinct", [255, 256, 257, 258])
    @pytest.mark.parametrize("shared_cap", [200, 4096])
    def test_string_domain_straddling_the_dictionary_caps(self, distinct,
                                                          shared_cap):
        # one 600-row segment holding 255..258 distinct strings: a
        # 4096-entry table dictionary encodes every seal; a 200-entry one
        # demotes on the first, and the column seals without it from then
        # on (one-row runs: PLAIN)
        load = [(k, 0, (k % 7, float(k % 5), f"t{k % distinct}"))
                for k in range(600)]
        churn = [(k, 0, None if k % 9 == 0
                  else (k % 3, -0.0, f"t{(k * 7) % distinct}"))
                 for k in range(0, 600, 4)]
        _check_merges_agree(600, None, False, shared_cap, [load, churn])

    def test_runs_of_signed_zeros(self):
        # x holds 0.0 / -0.0 in stretches that ``!=`` sees as one run: the
        # column seals NATIVE, never RLE
        load = [(k, 0, (k // 50, (0.0, -0.0, 0.0, None)[k // 40 % 4], "a"))
                for k in range(200)]
        flip = [(k, 0, (0, -0.0, "a")) for k in range(0, 200, 2)]
        for key_prefix in (None, ("x",)):
            _check_merges_agree(64, key_prefix, False, 4096, [load, flip])

    def test_reinsert_of_a_deleted_key_and_dead_main_rows(self):
        load = [(k, 0, (k % 4, 0.5 * k, "a")) for k in range(40)]
        kill = [(k, 0, None) for k in range(5, 30, 3)]
        back = [(k, 0, (9, -1.0, "b")) for k in range(5, 30, 6)]
        for key_prefix in (None, ("s",)):
            _check_merges_agree(8, key_prefix, False, 4096,
                                [load, kill + back, kill, back])

    def test_envelope_covering_none_part_and_all_of_main(self):
        # deltas keyed past, among and across the main's keys: each merge
        # rewrites the whole main
        load = [(k, 0, (k % 4, 1.0, "a")) for k in range(0, 80, 2)]
        beyond = [(k, 0, (0, 2.0, "b")) for k in range(100, 110)]
        inside = [(k, 0, (1, 3.0, "c")) for k in range(21, 41, 2)]
        across = [(k, 0, (2, 4.0, "d")) for k in (1, 55, 109, 200)]
        _check_merges_agree(8, None, False, 4096,
                            [load, beyond, inside, across])

    def test_duplicate_sort_keys_tie_break_on_the_primary_key(self):
        # every row shares the leading key column: the rest of the key
        # orders them
        load = [(k, j, (1, 0.0, "a")) for k in (5, 3, 9, 1, 7)
                for j in (1, 0)]
        more = [(k, 0, (1, 0.0, "a")) for k in (4, 8, 2, 6)]
        _check_merges_agree(3, ("s",), True, 4096, [load, more])

    def test_nan_and_mixed_class_sort_keys(self):
        nan = float("nan")
        load = [(k, 0, (("a", None, 2, 1.5, True)[k % 5],
                        (nan, 1.0, -0.0, 0.0, float("inf"))[k % 5], "a"))
                for k in range(30)]
        more = [(k, 0, ((1, "b", None)[k % 3], float("nan"), None))
                for k in range(10, 50, 3)]
        for key_prefix in (("x",), ("s",), ("x", "s"), ("s", "x")):
            _check_merges_agree(8, key_prefix, False, 4096, [load, more])
