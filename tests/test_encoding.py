"""Encoding-aware columnar segments: round-trips, pushed predicates on
every encoding, analytical parity vs the row oracle, and the encoding stat
counters."""

import math
from array import array
from fractions import Fraction
from random import Random
from unittest import mock

import pytest

from repro.db import Database
from repro.sql.functions import GroupedAggregation
from repro.sql.vectorized import _EvalPred, _LazyColumn
from repro.storage import columnstore
from repro.storage.columnstore import (
    DictColumn,
    Encoding,
    NativeColumn,
    RLEColumn,
    TableDictionary,
    _encode_column,
)


# ---------------------------------------------------------------------------
# per-encoding round trips (unit level)
# ---------------------------------------------------------------------------

class TestEncodeColumn:
    def test_low_cardinality_strings_dict(self):
        values = (["GC", "BC", "GC", None] * 64)[:200]
        column = _encode_column(values, TableDictionary())
        assert isinstance(column, DictColumn)
        assert column.decode() == values
        assert list(column) == values
        assert column[1] == "BC" and column[3] is None
        assert len(column) == len(values)
        assert column.count(None) == values.count(None)
        assert column.count("GC") == values.count("GC")

    def test_long_runs_rle(self):
        values = [1] * 100 + [2] * 100 + [None] * 50 + [3] * 100
        column = _encode_column(values)
        assert isinstance(column, RLEColumn)
        assert column.decode() == values
        assert column[0] == 1 and column[225] is None and column[349] == 3
        assert column.count(None) == 50
        assert column.count(2) == 100
        assert list(column.iter_runs()) == [(1, 100), (2, 100),
                                            (None, 50), (3, 100)]

    def test_rle_does_not_merge_equal_values_of_different_types(self):
        # ``1 == 1.0``: ``!=`` cannot delimit the runs of a mixed census,
        # so it never run-length encodes
        values = [1] * 40 + [1.0] * 40
        column = _encode_column(values)
        assert column is values

    def test_homogeneous_ints_native(self):
        values = [((i * 37) % 1000) - 500 for i in range(300)]
        column = _encode_column(values)
        assert isinstance(column, NativeColumn)
        assert column.data.typecode == "q"
        assert column.decode() == values
        assert column.all_ints and not column.all_floats

    def test_homogeneous_floats_with_nulls_native(self):
        values = [float(i) * 0.5 if i % 7 else None for i in range(300)]
        column = _encode_column(values)
        assert isinstance(column, NativeColumn)
        assert column.data.typecode == "d"
        assert column.decode() == values
        assert column.count(None) == values.count(None)
        assert not column.all_ints and not column.all_floats  # has NULLs

    def test_mixed_int_float_falls_back_to_plain(self):
        # NATIVE would coerce 1 -> 1.0 and change decoded value types
        values = [1, 2.0] * 100
        column = _encode_column(values)
        assert isinstance(column, list)

    def test_strings_without_a_dictionary_rle_or_plain(self):
        # a demoted (or absent) table dictionary: long runs still RLE
        values = ["a"] * 100 + ["b"] * 100
        column = _encode_column(values)
        assert isinstance(column, RLEColumn)
        assert column.decode() == values
        demoted = TableDictionary()
        demoted.cap = 0
        assert demoted.encode(["a"]) is None and not demoted.active
        values = ["a", "b"] * 100
        assert _encode_column(values, demoted) is values

    def test_high_cardinality_strings_plain(self):
        values = [f"payload-{i}" for i in range(400)]
        column = _encode_column(values)
        assert isinstance(column, list)

    def test_huge_ints_fall_back(self):
        values = [1 << 70, 2, 3] * 50
        column = _encode_column(values)
        assert not isinstance(column, NativeColumn)
        decoded = column if isinstance(column, list) else column.decode()
        assert decoded == values

    def test_type_clash_uncomparable_plain(self):
        values = ([1, "x", 3.5, None] * 30)[:100]
        column = _encode_column(values)
        assert isinstance(column, list)
        assert column == values

    def test_all_null_column_stays_plain_or_rle(self):
        values = [None] * 128
        column = _encode_column(values)
        decoded = column if isinstance(column, list) else column.decode()
        assert decoded == values

    def test_gather_matches_indexing(self):
        for values in (
            ["a", "b", "a", None] * 50,
            [5] * 90 + [7] * 110,
            [float(i) for i in range(200)],
        ):
            column = _encode_column(values, TableDictionary())
            selection = [0, 3, 50, 120, 199]
            if isinstance(column, list):
                continue
            assert column.gather(selection) == [values[i] for i in selection]


class TestValueSpaceSelection:
    """A pushed predicate's sweep selects the same offsets on every
    encoding as it would on the decoded values."""

    def test_dict_eq_absent_literal(self):
        column = _encode_column((["a", "b"] * 100), TableDictionary())
        assert isinstance(column, DictColumn)
        assert _EvalPred(0, low="zzz", high="zzz",
                         is_eq=True).column_selection(column) == []
        assert _EvalPred(0, low="a", high="a",
                         is_eq=True).column_selection(column) == list(
                             range(0, 200, 2))

    def test_dict_in_partial_hits(self):
        values = (["a", "b", "c", "a"] * 64)[:200]
        column = _encode_column(values, TableDictionary())
        assert isinstance(column, DictColumn)
        selection = _EvalPred(0, in_values=["b", "nope"]).column_selection(
            column)
        assert selection == [i for i in range(200) if values[i] == "b"]

    def test_rle_eq_selects_one_run(self):
        column = _encode_column([1] * 100 + [2] * 100 + [3] * 100)
        assert isinstance(column, RLEColumn)
        assert _EvalPred(0, low=2, high=2, is_eq=True).column_selection(
            column) == list(range(100, 200))

    def test_rle_range_straddles_runs(self):
        values = [1] * 50 + [2] * 50 + [3] * 50 + [4] * 50
        column = _encode_column(values)
        assert isinstance(column, RLEColumn)
        assert _EvalPred(0, low=2, high=3).column_selection(
            column) == list(range(50, 150))
        assert _EvalPred(0, low=2, high=3, low_inclusive=False,
                         high_inclusive=False).column_selection(column) == []

    def test_native_range_skips_nulls(self):
        values = [float(i) if i % 2 else None for i in range(100)]
        column = _encode_column(values)
        assert isinstance(column, NativeColumn)
        assert _EvalPred(0, low=90.0).column_selection(column) == [
            91, 93, 95, 97, 99]

    @pytest.mark.parametrize("values, encoding", [
        (["a", "b", None, "a"] * 50, DictColumn),
        ([1] * 60 + [None] * 60 + [2] * 80, RLEColumn),
        ([float(i) if i % 3 else None for i in range(200)], NativeColumn),
        ([f"payload-{i}" if i % 5 else None for i in range(400)], list),
    ])
    def test_not_null_selection_on_every_encoding(self, values, encoding):
        not_null = _EvalPred(0, not_null=True)
        # strings dictionary-encode only through a table dictionary
        shared = TableDictionary() if encoding is DictColumn else None
        column = _encode_column(values, shared)
        assert type(column) is encoding
        assert not_null.column_selection(column) == [
            i for i, v in enumerate(values) if v is not None]
        # a null-free column absorbs the predicate: every row flows through
        fill = next(v for v in values if v is not None)
        full = [fill if v is None else v for v in values]
        column = _encode_column(full, shared)
        assert type(column) is encoding
        assert not_null.column_selection(column) is None


class TestLazyNativeSums:
    """SUM over a lazy gather of a sealed NATIVE column is exact."""

    def test_native_selection_sums_exact(self):
        rng = Random(5)
        values = [rng.uniform(-1e6, 1e6) for i in range(2000)]
        column = _encode_column(values)
        assert isinstance(column, NativeColumn)
        for start, stop, step in ((0, 2000, 1), (3, 1999, 1), (511, 513, 1),
                                  (512, 1024, 1), (700, 701, 1),
                                  (1, 1999, 3)):
            selection = list(range(start, stop, step))
            assert _lazy_sum(column, selection) == float(
                sum(Fraction(values[i]) for i in selection))

    def test_native_selection_sums_exact_across_the_double_range(self):
        # 1e300 beside 5e-324: no one double scales both, and left-to-right
        # addition loses the small values under the large ones
        values = [1e300, 5e-324, -1e300, 0.5] * 300
        column = _encode_column(values)
        assert isinstance(column, NativeColumn)
        for start, stop in ((0, 1200), (1, 7), (510, 1030)):
            assert _lazy_sum(column, list(range(start, stop))) == float(
                sum(map(Fraction, values[start:stop])))

    def test_native_selection_with_non_finite_sums_as_python(self):
        column = _encode_column([1.0, float("inf"), 2.0] * 50)
        assert isinstance(column, NativeColumn)
        assert _lazy_sum(column, list(range(10))) == math.inf
        column = _encode_column([1.0, float("inf"), -float("inf")] * 50)
        assert isinstance(column, NativeColumn)
        assert math.isnan(_lazy_sum(column, list(range(10))))


def _lazy_sum(column, selection):
    """SUM of ``column`` at ``selection``, folded as a scan folds its lazy
    gather of a sealed column."""
    groups = GroupedAggregation([("SUM", False, False)])
    groups.fold(groups.gid(()), [_LazyColumn(column, selection)],
                len(selection))
    [(total,)] = groups.rows()
    return total


def _decoded(column):
    return column if isinstance(column, list) else column.decode()


class TestRunBoundaries:
    """Every sealed column decodes to the values it replaced.  ``repr``
    tells ``0.0`` from ``-0.0`` and ``1`` from ``1.0`` where ``==`` does
    not; a column holding ``-0.0``, NaN or more than one type never
    run-length encodes, since ``!=`` cannot delimit its runs."""

    @pytest.mark.parametrize("values", [
        [0.0] * 50 + [-0.0] * 50,
        [-0.0] * 50 + [0.0] * 50,
        [-0.0] * 100,
        [0.0] * 40 + [None] * 40 + [-0.0] * 40 + [0.0] * 40,
        ([0.0] * 64 + [-0.0] * 64) * 3,
        [2.5] * 64 + [-0.0] * 64 + [0.0] * 64,
        [0] * 50 + [-0.0] * 50 + [0.0] * 50 + [False] * 50,
    ])
    def test_rle_keeps_the_sign_of_zero(self, values):
        column = _encode_column(values)
        assert list(map(repr, _decoded(column))) == list(map(repr, values))

    def test_negative_zero_survives_every_encoding(self):
        # NATIVE (short runs) and PLAIN (mixed) never lost it: pin that
        for values in ([0.0, -0.0, 1.5] * 40, [0.0, -0.0, 1, None] * 40):
            column = _encode_column(values)
            assert not isinstance(column, RLEColumn)
            assert list(map(repr, _decoded(column))) == \
                list(map(repr, values))

    def test_shared_nan_object_stays_one_run(self):
        nan = float("nan")
        column = _encode_column([nan] * 100 + [1.0] * 100)
        assert list(map(repr, _decoded(column))) == \
            ["nan"] * 100 + ["1.0"] * 100

    def test_distinct_nan_objects_stay_native(self):
        # a NaN differs from every other NaN: a hundred one-value runs
        values = [float("nan") for _ in range(100)]
        column = _encode_column(values)
        assert isinstance(column, NativeColumn)
        assert all(math.isnan(v) for v in column.decode())

    def test_census_path_agrees_with_a_supplied_census(self):
        from collections import Counter

        for values in ([7] * 90 + [None] * 10, ["a", "b"] * 64,
                       [1.5, None] * 64, [1 << 70] * 64, [None] * 64):
            alone = _encode_column(values)
            given = _encode_column(values, None,
                                   Counter(map(type, values)))
            assert type(alone) is type(given)
            assert _decoded(alone) == _decoded(given) == values


# ---------------------------------------------------------------------------
# engine level: encoded execution vs the row oracle
# ---------------------------------------------------------------------------

def _fill_encoded(db, n=512):
    with db.connect() as conn:
        for i in range(n):
            conn.execute(
                "INSERT INTO e (id, grp, tag, v, q) VALUES (?, ?, ?, ?, ?)",
                (i, i // 64, f"t{i % 3}", float(i % 10) * 1.5,
                 None if i % 11 == 0 else i % 100))
        conn.commit()
    db.replicate()


def _make_encoded_db(segment_rows=64):
    # every fill below replicates at least one segment's worth of rows, so
    # the stock merge threshold seals them into encoded main segments
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows)
    db.execute_ddl(
        "CREATE TABLE e (id INT PRIMARY KEY, grp INT, tag VARCHAR(8), "
        "v DOUBLE, q INT)")
    return db


QUERIES = [
    ("SELECT COUNT(*), SUM(v), AVG(q) FROM e WHERE grp = 3", ()),
    ("SELECT COUNT(*) FROM e WHERE tag = 't1'", ()),
    ("SELECT COUNT(*) FROM e WHERE tag = 'absent'", ()),
    ("SELECT COUNT(*), MIN(v), MAX(v) FROM e WHERE id BETWEEN ? AND ?",
     (100, 300)),
    ("SELECT COUNT(*), SUM(q) FROM e WHERE grp IN (1, 3, 9)", ()),
    ("SELECT grp, COUNT(*), SUM(v) FROM e GROUP BY grp ORDER BY grp", ()),
    ("SELECT COUNT(*) FROM e WHERE q IS NULL", ()),
    ("SELECT id FROM e WHERE v > 12.0 ORDER BY id LIMIT 7", ()),
]


class TestEncodedEngineParity:
    def test_queries_identical_to_plain_forced_engine(self, routed):
        enc = _make_encoded_db()
        _fill_encoded(enc)
        for sql, params in QUERIES:
            a = routed(enc, sql, params)
            b = routed(enc, sql, params, vectorized=False)
            assert a.stats.vectorized and not b.stats.vectorized, sql
            assert a.rows == b.rows, sql
            assert a.columns == b.columns, sql

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_float_sum_over_one_long_run_of_a_sealed_segment(
            self, routed, partitions):
        """An equality on the second primary-key column selects one
        contiguous run of 700 rows per warehouse, each inside one sealed
        segment, and its floats add inexactly left to right: SUM / AVG
        still round the exact total once, as the row oracle does.  (An
        equality on the leading column takes the row store's prefix
        access instead.)"""
        db = Database(with_columnar=True, columnar_segment_rows=2048,
                      partitions=partitions)
        db.execute_ddl("CREATE TABLE r (w INT, d INT, id INT, x DOUBLE, "
                       "PRIMARY KEY (w, d, id))")
        values = [1e16 if i == 350 else 0.1 * i for i in range(700)]
        with db.connect() as conn:
            for w, d in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
                for i, x in enumerate(values):
                    conn.execute(
                        "INSERT INTO r (w, d, id, x) VALUES (?, ?, ?, ?)",
                        (w, d, i, x))
            conn.commit()
        db.replicate()
        db.columnar.compact(force=True)
        exact = 2 * sum(map(Fraction, values))
        assert sum(values * 2) != float(exact)
        sql = "SELECT SUM(x), AVG(x) FROM r WHERE d = 1"
        vec = routed(db, sql)
        assert vec.stats.vectorized and vec.stats.segments_encoded > 0
        assert vec.rows == routed(db, sql, vectorized=False).rows \
            == [(float(exact), float(exact / (2 * len(values))))]

    def test_eq_on_dict_column_counts_and_prunes(self, routed):
        enc = _make_encoded_db()
        _fill_encoded(enc)
        hit = routed(enc, "SELECT COUNT(*) FROM e WHERE tag = 't1'")
        assert hit.stats.segments_encoded > 0
        miss = routed(enc, "SELECT COUNT(*) FROM e WHERE tag = 'absent'")
        assert miss.rows == [(0,)]
        # 'absent' sorts below every tag ('t0'..'t2'): the string zone
        # maps prune every segment
        assert miss.stats.segments_pruned >= miss.stats.segments_encoded
        assert miss.stats.batches_scanned == 0

    def test_rle_selection_inside_segments(self, routed):
        # two 32-row runs *within* every 64-row segment (>= RLE_MIN_AVG_RUN
        # so the column run-length encodes), so zone maps cannot prune and
        # the sweep must select inside each RLE segment
        enc = _make_encoded_db()
        with enc.connect() as conn:
            for i in range(512):
                conn.execute(
                    "INSERT INTO e (id, grp, tag, v, q) "
                    "VALUES (?, ?, 'r', 1.0, 1)", (i, (i % 64) // 32))
            conn.commit()
        enc.replicate()
        result = routed(enc, "SELECT COUNT(*) FROM e WHERE grp = 1")
        assert result.rows == [(256,)]
        assert result.stats.segments_encoded > 0
        assert result.stats.segments_pruned == 0

    def test_in_pushdown_with_params(self, routed):
        enc = _make_encoded_db()
        _fill_encoded(enc)
        sql = "SELECT COUNT(*) FROM e WHERE grp IN (?, ?)"
        for params in ((1, 5), (None, 2), (None, None), (99, 98)):
            assert routed(enc, sql, params).rows == \
                routed(enc, sql, params, vectorized=False).rows, params

    def test_lazy_decode_counters(self, routed):
        enc = _make_encoded_db()
        _fill_encoded(enc)
        result = routed(enc, "SELECT SUM(q) FROM e WHERE grp = 2")
        # the filter column (grp) itself is never materialised; q is folded
        # either via decode or via typed-slice fast paths
        assert result.stats.segments_encoded > 0
        assert result.stats.columns_decoded <= result.stats.batches_scanned

    def test_encoding_stats_accounting(self):
        enc = _make_encoded_db()
        _fill_encoded(enc)
        stats = enc.columnar.encoding_stats()
        assert stats["segments_encoded"] > 0
        assert stats["bytes_saved"] > 0
        assert stats["compression_ratio"] > 1.0
        assert sum(stats["encodings"].values()) == \
            stats["segments_encoded"] * 5  # five columns per segment
        assert 0.0 < enc.columnar.scan_cost_factor() < 1.0


# one sealed 512-row segment per ``w`` (ids 0..511 each, a whole multiple
# of the segment size, so the layout is the same at every partition count):
# column -> (encoding, predicates).  Each column lists ``=``, IN, a range,
# a literal absent from the column yet inside its zone map (it must be
# swept, not pruned), and IS NOT NULL.
PARITY_SEGMENT_ROWS = 512
PARITY_COLUMNS = {
    "sh": (DictColumn,
           ["= 's0'", "IN ('s2', 'zz')", ">= 's1'", "= 's1'"]),
    "pd": (list,
           ["= 'p00'", "IN ('p10', 'p78')", "BETWEEN 'p05' AND 'p20'",
            "= 'p01'"]),
    "r": (RLEColumn, ["= 0", "IN (4, 20, 99)", "BETWEEN 3 AND 11", "= 12"]),
    "nn": (NativeColumn, ["= 0.5", "IN (1.0, 7.5)", "< 20.0", "= 0.75"]),
    "q": (NativeColumn, ["= 0", "IN (14, 28)", "> 150", "= 3"]),
    "pl": (list, ["= 'v0001'", "IN ('v0002', 'v0500')", "< 'v0100'",
                  "= 'v0001a'"]),
}


def _parity_row(w, i):
    third = PARITY_SEGMENT_ROWS // 3
    # three runs, the middle one NULL
    r = None if third <= i < 2 * third else 10 * w + (0 if i < third else 4)
    return (w, i,
            ("s0", "s2", "s4")[i % 3],                  # 3 values: shared
            f"p{2 * (i % 40):02d}",                     # 40: demoted
            r,
            None if i % 7 == 0 else i * 0.5,
            (i * 7) % 100 * 2,
            None if i % 13 == 0 else f"v{i:04d}")       # 512 values: plain


class TestPushedPredicatesOnEveryEncoding:
    """Every pushed predicate shape on every sealed encoding answers what
    the row oracle answers."""

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_parity_with_the_row_oracle(self, routed, partitions):
        db = Database(with_columnar=True,
                      columnar_segment_rows=PARITY_SEGMENT_ROWS,
                      partitions=partitions)
        # a table dictionary demotes past 16 values: ``pd`` and ``pl``
        # seal without it (one-row runs: PLAIN), ``sh`` stays a dictionary
        with mock.patch.object(columnstore, "SHARED_DICT_MAX_CARDINALITY",
                               16):
            db.execute_ddl(
                "CREATE TABLE t (w INT, id INT, sh VARCHAR(4), "
                "pd VARCHAR(4), r INT, nn DOUBLE, q INT, pl VARCHAR(8), "
                "PRIMARY KEY (w, id))")
        with db.connect() as conn:
            for w in range(4):
                for i in range(PARITY_SEGMENT_ROWS):
                    conn.execute(
                        "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        _parity_row(w, i))
            conn.commit()
        db.replicate()
        db.columnar.compact(force=True)
        segments = [segment for part in db.columnar.table_partitions("t")
                    for segment in part.read_snapshot()[0]]
        assert len(segments) == 4 and all(s.encoded for s in segments)
        table = db.catalog.table("t")
        for name, (encoding, _predicates) in PARITY_COLUMNS.items():
            columns = [s.columns[table.position(name)] for s in segments]
            assert all(type(c) is encoding for c in columns), name
        assert all(None in c.run_values for c in
                   (s.columns[table.position("r")] for s in segments))
        assert all(s.columns[table.position("nn")].nulls for s in segments)
        assert all(s.columns[table.position("q")].all_ints for s in segments)

        for name, (_encoding, predicates) in PARITY_COLUMNS.items():
            *_, absent = predicates
            for predicate in [*predicates, "IS NOT NULL"]:
                sql = f"SELECT w, id FROM t WHERE {name} {predicate} " \
                    "ORDER BY w, id"
                vec = routed(db, sql)
                assert vec.stats.vectorized, sql
                assert vec.rows == routed(db, sql, vectorized=False).rows, \
                    sql
                if predicate == absent:
                    # inside the zone map: swept on an encoded segment
                    assert not vec.rows and vec.stats.segments_encoded, sql
                else:
                    assert vec.rows, sql


class TestSignOfZeroThroughTheEngine:
    def test_select_is_repr_identical_to_the_row_store_after_a_merge(self):
        db = Database(with_columnar=True, columnar_segment_rows=64)
        db.execute_ddl("CREATE TABLE z (id INT PRIMARY KEY, x DOUBLE)")
        with db.connect() as conn:
            for i in range(128):
                conn.execute("INSERT INTO z (id, x) VALUES (?, ?)",
                             (i, 0.0 if i < 64 or i >= 96 else -0.0))
            conn.commit()
        db.replicate()
        db.columnar.compact(force=True)
        table = db.columnar.table_partitions("z")[0]
        assert table.delta_live_rows() == 0
        assert any(isinstance(s.columns[1], RLEColumn)
                   for s in table.read_snapshot()[0])
        sql = "SELECT id, x FROM z ORDER BY id"
        with db.connect() as conn:
            row_side = conn.execute(sql).rows
            columnar = conn.execute(sql, (), route_columnar=True)
            conn.commit()
        assert columnar.stats.vectorized
        assert repr(columnar.rows) == repr(row_side)
        assert [repr(x) for _i, x in row_side[60:68]] == \
            ["0.0"] * 4 + ["-0.0"] * 4


class TestZoneMapBatching:
    def test_pruning_correct_after_chunked_apply(self, routed):
        """Zone maps widened per applied-WAL chunk must prune exactly like
        per-row widening did."""
        db = _make_encoded_db(segment_rows=32)
        with db.connect() as conn:
            for i in range(128):
                conn.execute(
                    "INSERT INTO e (id, grp, tag, v, q) "
                    "VALUES (?, ?, 'z', ?, ?)", (i, i // 16, float(i), i))
            conn.commit()
        # replicate in awkward chunk sizes: widening happens per chunk
        while db.replication_lag() > 0:
            db.replicate(limit=7)
        result = routed(db, "SELECT COUNT(*) FROM e WHERE id BETWEEN 40 AND 50")
        assert result.rows == [(11,)]
        assert result.stats.segments_pruned >= 1
        # a value outside every zone map prunes all segments
        nothing = routed(db, "SELECT COUNT(*) FROM e WHERE id = 100000")
        assert nothing.rows == [(0,)]
        assert nothing.stats.batches_scanned == 0

    def test_mutation_visibility_with_deferred_widening(self, routed):
        db = _make_encoded_db(segment_rows=16)
        _fill_encoded(db, 48)
        with db.connect() as conn:
            conn.execute("UPDATE e SET v = ? WHERE id = 2", (5555.5,))
            conn.commit()
        db.replicate()
        found = routed(db, "SELECT id FROM e WHERE v > 5000 ORDER BY id")
        assert found.rows == [(2,)]


# ---------------------------------------------------------------------------
# workload level: this layer's view of the parity matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload_name", ["subenchmark", "fibenchmark",
                                           "tabenchmark"])
@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestWorkloadParity:
    """Byte parity with the row oracle is asserted inside the shared
    ``workload_parity`` cell (tests/conftest.py); what this suite adds is
    that encoded segments were what got scanned."""

    def test_fully_replicated_byte_identical(self, workload_parity,
                                             workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=False)
        assert cell.stats.segments_encoded > 0
        assert cell.encoding["segments_encoded"] > 0

    def test_mid_replication_byte_identical(self, workload_parity,
                                            workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=True)
        assert cell.stats.segments_encoded > 0
        assert cell.encoding["segments_encoded"] > 0


# ---------------------------------------------------------------------------
# aggregation-state exactness on encoded inputs
# ---------------------------------------------------------------------------

def _bulk_and_scattered(name, column, values):
    """One aggregate over ``values``: bulk-folded from the encoded
    ``column`` into a single group, and scattered row by row."""
    from repro.sql.functions import GroupedAggregation

    fast = GroupedAggregation([(name, False, False)])
    fast.fold(fast.gid(()), [column], len(column))
    slow = GroupedAggregation([(name, False, False)])
    slow.scatter(slow.assign([()] * len(values)), [values])
    return fast.rows()[0][0], slow.rows()[0][0]


class TestRunAggregation:
    def test_rle_sum_multiplies_exactly(self):
        values = [0.1] * 1000 + [2.5] * 500 + [None] * 100
        column = _encode_column(values)
        assert isinstance(column, RLEColumn)
        fast, slow = _bulk_and_scattered("SUM", column, values)
        assert math.isclose(fast, slow, rel_tol=0)
        assert fast == slow  # bit-identical

    def test_rle_avg_count_min_max(self):
        values = [3] * 400 + [None] * 50 + [9] * 150
        column = _encode_column(values)
        assert isinstance(column, RLEColumn)
        for name, expected in (
            ("COUNT", 550),
            ("AVG", (3 * 400 + 9 * 150) / 550),
            ("MIN", 3),
            ("MAX", 9),
        ):
            fast, slow = _bulk_and_scattered(name, column, values)
            assert fast == slow == expected

    def test_native_typed_slice_sum_exact(self):
        rng = Random(3)
        values = [rng.uniform(-1000, 1000) for _ in range(1500)]
        column = NativeColumn(array("d", values), frozenset())
        fast, slow = _bulk_and_scattered("SUM", column, values)
        assert fast == slow

    def test_encoding_label_constants(self):
        assert {Encoding.PLAIN, Encoding.DICT, Encoding.RLE,
                Encoding.NATIVE} == {"plain", "dict", "rle", "native"}
