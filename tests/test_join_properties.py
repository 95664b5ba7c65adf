"""Hash join: generated differential against the row twin, and laziness.

``VHashJoin`` joins by two index vectors — probe columns pass through
still encoded, build columns are lazy gathers — and hashes key values.
The property here runs generated tables through every join shape on the
vectorized engine and on the row plan nodes over the same replica: same
rows in the same order and the same ``rows_joined``, with string keys
inside and outside a table dictionary that demotes part-way.
"""

from array import array
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.sql.executor import ExecContext
from repro.sql.expressions import Schema, column_fn
from repro.sql.planner import AggSpec
from repro.sql.result import Batch
from repro.sql.vectorized import (
    BatchAggregate,
    VectorNode,
    VHashJoin,
    _LazyColumn,
)
from repro.storage import columnstore
from repro.storage.columnstore import (
    DictColumn,
    NativeColumn,
    RLEColumn,
    TableDictionary,
)

# a string domain wider than the straddling dictionary cap below: early
# segments seal into the table-level dictionary, later ones demote, and
# some build values are dictionary-absent
STRINGS = [f"s{i}" for i in range(7)]

_s = st.one_of(st.none(), st.sampled_from(STRINGS))
# probe keys are ints, build keys their float equals (plus a non-integer)
_l_row = st.tuples(st.one_of(st.none(), st.integers(0, 4)), _s,
                   st.sampled_from([0.5, 1.25, -3.0, 1e-9]))
_r_row = st.tuples(st.one_of(st.none(), st.sampled_from(
    [0.0, 1.0, 2.0, 3.0, 2.5])), _s, st.integers(0, 2))
# a first load (sealed whole by a forced compaction, else only as far as
# replication's own merges go), then a plain-delta tail
_l_rows = st.tuples(st.lists(_l_row, max_size=30),
                    st.lists(_l_row, max_size=8))
_r_rows = st.tuples(st.lists(_r_row, max_size=20),
                    st.lists(_r_row, max_size=5))

KEYS = {
    "int_float": "l.a = r.a",
    "two_column": "l.a = r.a AND l.s = r.s",
    "string": "l.s = r.s",
}
BARE = "SELECT l.id, l.a, l.s, l.x, r.id, r.a, r.s, r.y FROM l {join} r ON {on}"
GROUPED = ("SELECT l.s, r.y, COUNT(*), SUM(l.x), SUM(r.a), MIN(r.id) "
           "FROM l {join} r ON {on} GROUP BY l.s, r.y")
# one probe-side string key grouped above the join
GROUPED_CODED = ("SELECT l.s, COUNT(*), SUM(r.y) FROM l {join} r ON {on} "
                 "GROUP BY l.s")


def _load(db, name, rows, start):
    db.bulk_load(name, [(start + i, *row) for i, row in enumerate(rows)])
    db.replicate()


def _make_db(l_rows, r_rows, cardinality, compact):
    # 8-row segments: a generated table spans several sealed segments
    db = Database(with_columnar=True, columnar_segment_rows=8)
    with mock.patch.object(columnstore, "SHARED_DICT_MAX_CARDINALITY",
                           cardinality):
        db.execute_ddl("CREATE TABLE r (id INT PRIMARY KEY, a DOUBLE, "
                       "s VARCHAR(8), y INT)")
        db.execute_ddl("CREATE TABLE l (id INT PRIMARY KEY, a INT, "
                       "s VARCHAR(8), x DOUBLE)")
    _load(db, "l", l_rows[0], 0)
    _load(db, "r", r_rows[0], 0)
    if compact:
        db.columnar.compact(force=True)
    _load(db, "l", l_rows[1], 1000)
    _load(db, "r", r_rows[1], 1000)
    return db


class TestJoinDifferential:
    @given(_l_rows, _r_rows,
           st.sampled_from([columnstore.SHARED_DICT_MAX_CARDINALITY, 3]),
           st.booleans())
    @settings(max_examples=60, deadline=None,
              # ``routed`` is a stateless helper handed out as a fixture
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_vectorized_equals_row_twin(self, routed, l_rows, r_rows,
                                        cardinality, compact):
        db = _make_db(l_rows, r_rows, cardinality, compact)
        for key, on in KEYS.items():
            for join in ("JOIN", "LEFT JOIN"):
                for shape in (BARE, GROUPED, GROUPED_CODED):
                    sql = shape.format(join=join, on=on)
                    vec = routed(db, sql)
                    row = routed(db, sql, vectorized=False)
                    assert vec.stats.vectorized and not row.stats.vectorized
                    assert vec.rows == row.rows, sql
                    assert vec.stats.rows_joined == row.stats.rows_joined


# ---------------------------------------------------------------------------
# laziness: what an all-hit unique-build join hands the operator above it
# ---------------------------------------------------------------------------

class _Batches(VectorNode):
    """A fixed batch stream, remembering what it handed out."""

    def __init__(self, names, batches):
        self.schema = Schema([(None, name) for name in names])
        self.batches = batches

    def execute_batches(self, ctx, size=None):
        yield from self.batches


class _Tap(VectorNode):
    """Passes its child's batches through, keeping a reference to each."""

    def __init__(self, child):
        self.child = child
        self.schema = child.schema
        self.seen = []

    def execute_batches(self, ctx, size=None):
        for batch in self.child.execute_batches(ctx):
            self.seen.append(batch)
            yield batch


class TestLateMaterialisation:
    def _join(self, kind="INNER"):
        shared = TableDictionary()
        codes = shared.encode(["x", "y", "x", "y"])
        probe = Batch([
            NativeColumn(array("q", [2, 0, 1, 2]), frozenset()),
            DictColumn(codes, shared, frozenset(codes)),
            RLEColumn([7, 9], array("q", [3, 1])),
        ], 4)
        build = Batch([[0, 1, 2], ["zero", "one", "two"],
                       [0.5, 1.5, 2.5], ["u", "v", "w"]], 3)
        join = VHashJoin(_Batches(["fk", "tag", "run"], [probe]),
                         _Batches(["pk", "name", "price", "unit"], [build]),
                         [column_fn(0)], [column_fn(0)], kind)
        return join, probe

    def test_aggregate_above_reads_one_build_column(self):
        join, probe = self._join()
        tap = _Tap(join)
        # SUM(price) GROUP BY tag: one probe column, one build column
        aggregate = BatchAggregate(
            tap, [column_fn(1)], [AggSpec("SUM", column_fn(5), False)])
        ctx = ExecContext(None)
        rows = [row for batch in aggregate.execute_batches(ctx)
                for row in batch]
        assert rows == [("x", 2.5 + 1.5), ("y", 0.5 + 2.5)]
        assert ctx.stats.rows_joined == 4
        (joined,) = tap.seen
        # the probe batch's encoded columns reach the aggregate as the
        # objects they are
        assert all(out is column
                   for out, column in zip(joined.columns, probe.columns))
        # of the four build columns only the one the aggregate read exists
        gathers = joined.columns[3:]
        assert all(type(column) is _LazyColumn for column in gathers)
        assert [column._data is not None for column in gathers] \
            == [False, False, True, False]

    def test_every_shape_gathers_lazily(self):
        # a miss (INNER drops the row, LEFT NULL-extends it) and a
        # repeated build key leave the all-hit shape but not the laziness
        for kind, expected in (
                ("INNER", [(2, "two"), (0, "zero"), (2, "two")]),
                ("LEFT", [(2, "two"), (0, "zero"), (5, None), (2, "two")])):
            join, probe = self._join(kind)
            probe.columns[0] = [2, 0, 5, 2]
            (joined,) = join.execute_batches(ExecContext(None))
            gathers = joined.columns[3:]
            assert all(column._data is None for column in gathers)
            assert list(zip(joined.columns[0], gathers[1])) == expected
            assert gathers[0]._data is None
        join, probe = self._join()
        join.right.batches[0].columns[0][:] = [2, 1, 2]
        (joined,) = join.execute_batches(ExecContext(None))
        assert list(zip(joined.columns[0], joined.columns[4])) \
            == [(2, "zero"), (2, "two"), (1, "one"), (2, "zero"),
                (2, "two")]
        assert joined.columns[5]._data is None
