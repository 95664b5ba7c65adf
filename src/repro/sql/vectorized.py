"""Vectorized (batch-at-a-time) execution over either store.

The row pipeline re-materialises every row as a Python tuple; routed to
the columnar replica that barely changes the cost profile.  The operators
here move whole column slices (``Batch``) instead.  Routed to the
replica, the scan skips entire segments via zone maps, evaluates pushed
predicates in value space and hands the surviving columns on as
zero-copy views or lazy gathers.  Unrouted, the same scan reads the
transaction's snapshot of the row store, as ``SeqScan`` does, filters
each row batch by the pushed predicates and transposes the projected
columns into plain lists; the join, groupjoin and aggregate above it
are the same operators.

The planner compiles every vector-tree expression with the row tree's
compiler, ``repro.sql.expressions.compile_expr``, and the operators
evaluate those closures through ``eval_column``: a bare column reference
is the batch's column object itself (still encoded or lazily gathered, so
typed folds and sketches see it as stored), anything else runs the row
closure over ``Batch.rows()``.  NULL semantics, AND / OR short-circuit
and CASE laziness are therefore the row pipeline's by construction.

Two operator families:

* **batch operators** (``VectorNode``: ``execute_batches(ctx, size) ->
  Iterator[Batch]``, ``size`` reaching the scan so a lazy consumer is
  handed no further than it pulls): ``VColumnarScan`` (with
  zone-map segment pruning on the replica),
  ``VFilter`` (selection vectors) and ``VHashJoin``;
* **row-emitting operators** (``BatchNode``s, so the planner stacks the
  ordinary Sort / TopN / Limit / Distinct presentation on top):
  ``BatchRows`` projects a batch tree's SELECT list into rows, and
  ``BatchAggregate`` is the one aggregate of *both* trees — it folds a
  vector tree's batches or a row tree's row lists alike, through
  ``eval_column`` into one ``GroupedAggregation``.  Only the vector
  tree's aggregate reads the sketch cache or runs as a groupjoin.

Both pipelines must return *identical* results on either store — the
parity tests compare them query-by-query against the row tree
(``Executor.use_vectorized = False``).
"""

from __future__ import annotations

from contextlib import closing
from itertools import chain, repeat
from operator import itemgetter

from repro.sql.expressions import Schema, eval_column
from repro.sql.functions import GroupedAggregation, _gather
from repro.sql.plannode import (
    BATCH_ROWS,
    BatchNode,
    argument_columns,
    build_table,
    chunked,
)
from repro.sql.result import Batch, SegmentBatch
from repro.storage.columnstore import (
    DictColumn,
    NativeColumn,
    RLEColumn,
)


# ---------------------------------------------------------------------------
# pushed-down scan predicates (zone-map pruning + value-space filtering)
# ---------------------------------------------------------------------------

class PushedPredicate:
    """A single-column range/equality/IN predicate pushed into the scan.

    Bounds are compiled constant expressions (literals, parameters,
    arithmetic over them) evaluated once per execution; ``None`` fns leave
    that side open.  Equality pushes the same fn as both bounds; IN-lists
    push one compiled fn per item (``item_fns``).

    Pushed predicates are evaluated *exactly* by the scan — one value-space
    sweep over whatever encoding the segment column holds — mirroring the
    row pipeline's NULL-falsy comparison semantics, so the planner does not
    re-apply them above the scan.
    """

    __slots__ = ("position", "low_fn", "high_fn",
                 "low_inclusive", "high_inclusive", "item_fns", "not_null")

    def __init__(self, position: int, low_fn=None, high_fn=None,
                 low_inclusive: bool = True, high_inclusive: bool = True,
                 item_fns=None, not_null: bool = False):
        self.position = position
        self.low_fn = low_fn
        self.high_fn = high_fn
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.item_fns = item_fns          # not None => IN-list predicate
        self.not_null = not_null          # IS NOT NULL (no bounds at all)

    def bounds(self, ctx):
        """Evaluate to ``(low, high)``; a bound that evaluates to NULL makes
        the predicate unsatisfiable (comparison with NULL is never true)."""
        low = self.low_fn((), ctx) if self.low_fn is not None else None
        high = self.high_fn((), ctx) if self.high_fn is not None else None
        unsatisfiable = ((self.low_fn is not None and low is None)
                         or (self.high_fn is not None and high is None))
        return low, high, unsatisfiable

    def evaluate(self, ctx) -> "_EvalPred | None":
        """Bind the predicate's constants for one execution.

        Returns ``None`` when the predicate is unsatisfiable (a NULL bound
        or an all-NULL IN list): no row can ever compare true against it.
        """
        if self.not_null:
            return _EvalPred(self.position, not_null=True)
        if self.item_fns is not None:
            values = [fn((), ctx) for fn in self.item_fns]
            present = [v for v in values if v is not None]
            if not present:
                return None
            return _EvalPred(self.position, in_values=present)
        low, high, unsatisfiable = self.bounds(ctx)
        if unsatisfiable:
            return None
        return _EvalPred(self.position, low=low, high=high,
                         low_inclusive=self.low_inclusive,
                         high_inclusive=self.high_inclusive,
                         is_eq=(self.low_fn is not None
                                and self.low_fn is self.high_fn))


def _eq_test(value):
    return lambda v: v is not None and v == value


def _membership_test(wanted):
    return lambda v: v is not None and v in wanted


def _not_null_test(v):
    return v is not None


def _null_count(column) -> int:
    """NULLs in ``column``, counted at C speed per encoding."""
    if isinstance(column, NativeColumn):
        return len(column.nulls)
    if isinstance(column, DictColumn):
        return column.codes.count(-1)
    if isinstance(column, RLEColumn):
        return sum(length for value, length in zip(column.run_values,
                                                   column.run_lengths)
                   if value is None)
    return column.count(None)                # plain list


def _not_null_selection(column) -> list | None:
    """Selection of an IS NOT NULL predicate; ``None`` = all rows pass.

    Proving a column null-free costs one C-level count per encoding
    (``_null_count``).  The common case (mandatory columns,
    fully-populated segments) then keeps the scan's zero-copy
    whole-segment path alive — which is what makes segment sketches
    applicable under a pushed not-null predicate.
    """
    if not _null_count(column):
        return None
    if isinstance(column, NativeColumn):
        nulls = column.nulls
        return [i for i in range(len(column)) if i not in nulls]
    if isinstance(column, DictColumn):
        return [i for i, code in enumerate(column.codes) if code >= 0]
    return [i for i, v in enumerate(column) if v is not None]


class _NotNullOffsets:
    """The offsets of ``column``'s non-NULL values: counted up front,
    listed on first iteration — a warm sketch hit needs only the count."""

    __slots__ = ("_column", "_count", "_offsets")

    def __init__(self, column, count: int):
        self._column = column
        self._count = count
        self._offsets = None

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        if self._offsets is None:
            self._offsets = _not_null_selection(self._column)
        return iter(self._offsets)


def _range_test(low, high, low_inc, high_inc):
    """Specialised NULL-falsy range test (one comparison chain per value,
    no generic-helper call — this runs once per row on the scan hot path).
    Mirrors the row pipeline's comparison semantics, TypeErrors included."""
    if high is None:
        if low_inc:
            return lambda v: v is not None and v >= low
        return lambda v: v is not None and v > low
    if low is None:
        if high_inc:
            return lambda v: v is not None and v <= high
        return lambda v: v is not None and v < high
    if low_inc and high_inc:
        return lambda v: v is not None and low <= v <= high
    if low_inc:
        return lambda v: v is not None and low <= v < high
    if high_inc:
        return lambda v: v is not None and low < v <= high
    return lambda v: v is not None and low < v < high


class _EvalPred:
    """One pushed predicate with its constants bound for this execution."""

    __slots__ = ("position", "low", "high", "low_inclusive",
                 "high_inclusive", "in_values", "test", "not_null")

    def __init__(self, position: int, low=None, high=None,
                 low_inclusive: bool = True, high_inclusive: bool = True,
                 is_eq: bool = False, in_values=None,
                 not_null: bool = False):
        self.position = position
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.in_values = in_values
        self.not_null = not_null
        if not_null:
            self.test = _not_null_test
        elif in_values is not None:
            try:
                wanted = set(in_values)
            except TypeError:      # unhashable constant: linear fallback
                wanted = tuple(in_values)
            self.test = _membership_test(wanted)
        elif is_eq:
            self.test = _eq_test(low)
        else:
            self.test = _range_test(low, high, low_inclusive, high_inclusive)

    def zone_allows(self, segment) -> bool:
        """Could any row of ``segment`` satisfy this predicate?  Asks the
        segment's zone map, which every encoding keeps alike."""
        if self.in_values is not None:
            return any(segment.may_contain(self.position, v, v)
                       for v in self.in_values)
        return segment.may_contain(self.position, self.low, self.high,
                                   self.low_inclusive, self.high_inclusive)

    def column_selection(self, column) -> list | None:
        """Offsets of the rows of ``column`` that pass.

        One value-space sweep through the column's sequence protocol,
        whatever its encoding.  IS NOT NULL returns a ``None`` selection
        when the column is provably null-free: the predicate is absorbed
        and every row flows through.
        """
        if self.not_null:
            return _not_null_selection(column)
        test = self.test
        return [i for i, v in enumerate(column) if test(v)]


def _zone_pruned(segment, preds) -> bool:
    """Do the zone maps rule ``segment`` out?"""
    return any(not pred.zone_allows(segment) for pred in preds)


class _LazyColumn:
    """A deferred gather of one column at the surviving scan offsets.

    Late materialization: the scan's selection vector is carried as
    ``(column, selection)`` and only decoded — once, memoised — if a
    downstream operator actually touches the column.  Columns that only
    served pushed predicates are never materialised at all.  The selection
    is an offset list or a ``_NotNullOffsets``, listed only then.
    """

    __slots__ = ("_column", "_selection", "_stats", "_data")

    def __init__(self, column, selection, stats=None):
        self._column = column
        self._selection = selection
        self._stats = stats
        self._data = None

    def _materialise(self) -> list:
        data = self._data
        if data is None:
            column = self._column
            selection = self._selection
            if hasattr(column, "gather"):
                data = column.gather(selection)
            else:
                data = list(map(column.__getitem__, selection))
            self._data = data
            if self._stats is not None:
                self._stats.columns_decoded += 1
                self._stats.values_decoded += len(data)
        return data

    @property
    def all_ints(self) -> bool:
        """Type guarantee inherited from the source column (a selection of
        a no-NULL int column is still all non-NULL ints)."""
        return getattr(self._column, "all_ints", False)

    @property
    def all_floats(self) -> bool:
        return getattr(self._column, "all_floats", False)

    def __len__(self) -> int:
        return len(self._selection)

    def __iter__(self):
        return iter(self._materialise())

    def __getitem__(self, i: int):
        return self._materialise()[i]

    def count(self, value) -> int:
        return self._materialise().count(value)

    def gather(self, selection: list) -> list:
        data = self._materialise()
        return [data[i] for i in selection]


# ---------------------------------------------------------------------------
# batch operators
# ---------------------------------------------------------------------------

class VectorNode:
    """Base batch operator: ``execute_batches(ctx)`` yields ``Batch``es."""

    schema: Schema

    def execute_batches(self, ctx, size: int = BATCH_ROWS):  # pragma: no cover
        raise NotImplementedError

    def children(self) -> list:
        return []


class VColumnarScan(VectorNode):
    """Segment-at-a-time scan of a columnar table with zone-map pruning
    and exact value-space evaluation of pushed predicates.

    ``columns`` projects the scan to the named columns (table order); the
    operator's schema shrinks with it, so downstream expressions resolve
    against the projected layout.  Pushed-predicate positions stay
    full-table positions — zone maps and segment columns are per full
    table layout, independent of what the batch materialises.

    Execution per segment: zone maps prune whole segments; surviving
    segments sweep each pushed predicate's column in value space through
    its sequence protocol, whatever the encoding, producing a selection
    vector; the projected columns are then wrapped as lazy gathers, so
    only columns (and positions) a downstream operator touches are ever
    decoded.

    Under a partitioned replica the scan reads the per-partition segment
    sets one after another as one batch stream; a pushed *equality*
    predicate on the partition key (the first primary-key column) prunes
    the scan to the one partition that hash can reach, and zone maps prune
    segments within each partition.
    """

    def __init__(self, table, binding: str,
                 pushed: list[PushedPredicate] | None = None,
                 columns: list[str] | None = None):
        self.table = table
        self.binding = binding
        self.pushed = pushed or []
        self.columns = columns
        self.partition_position = table.pk_positions[0]
        names = table.column_names if columns is None else columns
        self.positions = [table.position(c) for c in names]
        self.schema = Schema([(binding, col) for col in names])

    def _target_partitions(self, ctx, preds, n_parts: int) -> list[int]:
        """Partition ids the scan must visit (partition pruning by the
        bound value of a pushed partition-key equality)."""
        if n_parts > 1:
            for pushed, pred in zip(self.pushed, preds):
                if (pushed.position == self.partition_position
                        and pushed.low_fn is not None
                        and pushed.low_fn is pushed.high_fn):
                    return [ctx.columnar.pmap.partition_of_value(pred.low)]
        return list(range(n_parts))

    def _segment_selection(self, segment, preds):
        """Selection vector of rows passing every pushed predicate.

        ``None`` means "all rows" (no pushed predicates, or every pushed
        predicate absorbed — e.g. IS NOT NULL on a provably null-free
        column).  The first selecting predicate filters on its (possibly
        encoded) column; later ones refine the surviving offsets with
        per-value tests.
        """
        selection = None
        for pred in preds:
            column = segment.columns[pred.position]
            if selection is None:
                selection = pred.column_selection(column)
            else:
                test = pred.test
                selection = [i for i in selection if test(column[i])]
            if selection is not None and not selection:
                break
        return selection

    def _live_selection(self, segment, preds):
        """Surviving offsets after pushed predicates and the live bitmap.

        ``None`` means *every row* (fully-live segment, every predicate
        absorbed — the zero-copy case); otherwise a (possibly empty)
        offset list in physical order.  A fully-live sealed segment under
        IS NOT NULL predicates alone, NULLs in one of their columns, gets
        that column's ``_NotNullOffsets``: its rows may reach a sketch,
        whose hit needs their count, not their offsets.
        """
        if segment.encoded and segment.live_count == segment.size and preds \
                and all(pred.not_null for pred in preds):
            nulls = {pred.position: _null_count(segment.columns[pred.position])
                     for pred in preds}
            nullable = [position for position, count in nulls.items() if count]
            if not nullable:
                return None
            if len(nullable) == 1:
                [position] = nullable
                return _NotNullOffsets(segment.columns[position],
                                       segment.size - nulls[position])
        selection = self._segment_selection(segment, preds)
        if selection is None:
            if segment.live_count == segment.size:
                return None
            live = segment.live
            return [i for i in range(segment.size) if live[i]]
        if segment.live_count != segment.size:
            live = segment.live
            selection = [i for i in selection if live[i]]
        return selection

    def _segment_emit(self, segment, selection, stats):
        """The batch of one segment's surviving selection.

        ``selection=None`` emits zero-copy column views; an empty
        selection emits nothing (``None``).
        """
        positions = self.positions
        if selection is None:
            # untouched segment: zero-copy column views.  Sealed segments
            # additionally carry their identity, so a sketch-eligible
            # aggregate (``BatchAggregate.sketch_key``) may fold a cached
            # state instead (open/delta segments never do — they keep
            # growing, so their content is not memoisable).
            stats.batches_scanned += 1
            columns = [segment.columns[p] for p in positions]
            if segment.encoded:
                return SegmentBatch(columns, segment.size, segment)
            return Batch(columns, segment.size)
        if not selection:
            return None
        stats.batches_scanned += 1
        columns = [_LazyColumn(segment.columns[p], selection, stats)
                   for p in positions]
        if segment.encoded and segment.live_count == segment.size \
                and all(p.not_null for p in self.pushed):
            # the selection came only from IS NOT NULL predicates on a
            # fully-live sealed segment: deterministic given the segment's
            # content, so the fold may cache the filtered state (the
            # sketch key carries the filter positions; lazy gathers — a
            # warm hit never materialises these columns, nor builds a
            # ``_NotNullOffsets`` selection)
            return SegmentBatch(columns, len(selection), segment)
        return Batch(columns, len(selection))

    def _bind(self, ctx) -> list | None:
        """The pushed predicates with their constants bound for this
        execution; ``None`` when one is unsatisfiable (a NULL bound)."""
        preds = []
        for pushed in self.pushed:
            pred = pushed.evaluate(ctx)
            if pred is None:
                return None
            preds.append(pred)
        return preds

    def _scan_row_store(self, ctx, size: int):
        """``ctx.row_store_batches`` (read and charged as ``SeqScan``
        reads and charges it) filtered as ``Filter`` filters it: the
        pushed predicates are bound at the first row, where ``Filter``
        first evaluates them, so an empty table never raises on their
        constants; an unsatisfiable one (a NULL bound) still reads every
        row.  Only the projected positions of the survivors are then
        transposed, into lists (the typed folds take their census of a
        plain list only)."""
        getters = [itemgetter(p) for p in self.positions]
        bound = False
        with closing(ctx.row_store_batches(self.table.name, size)) as scan:
            for rows in scan:
                if not bound:
                    preds, bound = self._bind(ctx), True
                if preds is None:
                    continue
                for pred in preds:
                    test, position = pred.test, pred.position
                    rows = [row for row in rows if test(row[position])]
                if rows:
                    yield Batch([list(map(get, rows)) for get in getters],
                                len(rows))

    def _scan_replica(self, ctx):
        """The replica's batches: the target partitions' live segments in
        physical order, zone-pruned and filtered by the pushed predicates.

        The predicates bind once the scan knows it has a live segment to
        read, as ``_scan_row_store`` binds them at its first row: a replica
        holding no live row evaluates none of their constants.  That
        includes a partition-key equality, whose bound value prunes the
        partitions, so such a scan visits every (empty) partition."""
        stats = ctx.stats
        # one consistent view of (main segments, delta tail) per partition:
        # a compaction on another thread swapping the main mid-scan cannot
        # change what this scan reads
        views = [part.read_snapshot()
                 for part in ctx.columnar.table_partitions(self.table.name)]
        live = [[segment for segment in chain(*view) if segment.live_count]
                for view in views]
        preds = self._bind(ctx) if any(live) else []
        if preds is None:
            # unsatisfiable (NULL bound): every partition is irrelevant,
            # so the scanned+pruned == partition-count invariant holds
            stats.segments_pruned += sum(map(len, live))
            stats.partitions_pruned += len(views)
            return
        pids = self._target_partitions(ctx, preds, len(views))
        stats.partitions_scanned += len(pids)
        stats.partitions_pruned += len(views) - len(pids)
        stats.scatter_partitions = max(stats.scatter_partitions, len(pids))
        for pid in pids:
            _main, delta = views[pid]
            stats.delta_rows_pending += sum(
                segment.live_count for segment in delta)
            for segment in live[pid]:
                if _zone_pruned(segment, preds):
                    stats.segments_pruned += 1
                    continue
                if segment.encoded:
                    stats.segments_encoded += 1
                batch = self._segment_emit(
                    segment, self._live_selection(segment, preds), stats)
                if batch is not None:
                    yield batch

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        name = self.table.name
        stats = ctx.stats
        stats.full_scans[name] += 1
        if not ctx.reads_replica:
            yield from self._scan_row_store(ctx, size)
            return
        stats.used_columnar = True
        scanned = 0
        try:
            for batch in self._scan_replica(ctx):
                rows = len(batch)
                if size >= BATCH_ROWS or size >= rows:
                    scanned += rows
                    yield batch
                    continue
                # a lazy consumer (``execute`` asks for one row at a time):
                # the segment's rows ``size`` at a time, so it is handed —
                # and charged — no further than it pulls
                for start in range(0, rows, size):
                    piece = batch.take(range(start, min(start + size, rows)))
                    scanned += len(piece)
                    yield piece
        finally:
            # also reached when a lazy consumer closes the scan early, as
            # ``row_store_batches`` charges the rows it handed on
            stats.rows_columnar[name] += scanned


class VFilter(VectorNode):
    """Batch filter: the predicate's column of each input batch becomes
    its selection vector (NULL is falsy, as in the row ``Filter``)."""

    def __init__(self, child: VectorNode, predicate):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        predicate = self.predicate
        for batch in self.child.execute_batches(ctx, size):
            selection = [i for i, keep in enumerate(
                eval_column(predicate, batch, ctx)) if keep]
            if not selection:
                continue
            if len(selection) == len(batch):
                yield batch
            else:
                yield batch.take(selection)

    def children(self):
        return [self.child]


class VHashJoin(VectorNode):
    """Batch equi-join; builds on the right input, probes batch-at-a-time.

    Late materialisation: a join is two index vectors, never a joined
    tuple.  The build side is kept as concatenated columns plus a ``key ->
    build row`` table — a bare index while every key is unique, a list of
    indices once one repeats (decided from the data); a single-column key
    is hashed as the bare value.  A probe batch is one C-level
    ``map(table.get, keys)``.  When every row hits a unique key (the
    FK -> PK shape) the probe batch's columns pass through as the objects
    they are — still encoded, so typed folds survive the join — otherwise
    ``Batch.take`` gathers them; each build column is a lazy gather over
    the hits, so one nothing above the join reads is never built.

    Emission order matches the row pipeline's ``HashJoin`` exactly: left
    rows in scan order, matches per key in right-input order.
    """

    def __init__(self, left: VectorNode, right: VectorNode,
                 left_fns, right_fns, kind: str = "INNER"):
        self.left = left
        self.right = right
        self.left_fns = left_fns
        self.right_fns = right_fns
        self.kind = kind
        self.schema = left.schema + right.schema

    def _keys(self, batch, probing: bool, ctx):
        """One batch's join keys: the key column itself, or a zip of
        several."""
        key_cols = [eval_column(fn, batch, ctx)
                    for fn in (self.left_fns if probing else self.right_fns)]
        return key_cols[0] if len(key_cols) == 1 else zip(*key_cols)

    def _build(self, ctx) -> tuple[list, dict, bool]:
        """``(columns, table, unique)`` of the right input.

        ``columns`` end in one NULL slot, so build row ``-1`` is the
        NULL-extended row of a LEFT join.
        """
        columns: list[list] = [[] for _ in range(len(self.right.schema))]
        keys: list = []
        for batch in self.right.execute_batches(ctx):
            for out, column in zip(columns, batch.columns):
                out.extend(column)
            keys.extend(self._keys(batch, False, ctx))
        table, unique = build_table(keys, range(len(keys)))
        for column in columns:
            column.append(None)
        return columns, table, unique

    def _probe(self, batches, build, ctx):
        columns, table, unique = build
        left_join = self.kind == "LEFT"
        for batch in batches:
            hits = list(map(table.get, self._keys(batch, True, ctx)))
            if unique:
                # out_left None: every probe row exactly once, in order
                out_left, out_right = None, hits
                if not hits.count(None):
                    pass                      # the FK -> PK shape: all hit
                elif left_join:
                    out_right = [-1 if hit is None else hit for hit in hits]
                else:
                    out_left = [i for i, hit in enumerate(hits)
                                if hit is not None]
                    out_right = [hits[i] for i in out_left]
            else:
                out_left, out_right = [], []
                for i, matches in enumerate(hits):
                    if matches:
                        out_left += [i] * len(matches)
                        out_right += matches
                    elif left_join:
                        out_left.append(i)
                        out_right.append(-1)
            if not out_right:
                continue
            ctx.stats.rows_joined += len(out_right)
            left = batch.columns if out_left is None \
                else batch.take(out_left).columns
            yield Batch(left + [_LazyColumn(column, out_right)
                                for column in columns], len(out_right))

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        ctx.stats.join_ops += 1
        yield from self._probe(self.left.execute_batches(ctx, size),
                               self._build(ctx), ctx)

    def children(self):
        return [self.left, self.right]


# ---------------------------------------------------------------------------
# row-emitting operators (the row presentation stacks on top)
# ---------------------------------------------------------------------------

class BatchRows(BatchNode):
    """Projection back into rows: each batch's output columns, one
    ``eval_column`` per column, re-cut into row tuples by one C-level
    zip — the vector tree's SELECT list under the row presentation."""

    def __init__(self, child: VectorNode, fns, names: list[str]):
        self.child = child
        self.fns = fns
        self.schema = Schema([(None, name) for name in names])

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        fns = self.fns
        for batch in self.child.execute_batches(ctx, size):
            yield from chunked(list(zip(*[eval_column(fn, batch, ctx)
                                          for fn in fns])), size)

    def children(self):
        return [self.child]


class BatchAggregate(BatchNode):
    """Hash aggregation, one row per group: the aggregate of both trees.

    The child is a vector tree's ``VectorNode`` (batches) or a row tree's
    ``PlanNode`` (row lists); ``eval_column`` reads either, so both fold
    the same way into one ``GroupedAggregation``.  The kept key columns
    become each batch's group-id column (dependent ones are read once per
    new group, see ``Planner._dependent_keys``) and every argument column
    scatters through it; the global case bulk-folds whole column slices.
    Groups are created — and emitted, as one materialised row list handed
    out in chunks — in first-appearance order, under the ``__G*`` /
    ``__A*`` schema the planner's above-aggregate rewrite reads.

    Only a vector tree's aggregate straight over its base scan gets a
    ``sketch_key`` (``_fold``), and only one over an FK -> PK join of that
    scan a ``groupjoin``: it then folds the join's probe side by its join
    key first — sketches included — and joins the groups, not the rows
    (``_groupjoin``).  The row tree's aggregate has neither, so it never
    reads ``ctx.columnar``.
    """

    def __init__(self, child, group_fns, agg_specs, sketch_key=None,
                 dependent: tuple = ()):
        self.child = child
        self.group_fns = group_fns
        self.agg_specs = agg_specs
        # one flag per group key: fixed by the keys before it, never hashed
        self.dependent = dependent or (False,) * len(group_fns)
        # replica-cache key of this aggregate shape (table column
        # positions of the group keys + (agg name, table column) specs);
        # None when the plan is not sketch-eligible.  The fold reads a
        # scan's ``SegmentBatch``es as segments only while it is set.
        self.sketch_key = sketch_key
        self.top = None  # (aggregate j, LIMIT k): Planner._ranked_aggregate
        names = [f"__G{i}" for i in range(len(group_fns))]
        names += [f"__A{j}" for j in range(len(agg_specs))]
        self.schema = Schema([(None, name) for name in names])

    #: ``(probe-side aggregate, build-side positions of the dependent
    #: GROUP BY columns)`` when the planner lets the aggregate fold its
    #: join's probe side before the join (``_groupjoin``)
    groupjoin = None

    def _new_groups(self) -> GroupedAggregation:
        return GroupedAggregation(
            [(s.name, s.arg_fn is None, s.distinct, s.arg_fn)
             for s in self.agg_specs], self.dependent)

    def _fold_batch(self, batch, ctx, groups: GroupedAggregation):
        """Fold one batch into ``groups``."""
        arg_cols = argument_columns(
            self.agg_specs, lambda fn: eval_column(fn, batch, ctx))
        if not self.group_fns:
            groups.fold(groups.gid(()), arg_cols, len(batch))
            return
        groups.scatter(groups.assign_columns(
            [eval_column(fn, batch, ctx) for fn in self.group_fns]), arg_cols)

    def _fold(self, batches, ctx) -> GroupedAggregation:
        """The child's batches folded into one state.

        ``SegmentBatch``es (whole sealed segments with no surviving
        predicate) fold through the replica's sketch cache one *run* at a
        time: a maximal stretch of consecutive ``SegmentBatch``es, ended by
        any other batch (a delta segment, a segment with dead rows) or by
        the end of the stream.  A run's state is cached under its
        segments' identities and epochs (``SegmentSketchCache``): a hit
        pays one merge of it, or a C-level copy while the statement's
        state is still empty; a miss folds the run's rows once into a
        fresh state, caches it and then merges or copies it the same way,
        so the statement that builds a sketch pays the row work plus one
        copy and every later statement elides it.  Cached states are
        shared across statements and only ever *merged from* or copied:
        their groups arrive in first-encounter row order, so group
        creation (and emission) order is identical to folding the rows
        directly, and the exact merge keeps the values bit-identical too.
        """
        sketches = (ctx.columnar.sketches if self.sketch_key is not None
                    else None)
        groups = self._new_groups()
        rows = 0
        run: list = []
        for batch in batches:
            if sketches is not None and type(batch) is SegmentBatch:
                run.append(batch)
                continue
            if run:
                groups, folded = self._fold_run(run, ctx, groups, sketches)
                rows += folded
                run = []
            rows += len(batch)
            self._fold_batch(batch, ctx, groups)
        if run:
            groups, folded = self._fold_run(run, ctx, groups, sketches)
            rows += folded
        # agg_input_rows records physical fold work for the cost model:
        # rows elided by sketch hits are counted in sketch_rows_elided
        ctx.stats.agg_input_rows += rows
        return groups

    def _fold_run(self, run: list, ctx, groups: GroupedAggregation,
                  sketches) -> tuple[GroupedAggregation, int]:
        """``(state, rows folded)`` after one run of ``SegmentBatch``es
        reached ``groups`` through the sketch cache (see ``_fold``)."""
        stats = ctx.stats
        segments = [batch.segment for batch in run]
        run_key = sketches.run_key(segments, self.sketch_key)
        rows = sum(map(len, run))
        cached = sketches.lookup(run_key)
        if cached is None:
            # cold: fold the run into its own state (its group ids are
            # its own), cache it, then merge or copy it as a hit does
            cached = self._new_groups()
            for batch in run:
                self._fold_batch(batch, ctx, cached)
            sketches.store(run_key, segments, cached, cached.nbytes())
            stats.sketches_built += len(run)
        else:
            # counted per segment, as ``sketches_built`` is
            stats.sketches_hit += len(run)
            stats.sketch_rows_elided += rows
            rows = 0
        # the cache keeps its state: the statement's state stays its own
        if not groups.gids:
            return cached.copy(), rows
        groups.merge(cached)
        return groups, rows

    def aggregate(self, ctx) -> GroupedAggregation:
        """The child's batches folded into a fresh state."""
        groups = self._fold(self.child.execute_batches(ctx), ctx)
        if not self.group_fns:
            # global aggregate over an empty input still yields one row
            groups.gid(())
        return groups

    def _groupjoin(self, ctx) -> tuple[GroupedAggregation, list | None]:
        """``(state, matched group ids)`` of the aggregate over its join,
        the join folded in after the aggregation (a groupjoin: Moerkotte &
        Neumann, VLDB 2011).

        The build side is built first.  While its keys are unique, the
        probe-side aggregate folds the join's left scan by the join key —
        through the sketch cache, as a single-table aggregate would — and
        each group probes the build table once: a probe row joins iff its
        key does, so the groups that match, in id order, are the join's
        groups in its first-appearance order, with the same rows folded.
        Build-side GROUP BY values are read from the matched build rows;
        the cached states hold probe-side data only.  A repeated build key
        (the data decides, not the catalog) runs the join, then the fold,
        as any aggregate over a join does; ``None`` then stands for every
        group.
        """
        probe, positions = self.groupjoin
        columns, table, unique = self.child._build(ctx)
        if not unique:
            return self.aggregate(ctx), None
        ctx.stats.join_ops += 1
        groups = probe.aggregate(ctx)
        # one C-level probe per group; -1 is the build columns' NULL slot
        hits = list(map(table.get, groups.gids, repeat(-1)))
        misses = hits.count(-1)
        ctx.stats.rows_joined += len(hits) - misses
        groups.attach(self.dependent,
                      [_gather(columns[p], hits) for p in positions])
        if not misses:
            return groups, None
        return groups, [gid for gid, hit in enumerate(hits) if hit >= 0]

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        if self.groupjoin is None:
            groups, gids = self.aggregate(ctx), None
        else:
            groups, gids = self._groupjoin(ctx)
        rows = groups.rows(self.top, gids)
        grouped = len(groups) if gids is None else len(gids)
        ctx.stats.groups += grouped
        ctx.stats.sort_rows += grouped - len(rows)  # ORDER BY ranks all
        yield from chunked(rows, size)

    def children(self):
        return [self.child]
