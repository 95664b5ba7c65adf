"""Rule-based planner: AST -> executable plan tree.

Access-path selection mirrors what the paper's DBMSs do well and badly:

* equality predicates covering the full primary key -> point lookup;
* equality predicates covering a *prefix* of a composite primary key ->
  ordered PK-index prefix scan;
* equality predicates covering a secondary index prefix -> index scan;
* anything else -> full table scan.  A predicate on a non-prefix column of a
  composite key (tabenchmark's ``sub_nbr``) therefore full-scans, which is
  the slow-query bottleneck §VI-C of the paper pins on both DBMSs.

Access paths double as **partition pruning** under hash-partitioned
storage: PK point lookups and PK-prefix scans bind to exactly one
partition (the partition key is the first PK column), secondary-index
lookups scatter to every partition, and full scans read them all.  Scan
operators record what they touched/skipped in ``partitions_scanned`` /
``partitions_pruned``; the vectorized columnar scan additionally prunes
partitions from pushed partition-key equality predicates.

A SELECT gets two physical trees from one split of its FROM clause:
``Planner._from_clause`` walks the tables once and hands each its
single-table conjuncts and each join its equi keys and ON residue.
``_plan_from`` picks access paths and join operators over that split for
the row tree; ``_plan_vector_source`` mirrors it only when the row tree
just scans — every table a ``SeqScan``, every join a ``HashJoin``.  The
executor then runs the vector tree, whose scans read the columnar replica
when the statement is routed there and the row store otherwise; the row
tree is the oracle (``Executor.use_vectorized = False``), and point,
prefix, index, DML, FOR UPDATE and subquery plans have only it.  Both
trees compile their expressions with the
one compiler, ``compile_expr``; the vector operators evaluate its closures
a batch at a time (``eval_column``).  The two trees share one aggregate
operator, ``BatchAggregate``, built by ``_plan_aggregate`` over either
tree's input; only the vector tree's reads the sketch cache.

Joins become hash joins whenever an equi-join key is available, otherwise
nested loops.  Single-table predicates are pushed to the scans; the filter
above a scan holds only the *residual* — what the access path does not
already prove.  The bound equalities of a PK lookup or PK-prefix scan hold
for every row it returns and are not evaluated again; a secondary-index
path proves nothing (its entries may be stale), so its filter re-applies
the whole predicate.  That scan under its residual filter is also what
UPDATE / DELETE read their targets through, a ``SELECT … FOR UPDATE``'s
commit validates the rows of its FROM node (the scan under its filters),
and an index join probes its inner table with the keyed read of a
``PKLookup`` / ``PKPrefixScan``: one reader per access path.

Operators speak the two-way protocol of ``repro.sql.plannode``: the full
and PK-prefix scans, filters, projections, hash and index joins, the
aggregate and sorts are written batch-at-a-time (``BatchNode``), so a
draining statement moves lists of rows from the MVCC store to the pipeline
breakers; the lazy consumers (``Limit``, nested-loop joins) still pull row
by row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from itertools import takewhile
from operator import add

from repro.catalog.schema import Catalog, Table
from repro.errors import BindError, PlanError
from repro.sql import ast
from repro.sql.expressions import (
    Schema,
    collect_column_refs,
    column_fn,
    compile_expr,
    eval_column,
    expr_display_name,
)
from repro.sql.ordering import canonical_row_key, sort_key
from repro.sql.plannode import (
    BATCH_ROWS,
    BatchNode,
    PlanNode,
    batched,
    build_table,
    chunked,
)
from repro.sql.vectorized import (
    BatchAggregate,
    BatchRows,
    PushedPredicate,
    VColumnarScan,
    VFilter,
    VHashJoin,
)


# ---------------------------------------------------------------------------
# plan nodes
# ---------------------------------------------------------------------------

def _table_schema(table: Table, binding: str) -> Schema:
    """Every column of ``table`` under ``binding``, in table order."""
    return Schema([(binding, col) for col in table.column_names])


class DualScan(PlanNode):
    """Single empty row — SELECT without FROM."""

    def __init__(self):
        self.schema = Schema([])

    def execute(self, ctx):
        yield ()


class SeqScan(BatchNode):
    """Full-table scan; routed to the columnar replica when the execution
    context says so (analytical routing), otherwise the MVCC row store,
    whose snapshot scan hands its row batches straight through."""

    def __init__(self, table: Table, binding: str):
        self.table = table
        self.binding = binding
        self.schema = _table_schema(table, binding)

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        name = self.table.name
        ctx.stats.full_scans[name] += 1
        # a routed statement reads the replica, which holds every table;
        # point and index lookups never come here: they always hit the
        # row store, as in TiDB
        if not ctx.reads_replica:
            yield from ctx.row_store_batches(name, size)
            return
        ctx.stats.used_columnar = True
        ctx.stats.partitions_scanned += ctx.columnar.partitions
        count = 0
        try:
            for batch in batched(
                    (values for part in ctx.columnar.table_partitions(name)
                     for _pk, values in part.scan()), size):
                count += len(batch)
                yield batch
        finally:
            # also reached when a lazy consumer closes the scan early: the
            # rows it did pull are charged
            ctx.stats.rows_columnar[name] += count


class PKLookup(BatchNode):
    """Point lookup by full primary key.

    ``key_fns`` compute the key from the row that drives the lookup: the
    empty row for a scan, the outer row for an ``IndexJoin``'s inner side,
    which calls the keyed ``read`` once per outer row.
    """

    def __init__(self, table: Table, binding: str, key_fns):
        self.table = table
        self.binding = binding
        self.key_fns = key_fns
        self.schema = _table_schema(table, binding)

    def read(self, key: tuple, ctx, size: int = BATCH_ROWS):
        """The row under ``key`` as batches (none when it is absent),
        charged as one PK lookup."""
        ctx.stats.pk_lookups += 1
        values = ctx.txn.get(self.table.name, key)
        if values is None:
            return ()
        ctx.stats.rows_row_store[self.table.name] += 1
        return ([values],)

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        # PK routing is perfect partition pruning: one partition read
        ctx.stats.partitions_scanned += 1
        ctx.stats.partitions_pruned += ctx.partition_count - 1
        return self.read(tuple(fn((), ctx) for fn in self.key_fns), ctx)


class PKPrefixScan(BatchNode):
    """Range scan over a prefix of the (composite) primary key; the store's
    prefix-scan batches pass straight through.  ``key_fns`` compute the
    prefix as ``PKLookup``'s compute its key."""

    def __init__(self, table: Table, binding: str, key_fns):
        self.table = table
        self.binding = binding
        self.key_fns = key_fns
        self.schema = _table_schema(table, binding)

    def read(self, prefix: tuple, ctx, size: int = BATCH_ROWS):
        """The rows under ``prefix`` as the store's batches, each charged
        as it is read, all to one range scan."""
        name = self.table.name
        stats = ctx.stats
        stats.index_range_scans += 1
        for _pks, rows in ctx.txn.pk_prefix_scan_batches(name, prefix, size):
            stats.rows_row_store[name] += len(rows)
            stats.rows_row_prefix[name] += len(rows)
            yield rows

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        # the prefix includes the partition key, so one partition serves it
        ctx.stats.partitions_scanned += 1
        ctx.stats.partitions_pruned += ctx.partition_count - 1
        yield from self.read(tuple(fn((), ctx) for fn in self.key_fns), ctx,
                             size)


def _index_candidates(ctx, name: str, index_name: str, key: tuple,
                      prefix: bool = False):
    """Rows of table ``name`` that may carry ``key`` in ``index_name`` (a
    key prefix when ``prefix``), as the statement's transaction sees them.

    The index holds the keys of the table's newest committed rows, so it
    answers only a snapshot at or after the table's ``last_commit_ts``,
    re-checked after the candidate pks are copied (the row store's
    newest-map rule): the transaction's own buffered rows, then the
    committed candidates it has not rewritten.  An older snapshot, or a
    copy a commit landed in, reads the transaction's full scan instead.
    Either way the caller re-checks the key on every row.
    """
    txn = ctx.txn
    store = txn.manager.storage.store(name)
    last = store.last_commit_ts
    pks = None
    if txn.read_ts >= last:
        idx = store.index(index_name)
        if prefix:
            pks = set()
            for _key, entry in idx.prefix_scan(key):
                pks |= entry
        else:
            pks = set(idx.lookup(key))
        if store.last_commit_ts != last:
            pks = None
    if pks is None:
        for _pks, rows in txn.scan_batches(name):
            yield from rows
        return
    seen_local = set()
    for pk, values in txn.local_rows(name):
        seen_local.add(pk)
        if values is not None:
            yield values
    for pk in pks:
        if pk not in seen_local:
            values = txn.get(name, pk)
            if values is not None:
                yield values


class IndexScan(PlanNode):
    """Secondary-index lookup through ``_index_candidates``, so the
    transaction's own uncommitted inserts stay visible.  Candidate rows may
    not carry the key, so the planner always re-applies the key predicates
    in the filter above."""

    def __init__(self, table: Table, binding: str, index_name: str, key_fns,
                 prefix: bool = False):
        self.table = table
        self.binding = binding
        self.index_name = index_name
        self.key_fns = key_fns
        self.prefix = prefix
        self.schema = _table_schema(table, binding)

    def execute(self, ctx):
        key = tuple(fn((), ctx) for fn in self.key_fns)
        name = self.table.name
        ctx.stats.index_lookups += 1
        # secondary-index keys say nothing about placement: scatter lookup
        ctx.stats.partitions_scanned += ctx.partition_count
        count = 0
        try:
            for values in _index_candidates(ctx, name, self.index_name, key,
                                            self.prefix):
                count += 1
                yield values
        finally:
            ctx.stats.rows_row_store[name] += count


class Filter(BatchNode):
    def __init__(self, child: PlanNode, predicate):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        predicate = self.predicate
        for batch in self.child.execute_batches(ctx, size):
            kept = [row for row in batch if predicate(row, ctx)]
            if kept:
                yield kept

    def children(self):
        return [self.child]


class Project(BatchNode):
    def __init__(self, child: PlanNode, fns, names: list[str]):
        self.child = child
        self.fns = fns
        self.schema = Schema([(None, name) for name in names])
        # every input column in place (an aggregate's SELECT list, say):
        # the child's rows are the output rows, renamed by the schema only
        self.identity = bool(fns) and [getattr(fn, "position", None)
                                       for fn in fns] \
            == list(range(len(child.schema)))

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        if self.identity:
            yield from self.child.execute_batches(ctx, size)
            return
        fns = self.fns
        for batch in self.child.execute_batches(ctx, size):
            # column-at-a-time, re-cut into rows by one C-level zip
            yield list(zip(*[eval_column(fn, batch, ctx) for fn in fns]))

    def children(self):
        return [self.child]


def _key_tuples(fns, rows: list, ctx):
    """Per-row key tuples of a batch, evaluated column-at-a-time."""
    return zip(*[eval_column(fn, rows, ctx) for fn in fns])


class HashJoin(BatchNode):
    """Equi-join; builds on the right input, probes from the left.

    The build maps a key to its one row while every key is unique (decided
    from the data), to the list of its rows once one repeats; a probe
    batch is one C-level ``map(build.get, keys)``, and when every row hits
    a unique key (the FK -> PK shape) the joined rows are one
    ``map(add, batch, hits)``.
    """

    def __init__(self, left: PlanNode, right: PlanNode, left_fns, right_fns,
                 kind: str = "INNER"):
        self.left = left
        self.right = right
        self.left_fns = left_fns
        self.right_fns = right_fns
        self.kind = kind
        self.schema = left.schema + right.schema

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        ctx.stats.join_ops += 1
        keys: list = []
        rows: list = []
        for batch in self.right.execute_batches(ctx):
            keys.extend(_key_tuples(self.right_fns, batch, ctx))
            rows.extend(batch)
        build, unique = build_table(keys, rows)
        null_row = (None,) * len(self.right.schema)
        left_outer = self.kind == "LEFT"
        for batch in self.left.execute_batches(ctx, size):
            hits = list(map(build.get,
                            _key_tuples(self.left_fns, batch, ctx)))
            if not unique:
                joined = []
                for row, matches in zip(batch, hits):
                    if matches:
                        joined += [row + match for match in matches]
                    elif left_outer:
                        joined.append(row + null_row)
            elif not hits.count(None):
                joined = list(map(add, batch, hits))
            elif left_outer:
                joined = [row + (null_row if hit is None else hit)
                          for row, hit in zip(batch, hits)]
            else:
                joined = [row + hit for row, hit in zip(batch, hits)
                          if hit is not None]
            # counted before it is handed on, as VHashJoin counts: a
            # LIMIT that closes the join early still pays for this batch
            ctx.stats.rows_joined += len(joined)
            yield from chunked(joined, size)

    def children(self):
        return [self.left, self.right]


class NestedLoopJoin(PlanNode):
    """General join for non-equi conditions (and cross joins)."""

    def __init__(self, left: PlanNode, right: PlanNode, condition=None,
                 kind: str = "INNER"):
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.schema = left.schema + right.schema

    def execute(self, ctx):
        ctx.stats.join_ops += 1
        right_rows = self.right.rows(ctx)
        null_row = (None,) * len(self.right.schema)
        condition = self.condition
        emitted = 0
        for left_row in self.left.execute(ctx):
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if condition is None or condition(combined, ctx):
                    matched = True
                    emitted += 1
                    yield combined
            if not matched and self.kind == "LEFT":
                emitted += 1
                yield left_row + null_row
        ctx.stats.rows_joined += emitted

    def children(self):
        return [self.left, self.right]


class IndexJoin(BatchNode):
    """Index nested-loop join: per outer row, look the inner rows up by
    primary key, PK prefix, or a secondary index.

    ``inner`` is the inner table's ``PKLookup`` or ``PKPrefixScan``, whose
    keyed ``read`` serves each probe, or an ``IndexScan`` naming the
    secondary index; its key fns are compiled against the outer row.

    Chosen when the outer input is selective (not a full scan) and the join
    keys cover the inner table's PK (or an index) — exactly the plan a real
    optimiser picks for TPC-C's StockLevel join, keeping OLTP transactions
    point-read-shaped instead of scan-shaped.

    Both sides are read ``size`` rows at a time and a batch goes out as soon
    as ``size`` joined rows are ready, so the row-at-a-time reading under a
    ``Limit`` looks up — and charges — no inner row past the last one asked
    for.
    """

    def __init__(self, left: PlanNode, inner: PlanNode, inner_filter=None,
                 kind: str = "INNER"):
        self.left = left
        self.inner = inner
        self.inner_filter = inner_filter
        self.kind = kind
        self.schema = left.schema + inner.schema
        # index candidates may not carry the key: remember its positions
        self._recheck_positions: tuple[int, ...] = ()
        if isinstance(inner, IndexScan):
            table = inner.table
            self._recheck_positions = tuple(
                table.position(c)
                for c in table.indexes[inner.index_name].columns)

    def _index_batches(self, key: tuple, ctx, size: int):
        return batched(self._index_rows(key, ctx), size)

    def _index_rows(self, key: tuple, ctx):
        name = self.inner.table.name
        ctx.stats.index_lookups += 1
        positions = self._recheck_positions
        for values in _index_candidates(ctx, name, self.inner.index_name,
                                        key):
            if tuple(values[p] for p in positions) == key:
                ctx.stats.rows_row_store[name] += 1
                yield values

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        ctx.stats.join_ops += 1
        inner = self.inner
        null_row = (None,) * len(inner.schema)
        left_outer = self.kind == "LEFT"
        key_fns = inner.key_fns
        inner_filter = self.inner_filter
        inner_batches = self._index_batches \
            if isinstance(inner, IndexScan) else inner.read
        emitted = 0
        joined: list = []
        for batch in self.left.execute_batches(ctx, size):
            for left_row, key in zip(batch, _key_tuples(key_fns, batch, ctx)):
                matched = False
                for rows in inner_batches(key, ctx, size):
                    if inner_filter is not None:
                        rows = [row for row in rows if inner_filter(row, ctx)]
                    if rows:
                        matched = True
                        emitted += len(rows)
                        joined += [left_row + row for row in rows]
                        if len(joined) >= size:
                            yield from chunked(joined, size)
                            joined = []
                if left_outer and not matched:
                    emitted += 1
                    joined.append(left_row + null_row)
                    if len(joined) >= size:
                        yield joined
                        joined = []
        if joined:
            yield joined
        ctx.stats.rows_joined += emitted

    def children(self):
        return [self.left]


@dataclass
class AggSpec:
    """One aggregate to compute: function name, argument fn (None = ``*``),
    DISTINCT flag.  Structurally equal arguments of one statement share
    one ``arg_fn`` (``Planner._agg_specs``), which is what lets
    ``argument_columns`` evaluate each once per batch."""

    name: str
    arg_fn: object | None
    distinct: bool


class Sort(BatchNode):
    """Materialising sort; multi-key with per-key direction.

    Ties are broken by the canonical whole-row order, so the output is a
    pure function of the input *multiset* — partition-parallel scans may
    deliver rows in any order without changing query results.  The
    tiebreak is applied unconditionally: it must behave identically at
    every partition count (and on both executors), or the same query
    could order ties differently on differently-partitioned databases.
    """

    def __init__(self, child: PlanNode, key_specs):
        # key_specs: list of (fn, descending)
        self.child = child
        self.key_specs = key_specs
        self.schema = child.schema

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        rows = self.child.rows(ctx)
        ctx.stats.sort_rows += len(rows)
        # canonical tiebreak first, then stable sorts from the
        # least-significant key backwards
        rows.sort(key=canonical_row_key)
        for fn, descending in reversed(self.key_specs):
            rows.sort(
                key=lambda row: sort_key(fn(row, ctx)),
                reverse=descending,
            )
        yield from chunked(rows, size)

    def children(self):
        return [self.child]


class _TopNKey:
    """Composite sort key with per-component direction.

    Compares exactly like the planner's successive sorts: component ``i``
    ascending unless ``descs[i]``, NULLs first ascending / last descending
    (the order ``reverse=True`` over ``sort_key`` produces), ties broken
    by the canonical row key (always ascending).
    """

    __slots__ = ("keys", "descs", "tie")

    def __init__(self, keys: tuple, descs: tuple, tie: tuple):
        self.keys = keys
        self.descs = descs
        self.tie = tie

    def __eq__(self, other):
        return self.keys == other.keys and self.tie == other.tie

    def __lt__(self, other):
        for mine, theirs, descending in zip(self.keys, other.keys,
                                            self.descs):
            if mine == theirs:
                continue
            return (theirs < mine) if descending else (mine < theirs)
        return self.tie < other.tie


class TopN(BatchNode):
    """Fused ORDER BY ... LIMIT k, pruned by a sort-key threshold.

    Only the leading sort keys — the longest prefix sharing one direction,
    so plain tuple comparison orders them — are evaluated for every row: a
    key-less ``heapq.nlargest`` / ``nsmallest`` over them (C speed) gives
    the k-th best prefix seen so far, and a row that the prefix alone
    already ranks behind it can never reach the output.  The few rows that
    tie or beat that threshold get the full composite key with the same
    canonical whole-row tiebreak as ``Sort``, so the output is exactly
    ``Sort`` followed by ``Limit`` — independent of input order, and so of
    the groups a ``BatchAggregate.top`` below it dropped as unable to rank.

    Memory stays O(k + batch): the buffer is cut back to at most k rows
    whenever it passes ``2k + SLACK_ROWS``, prefix ties included (the
    full key decides among them).  ``Sort`` sorts every key column
    whole, so it raises ``TypeError`` on a column of uncomparable types
    wherever they sit; rows pruned here are never compared on the later
    keys, so each key column's value types are tracked instead — one
    C-speed ``set(map(type, column))`` per batch — and one value of each
    is compared at the end.
    """

    #: rows buffered beyond ``2 * limit`` before the next cut
    SLACK_ROWS = BATCH_ROWS

    def __init__(self, child: PlanNode, key_specs, limit: int):
        # key_specs: list of (fn, descending), as for Sort
        self.child = child
        self.key_specs = key_specs
        self.limit = limit
        self.schema = child.schema

    def _cut(self, rows: list, leads: list, full_key):
        """The at most ``limit`` buffered rows that can still reach the
        output, with their key prefixes."""
        limit = self.limit
        if self.key_specs[0][1]:
            threshold = heapq.nlargest(limit, leads)[-1]
            keep = [i for i, lead in enumerate(leads) if lead >= threshold]
        else:
            threshold = heapq.nsmallest(limit, leads)[-1]
            keep = [i for i, lead in enumerate(leads) if lead <= threshold]
        if len(keep) > limit:
            # prefix ties straddle the k-th row: the full key decides
            keep = heapq.nsmallest(limit, keep,
                                   key=lambda i: full_key(rows[i]))
        return [rows[i] for i in keep], [leads[i] for i in keep]

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        limit = self.limit
        if limit <= 0:
            return  # like Limit(0): the input is never consumed
        fns = tuple(fn for fn, _ in self.key_specs)
        descs = tuple(descending for _, descending in self.key_specs)
        prefix = next((i for i, descending in enumerate(descs)
                       if descending != descs[0]), len(descs))

        def full_key(row):
            return _TopNKey(tuple(sort_key(fn(row, ctx)) for fn in fns),
                            descs, canonical_row_key(row))

        rows: list = []             # rows that can still reach the output
        leads: list = []            # their sort-key prefixes
        kinds: list = [{} for _ in fns]     # per key column: type -> a value
        count = 0
        for batch in self.child.execute_batches(ctx):
            count += len(batch)
            columns = [eval_column(fn, batch, ctx) for fn in fns]
            for seen, column in zip(kinds, columns):
                for kind in set(map(type, column)) - seen.keys():
                    seen[kind] = next(v for v in column if type(v) is kind)
            rows += batch
            leads += zip(*[[(value is not None, value) for value in column]
                           for column in columns[:prefix]])
            if len(rows) > 2 * limit + self.SLACK_ROWS:
                rows, leads = self._cut(rows, leads, full_key)
        ctx.stats.sort_rows += count
        for seen in kinds:
            sorted(value for value in seen.values() if value is not None)
        if len(rows) > limit:
            rows, leads = self._cut(rows, leads, full_key)
        yield from chunked(sorted(rows, key=full_key), size)

    def children(self):
        return [self.child]


class Limit(PlanNode):
    def __init__(self, child: PlanNode, limit: int):
        self.child = child
        self.limit = limit
        self.schema = child.schema

    def execute(self, ctx):
        remaining = self.limit
        if remaining <= 0:
            return
        for row in self.child.execute(ctx):
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def children(self):
        return [self.child]


class Distinct(BatchNode):
    def __init__(self, child: PlanNode):
        self.child = child
        self.schema = child.schema

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        seen = set()
        for batch in self.child.execute_batches(ctx, size):
            fresh = []
            for row in batch:
                if row not in seen:
                    seen.add(row)
                    fresh.append(row)
            if fresh:
                yield fresh

    def children(self):
        return [self.child]


# ---------------------------------------------------------------------------
# prepared statements
# ---------------------------------------------------------------------------

@dataclass
class SelectPlan:
    root: PlanNode
    columns: list[str]
    # FOR UPDATE: the table and the FROM node (its scan under the
    # residual filters) whose rows the statement's commit validates
    for_update: tuple[Table, PlanNode] | None = None
    # the vector tree, run instead of ``root`` on either store unless
    # ``Executor.use_vectorized`` is off; None unless the row plan only
    # scans
    vectorized_root: PlanNode | None = None


@dataclass
class _Presentation:
    """AST-level resolution of the select list and ORDER BY keys, shared by
    the row and vectorized pipelines."""

    item_exprs: list = field(default_factory=list)
    names: list = field(default_factory=list)          # visible columns
    all_exprs: list = field(default_factory=list)      # items + hidden keys
    all_names: list = field(default_factory=list)
    key_positions: list = field(default_factory=list)  # (position, desc)
    hidden: int = 0


@dataclass
class _JoinStep:
    """One table of a SELECT's FROM clause and the conjuncts the FROM walk
    gave it (``Planner._from_clause``); the base table is the step with no
    ``kind``, keys or ON residue."""

    table: Table
    binding: str
    schema: Schema
    kind: str | None       # INNER / LEFT; None for the base table
    conjuncts: list        # single-table: its scan's predicates
    left_keys: list        # equi keys over the tables before it ...
    right_keys: list       # ... and over this one
    equi: list             # the conjuncts the keys came from
    residual_on: list      # ON conjuncts no scan or key took


@dataclass
class InsertPlan:
    table: Table
    columns: list[str]
    row_fns: list  # one list of fns per VALUES tuple


@dataclass
class UpdatePlan:
    table: Table
    source: PlanNode   # the target rows: a scan under its residual filter
    set_positions: list[int]
    set_fns: list


@dataclass
class DeletePlan:
    table: Table
    source: PlanNode


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------

def _flatten_and(expr: ast.Expr | None) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _and_all(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp("AND", combined, conjunct)
    return combined


def _is_constant(expr: ast.Expr) -> bool:
    """No column references anywhere (literals, params, arithmetic on them)."""
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.ColumnRef):
        return False
    if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery, ast.ExistsSubquery)):
        return False
    kids = ast.children(expr)
    return bool(kids) and all(_is_constant(k) for k in kids)


def _rewrite(expr: ast.Expr, mapping: dict) -> ast.Expr:
    """Replace any subtree present in ``mapping`` with its synthetic column."""
    if expr in mapping:
        return ast.ColumnRef(None, mapping[expr])
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _rewrite(expr.left, mapping),
                            _rewrite(expr.right, mapping))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite(expr.operand, mapping))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name,
                            tuple(_rewrite(a, mapping) for a in expr.args),
                            expr.distinct)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_rewrite(expr.operand, mapping), expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(_rewrite(expr.operand, mapping),
                        _rewrite(expr.pattern, mapping), expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(_rewrite(expr.operand, mapping),
                           _rewrite(expr.low, mapping),
                           _rewrite(expr.high, mapping), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(_rewrite(expr.operand, mapping),
                          tuple(_rewrite(i, mapping) for i in expr.items),
                          expr.negated)
    if isinstance(expr, ast.InSubquery):
        return ast.InSubquery(_rewrite(expr.operand, mapping), expr.subquery,
                              expr.negated)
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            tuple((_rewrite(c, mapping), _rewrite(r, mapping))
                  for c, r in expr.branches),
            _rewrite(expr.default, mapping) if expr.default else None,
        )
    return expr


class Planner:
    """Plans parsed statements against a catalog.

    ``build_vectorized`` gates the second (vectorized) physical plan; a
    database without a columnar replica turns it off, so every statement
    there runs the row tree.
    """

    def __init__(self, catalog: Catalog, build_vectorized: bool = True):
        self.catalog = catalog
        self.build_vectorized = build_vectorized

    # -- public entry points ------------------------------------------------

    def plan(self, statement: ast.Statement):
        if isinstance(statement, ast.Select):
            return self.plan_select(statement)
        if isinstance(statement, ast.Insert):
            return self.plan_insert(statement)
        if isinstance(statement, ast.Update):
            return self.plan_update(statement)
        if isinstance(statement, ast.Delete):
            return self.plan_delete(statement)
        raise PlanError(f"cannot plan statement {statement!r}")

    def _plan_subquery(self, select: ast.Select) -> SelectPlan:
        # subplans always execute through their row root (_run_subplan), so
        # building a vectorized tree for them would be dead work
        return self.plan_select(select, vectorized=False)

    # -- SELECT ----------------------------------------------------------------

    def plan_select(self, select: ast.Select,
                    vectorized: bool = True) -> SelectPlan:
        vsource = None
        if select.table is None:
            node: PlanNode = DualScan()
        else:
            base, steps, remaining = self._from_clause(select)
            node, scans_only = self._plan_from(base, steps, remaining)
            from_node = node
            if scans_only and vectorized and self.build_vectorized and \
                    not select.for_update:
                vsource = self._plan_vector_source(select, base, steps,
                                                   remaining)

        # -- aggregation ---------------------------------------------------
        has_group = bool(select.group_by)
        aggs = self._collect_aggregates(select)
        vnode = None          # row-yielding vectorized pipeline (aggregated)
        vector_source = None  # batch-yielding source (batch projection)
        if has_group or aggs:
            dependent = self._dependent_keys(select)
            row_agg = self._plan_aggregate(select.group_by, node, aggs,
                                           dependent)
            if vsource is not None:
                vnode = self._plan_aggregate(select.group_by, vsource[0],
                                             aggs, dependent, vsource[1])
                if isinstance(vnode.child, VHashJoin) \
                        and vnode.child.left is vsource[1]:
                    # one join straight over the base scan: a single step
                    self._plan_groupjoin(vnode, select.group_by, aggs,
                                         steps[0])
            node = row_agg
            select = self._rewrite_above_aggregate(select)
        elif select.having is not None:
            raise PlanError("HAVING requires GROUP BY or aggregates")
        elif vsource is not None:
            vector_source = vsource[0]

        spec = self._presentation_spec(select, node.schema)
        if has_group:
            for agg_node in filter(None, (row_agg, vnode)):
                agg_node.top = self._ranked_aggregate(select, spec, aggs)

        root = self._finish_row(select, node, spec)
        vroot = None
        if vnode is not None:
            vroot = self._finish_row(select, vnode, spec)
        elif vector_source is not None:
            vroot = self._finish_vector(select, vector_source, spec)

        for_update = None
        if select.for_update:
            if select.joins or select.table is None:
                raise PlanError("FOR UPDATE supports single-table SELECT only")
            for_update = (base.table, from_node)

        return SelectPlan(root, spec.names, for_update, vectorized_root=vroot)

    # -- presentation: select list, ORDER BY keys, DISTINCT, LIMIT ----------

    def _presentation_spec(self, select: ast.Select,
                           input_schema: Schema) -> "_Presentation":
        """Resolve the select list and ORDER BY keys at the AST level.

        Both pipelines compile the result with ``compile_expr``, so they
        share one resolution of stars, aliases and ordinals.
        """
        item_exprs: list[ast.Expr] = []
        names: list[str] = []
        aliases: dict[str, ast.Expr] = {}
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                star = item.expr
                for binding, col in input_schema.entries:
                    if star.table is None or binding == star.table.upper():
                        item_exprs.append(ast.ColumnRef(binding, col))
                        names.append(col)
                continue
            item_exprs.append(item.expr)
            name = item.alias or expr_display_name(item.expr)
            names.append(name.upper())
            if item.alias:
                aliases[item.alias.upper()] = item.expr

        order_exprs: list[tuple[ast.Expr, bool]] = []
        for order in select.order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value - 1
                if not 0 <= ordinal < len(item_exprs):
                    raise PlanError(f"ORDER BY ordinal {expr.value} out of range")
                expr = item_exprs[ordinal]
            elif (isinstance(expr, ast.ColumnRef) and expr.table is None
                    and expr.name.upper() in aliases
                    and not input_schema.binds(None, expr.name)):
                expr = aliases[expr.name.upper()]
            order_exprs.append((expr, order.descending))

        visible = len(item_exprs)
        all_exprs = list(item_exprs)
        all_names = list(names)
        key_positions: list[tuple[int, bool]] = []
        hidden = 0
        for expr, desc in order_exprs:
            # sort on the visible output column when the key is one of the
            # select items (also keeps DISTINCT compatible with ORDER BY)
            if expr in item_exprs:
                key_positions.append((item_exprs.index(expr), desc))
                continue
            all_exprs.append(expr)
            all_names.append(f"__S{hidden}")
            key_positions.append((visible + hidden, desc))
            hidden += 1

        return _Presentation(item_exprs, names, all_exprs, all_names,
                             key_positions, hidden)

    @staticmethod
    def _ranked_aggregate(select: ast.Select, spec: "_Presentation",
                          aggs: list[ast.FuncCall]):
        """``(j, k)`` when the sole ORDER BY key is aggregate ``j``, a plain
        SUM / COUNT, DESC under LIMIT k >= 1, without HAVING or DISTINCT,
        and every output column is bare (none can raise); else None."""
        names = [expr.name for expr in spec.all_exprs
                 if isinstance(expr, ast.ColumnRef) and expr.table is None]
        if (select.limit or 0) < 1 or select.having or select.distinct \
                or len(names) != len(spec.all_exprs) \
                or [desc for _, desc in spec.key_positions] != [True] \
                or not names[spec.key_positions[0][0]].startswith("__A"):
            return None
        j = int(names[spec.key_positions[0][0]][3:])
        if aggs[j].distinct or aggs[j].name not in ("SUM", "COUNT"):
            return None
        return j, select.limit

    def _finish_row(self, select: ast.Select, node: PlanNode,
                    spec: "_Presentation") -> PlanNode:
        sub = self._plan_subquery
        input_schema = node.schema
        if select.having is not None:
            node = Filter(node, compile_expr(select.having, input_schema, sub))
        all_fns = [compile_expr(e, input_schema, sub) for e in spec.all_exprs]
        node = Project(node, all_fns, spec.all_names)
        return self._presentation_tail(select, node, spec)

    def _finish_vector(self, select: ast.Select, vnode,
                       spec: "_Presentation") -> PlanNode:
        """Presentation over a (non-aggregated) batch source: project
        column-at-a-time into rows, then the shared row tail."""
        sub = self._plan_subquery
        fns = [compile_expr(e, vnode.schema, sub) for e in spec.all_exprs]
        node = BatchRows(vnode, fns, spec.all_names)
        return self._presentation_tail(select, node, spec)

    def _presentation_tail(self, select: ast.Select, node: PlanNode,
                           spec: "_Presentation") -> PlanNode:
        if select.distinct:
            if spec.hidden:
                raise PlanError(
                    "DISTINCT with ORDER BY on a non-selected expression "
                    "is unsupported"
                )
            node = Distinct(node)

        key_specs = [(column_fn(position), desc)
                     for position, desc in spec.key_positions]
        fused_limit = bool(key_specs) and select.limit is not None
        if fused_limit:
            node = TopN(node, key_specs, select.limit)
        elif key_specs:
            node = Sort(node, key_specs)
        if spec.hidden:
            node = Project(
                node,
                [column_fn(i) for i in range(len(spec.names))],
                spec.names,
            )
        if select.limit is not None and not fused_limit:
            node = Limit(node, select.limit)
        return node

    # -- FROM clause / joins ----------------------------------------------------

    def _from_clause(self, select: ast.Select):
        """Split the WHERE and ON conjuncts over the FROM clause, once for
        both physical plans: ``(base, steps, remaining)``.

        Each table takes the subquery-free conjuncts that reference only
        its columns, from WHERE and from its own ON; a LEFT join's table
        takes none of WHERE's, which must see its NULL-extended rows.  A
        join then takes the ``=`` conjuncts between it and the tables
        before it as equi keys and keeps what is left of its ON (a LEFT
        join with such a residue takes no keys: all of it is the join's
        condition).  ``remaining`` is every WHERE conjunct no table or
        join took.
        """
        conjuncts = _flatten_and(select.where)
        consumed: set[int] = set()
        steps: list[_JoinStep] = []
        left_schema = Schema([])
        from_items = [(select.table, None, [])] + [
            (join.table, join.kind, _flatten_and(join.condition))
            for join in select.joins]
        for ref, kind, on_pool in from_items:
            table = self.catalog.table(ref.name)
            if any(step.binding == ref.binding for step in steps):
                raise BindError(f"duplicate table binding {ref.binding!r}")
            schema = _table_schema(table, ref.binding)
            pool = on_pool + ([] if kind == "LEFT" else
                              [c for c in conjuncts if id(c) not in consumed])
            mine = self._single_table_conjuncts(ref.binding, pool, schema)
            consumed.update(id(c) for c in mine)
            left_keys, right_keys, equi = self._find_equi_keys(
                pool, left_schema, ref.binding, schema, consumed)
            keyed = {id(c) for c in equi}
            residual_on = [c for c in on_pool if id(c) not in consumed]
            if kind == "LEFT" and any(id(c) not in keyed
                                      for c in residual_on):
                # a LEFT join decides its whole ON before NULL-extending,
                # so an ON conjunct that is neither a key nor its scan's
                # makes it a nested loop over the ON
                left_keys, right_keys, equi = [], [], []
            else:
                residual_on = [c for c in residual_on if id(c) not in keyed]
            consumed.update(id(c) for c in equi + residual_on)
            steps.append(_JoinStep(table, ref.binding, schema, kind, mine,
                                   left_keys, right_keys, equi, residual_on))
            left_schema = left_schema + schema
        remaining = [c for c in conjuncts if id(c) not in consumed]
        return steps[0], steps[1:], remaining

    def _plan_from(self, base: _JoinStep, steps: list[_JoinStep],
                   remaining: list[ast.Expr]) -> tuple[PlanNode, bool]:
        """The row tree over the FROM walk's split, and ``scans_only``:
        every table is read by a ``SeqScan`` and every join is a
        ``HashJoin`` — the shape the vector tree mirrors."""
        sub = self._plan_subquery
        # "selective" = the running pipeline produces few rows, so an
        # index nested-loop join into the next table is the right plan
        node, selective = self._access_path(base.table, base.binding,
                                            base.conjuncts)
        scans_only = not selective
        for step in steps:
            residual_on = step.residual_on
            index_join = None
            if step.left_keys and selective:
                index_join = self._try_index_join(node, step)
            if index_join is not None:
                node, exact = index_join
                if not exact:
                    # prefix/index probes can return extra rows: re-check
                    # every equi conjunct on the combined row
                    node = Filter(node, compile_expr(_and_all(step.equi),
                                                     node.schema, sub))
            else:
                selective = False
                right_node, right_selective = self._access_path(
                    step.table, step.binding, step.conjuncts)
                if step.left_keys:
                    scans_only = scans_only and not right_selective
                    node = HashJoin(
                        node, right_node,
                        [compile_expr(e, node.schema, sub)
                         for e in step.left_keys],
                        [compile_expr(e, step.schema, sub)
                         for e in step.right_keys],
                        step.kind,
                    )
                else:
                    scans_only = False
                    condition = None
                    if residual_on:
                        condition = compile_expr(_and_all(residual_on),
                                                 node.schema + step.schema,
                                                 sub)
                        residual_on = []
                    node = NestedLoopJoin(node, right_node, condition,
                                          step.kind)
            if residual_on:
                node = Filter(node, compile_expr(_and_all(residual_on),
                                                 node.schema, sub))
        if remaining:
            node = Filter(node, compile_expr(_and_all(remaining),
                                             node.schema, sub))
        return node, scans_only

    def _try_index_join(self, node: PlanNode, step: _JoinStep):
        """Build an IndexJoin when the equi keys cover the inner PK (or an
        index).  Returns ``(plan, exact)`` or None; ``exact`` means the probe
        returns only truly matching rows (full-PK lookups)."""
        sub = self._plan_subquery
        right_table, right_binding, kind = step.table, step.binding, step.kind
        # inner sides must be plain columns of the inner table
        key_by_column: dict[str, ast.Expr] = {}
        for left_expr, right_expr in zip(step.left_keys, step.right_keys):
            if not isinstance(right_expr, ast.ColumnRef):
                return None
            column = self._column_key(right_table, right_expr.name)
            key_by_column.setdefault(column, left_expr)

        inner_filter = None
        if step.conjuncts:
            inner_filter = compile_expr(_and_all(step.conjuncts), step.schema,
                                        sub)

        def outer_fns(columns):
            return [compile_expr(key_by_column[c], node.schema, sub)
                    for c in columns]

        pk = [self._column_key(right_table, c)
              for c in right_table.primary_key]
        if all(c in key_by_column for c in pk):
            inner = PKLookup(right_table, right_binding, outer_fns(pk))
            return IndexJoin(node, inner, inner_filter, kind), True
        if kind == "LEFT":
            return None  # non-exact probes break null-extension rechecks
        prefix = list(takewhile(key_by_column.__contains__, pk))
        if prefix:
            inner = PKPrefixScan(right_table, right_binding,
                                 outer_fns(prefix))
            return IndexJoin(node, inner, inner_filter, kind), False
        for index in right_table.indexes.values():
            idx_cols = [self._column_key(right_table, c)
                        for c in index.columns]
            if all(c in key_by_column for c in idx_cols):
                inner = IndexScan(right_table, right_binding, index.name,
                                  outer_fns(idx_cols))
                return IndexJoin(node, inner, inner_filter, kind), False
        return None

    def _single_table_conjuncts(self, binding: str, pool: list[ast.Expr],
                                schema: Schema) -> list[ast.Expr]:
        """Subquery-free conjuncts referencing only ``binding``'s columns."""
        mine = []
        for conjunct in pool:
            refs = collect_column_refs(conjunct)
            if not refs:
                continue
            if all(self._ref_binds_only(r, binding, schema) for r in refs):
                if not isinstance(conjunct, (ast.InSubquery,
                                             ast.ExistsSubquery)) and \
                        not self._has_subquery(conjunct):
                    mine.append(conjunct)
        return mine

    def _has_subquery(self, expr: ast.Expr) -> bool:
        if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery,
                             ast.ExistsSubquery)):
            return True
        return any(self._has_subquery(k) for k in ast.children(expr))

    def _ref_binds_only(self, ref: ast.ColumnRef, binding: str,
                        schema: Schema) -> bool:
        if ref.table is not None:
            return ref.table.upper() == binding
        return schema.binds(None, ref.name)

    def _find_equi_keys(self, pool, left_schema: Schema, right_binding: str,
                        right_schema: Schema, consumed: set):
        """Equi-join keys between the tables before the new one and it:
        ``(left keys, right keys, the conjuncts they came from)``.

        Sides may be arbitrary expressions as long as every column reference
        of one side binds in the left schema and every reference of the
        other binds in the new table — this lets CH-benCHmark's computed
        joins (``su_suppkey = s_i_id % 100``-style) use hash joins.
        """
        left_keys: list[ast.Expr] = []
        right_keys: list[ast.Expr] = []
        used: list[ast.Expr] = []

        def side_of(expr: ast.Expr) -> str | None:
            refs = collect_column_refs(expr)
            if not refs or self._has_subquery(expr):
                return None
            if all(self._binds_in(r, left_schema) for r in refs):
                return "left"
            if all(self._ref_binds_only(r, right_binding, right_schema)
                   for r in refs):
                return "right"
            return None

        for conjunct in pool:
            if id(conjunct) in consumed:
                continue
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            left_side = side_of(conjunct.left)
            right_side = side_of(conjunct.right)
            if left_side == "left" and right_side == "right":
                left_keys.append(conjunct.left)
                right_keys.append(conjunct.right)
                used.append(conjunct)
            elif left_side == "right" and right_side == "left":
                left_keys.append(conjunct.right)
                right_keys.append(conjunct.left)
                used.append(conjunct)
        return left_keys, right_keys, used

    @staticmethod
    def _binds_in(ref: ast.ColumnRef, schema: Schema) -> bool:
        return schema.try_resolve(ref.table, ref.name) is not None

    # -- vectorized pipeline ------------------------------------------------------

    def _plan_vector_source(self, select: ast.Select, base: _JoinStep,
                            steps: list[_JoinStep],
                            remaining: list[ast.Expr]):
        """Batch-operator FROM/WHERE pipeline, built from the same FROM
        split as the row tree; its scans read the replica or the row
        store, as the statement is routed.

        Returns ``(VectorNode, base scan)`` mirroring ``_plan_from``'s
        output schema and row-emission order.  ``plan_select`` asks for it
        only when the row tree only scans: selective statements (PK/index
        access paths) read the fresh row store even when routed columnar —
        as in TiDB — so substituting a replica scan for them would change
        results under replication lag, and non-equi joins have no vector
        operator.
        """
        sub = self._plan_subquery
        base_scan, node = self._vector_scan(select, base)
        for step in steps:
            scan, right_node = self._vector_scan(select, step)
            # the scan's schema may be a projected subset of the table —
            # compile keys against it, not the full layout
            node = VHashJoin(
                node, right_node,
                [compile_expr(e, node.schema, sub) for e in step.left_keys],
                [compile_expr(e, scan.schema, sub) for e in step.right_keys],
                step.kind,
            )
            if step.residual_on:
                node = VFilter(node, compile_expr(
                    _and_all(step.residual_on), node.schema, sub))
        if remaining:
            node = VFilter(node, compile_expr(
                _and_all(remaining), node.schema, sub))
        return node, base_scan

    def _vector_scan(self, select: ast.Select, step: _JoinStep):
        """``(scan, node)``: one table's columnar scan, and that scan under
        a ``VFilter`` of the conjuncts it does not push exactly.  The scan
        evaluates pushed predicates exactly (one value-space sweep on
        every encoding), so only the residual conjuncts are re-applied."""
        pushed, exact = self._pushed_predicates(step.table, step.conjuncts)
        scan = VColumnarScan(step.table, step.binding, pushed,
                             self._referenced_columns(select, step.table,
                                                      step.binding))
        residual = [c for c in step.conjuncts if id(c) not in exact]
        if not residual:
            return scan, scan
        return scan, VFilter(scan, compile_expr(
            _and_all(residual), scan.schema, self._plan_subquery))

    _SKETCH_AGGS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

    def _plan_groupjoin(self, node: BatchAggregate, group_by,
                        aggs: list[ast.FuncCall], step: _JoinStep) -> None:
        """Let ``node`` (an aggregate over one join of the base scan) fold
        the probe side by its join key and probe the build side once per
        group (``BatchAggregate._groupjoin``); otherwise leave it be.

        Eligible when the join is INNER, the GROUP BY columns kept are
        exactly its probe-side key columns (plain, in key order), every
        other GROUP BY column is a build-side column ``_dependent_keys``
        flagged — the ON equalities then pin the build table's primary
        key, so a group matches at most one build row — and every
        aggregate is sketch-shaped over a probe-side column or COUNT(*).
        The probe-side fold is the single-table aggregate of the kept
        columns, sketch key and segment emission included.
        """
        join = node.child
        scan = join.left
        if join.kind != "INNER":
            return

        def position(expr, schema):
            if not isinstance(expr, ast.ColumnRef):
                return None
            return schema.try_resolve(expr.table, expr.name)

        kept = [g for g, flag in zip(group_by, node.dependent) if not flag]
        keys = [position(key, scan.schema) for key in step.left_keys]
        if not keys or None in keys \
                or [position(g, scan.schema) for g in kept] != keys:
            return
        width = len(scan.schema)
        build = [position(g, join.schema)
                 for g, flag in zip(group_by, node.dependent) if flag]
        # the sketch-key test comes first: it also proves every aggregate
        # argument is a probe-side column, which compiling them against
        # the scan's schema requires (a build-side one raises BindError)
        if any(p is None or p < width for p in build) \
                or self._sketch_key(kept, aggs, scan) is None:
            return
        node.groupjoin = (self._plan_aggregate(kept, scan, aggs,
                                              base_scan=scan),
                          [p - width for p in build])

    def _sketch_key(self, group_by, aggs: list[ast.FuncCall],
                    scan) -> tuple | None:
        """Replica-cache key of a sketch-eligible aggregate, or None.

        Eligible when every group key is a plain column of the scan and
        every aggregate is a non-DISTINCT COUNT/SUM/AVG/MIN/MAX over a
        plain column (or COUNT(*)) — shapes whose state over a run of
        sealed segments depends only on their content, never on statement
        parameters or execution context.  The key is expressed in *table*
        column positions, so statements projecting different column
        subsets of the same aggregate shape share one cached state per run.

        The leading component is the tuple of IS NOT NULL filter
        positions when those are the *only* pushed predicates (filtered
        batches are then cached, and must not collide with the unfiltered
        shape); otherwise it is empty — only whole-segment batches are
        cached then, and a state over whole segments is the same no matter
        which predicate let every row pass.
        """
        if scan.pushed and all(p.not_null for p in scan.pushed):
            filter_key = tuple(sorted({p.position for p in scan.pushed}))
        else:
            filter_key = ()
        positions = scan.positions
        input_schema = scan.schema
        group_key = []
        for g in group_by:
            if not isinstance(g, ast.ColumnRef):
                return None
            pos = input_schema.try_resolve(g.table, g.name)
            if pos is None:
                return None
            group_key.append(positions[pos])
        agg_key = []
        for agg in aggs:
            if agg.distinct or agg.name not in self._SKETCH_AGGS:
                return None
            if agg.args and not isinstance(agg.args[0], ast.Star):
                arg = agg.args[0]
                if not isinstance(arg, ast.ColumnRef):
                    return None
                pos = input_schema.try_resolve(arg.table, arg.name)
                if pos is None:
                    return None
                agg_key.append((agg.name, positions[pos]))
            else:
                agg_key.append((agg.name, None))
        return (filter_key, tuple(group_key), tuple(agg_key))

    def _referenced_columns(self, select: ast.Select, table: Table,
                            binding: str) -> list[str] | None:
        """Columns of ``table`` the statement can reference anywhere, in
        table order, so the columnar scan materialises only those.  ``None``
        means all columns (a ``*`` select item is present)."""
        exprs: list[ast.Expr] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                return None
            exprs.append(item.expr)
        if select.where is not None:
            exprs.append(select.where)
        for join in select.joins:
            if join.condition is not None:
                exprs.append(join.condition)
        exprs.extend(select.group_by)
        if select.having is not None:
            exprs.append(select.having)
        for order in select.order_by:
            exprs.append(order.expr)
        needed: set[str] = set()
        for expr in exprs:
            for ref in collect_column_refs(expr):
                if ref.table is not None and ref.table.upper() != binding:
                    continue
                if table.has_column(ref.name):
                    needed.add(self._column_key(table, ref.name))
        return [c for c in table.column_names if c in needed]

    _FLIPPED_CMP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def _pushed_predicates(
            self, table: Table,
            conjuncts: list[ast.Expr]) -> tuple[list[PushedPredicate], set]:
        """Range/equality/IN predicates pushable into the columnar scan.

        Only ``column <op> constant`` (and ``column [NOT]-less IN
        (constants)``) conjuncts qualify.  Returns the pushed predicates
        plus the ids of conjuncts they represent *exactly*: the scan
        evaluates pushed predicates with row-pipeline semantics (zone-map
        pruning, then a value-space sweep on every encoding), so exact
        conjuncts are not re-applied above the scan.

        IN lists are pushed only when every item is a literal or parameter
        — item expressions must keep the row pipeline's lazy any() order,
        which eager per-segment evaluation would break.
        """
        empty = Schema([])
        sub = self._plan_subquery
        pushed: list[PushedPredicate] = []
        exact: set[int] = set()
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.Between) and not conjunct.negated:
                operand = conjunct.operand
                if (isinstance(operand, ast.ColumnRef)
                        and table.has_column(operand.name)
                        and _is_constant(conjunct.low)
                        and _is_constant(conjunct.high)):
                    pushed.append(PushedPredicate(
                        table.position(operand.name),
                        low_fn=compile_expr(conjunct.low, empty, sub),
                        high_fn=compile_expr(conjunct.high, empty, sub),
                    ))
                    exact.add(id(conjunct))
                continue
            if isinstance(conjunct, ast.IsNull) and conjunct.negated:
                # IS NOT NULL pushes as an exact no-bounds predicate: the
                # scan prunes all-NULL segments via zone maps and absorbs
                # the predicate entirely on provably null-free columns
                # (keeping the zero-copy whole-segment path alive)
                operand = conjunct.operand
                if isinstance(operand, ast.ColumnRef) \
                        and table.has_column(operand.name):
                    pushed.append(PushedPredicate(
                        table.position(operand.name), not_null=True))
                    exact.add(id(conjunct))
                continue
            if isinstance(conjunct, ast.InList) and not conjunct.negated:
                operand = conjunct.operand
                if (isinstance(operand, ast.ColumnRef)
                        and table.has_column(operand.name)
                        and all(isinstance(i, (ast.Literal, ast.Param))
                                for i in conjunct.items)):
                    pushed.append(PushedPredicate(
                        table.position(operand.name),
                        item_fns=[compile_expr(i, empty, sub)
                                  for i in conjunct.items],
                    ))
                    exact.add(id(conjunct))
                continue
            if not (isinstance(conjunct, ast.BinaryOp)
                    and conjunct.op in self._FLIPPED_CMP):
                continue
            left, right = conjunct.left, conjunct.right
            if isinstance(left, ast.ColumnRef) and _is_constant(right) \
                    and table.has_column(left.name):
                column, constant, op = left, right, conjunct.op
            elif isinstance(right, ast.ColumnRef) and _is_constant(left) \
                    and table.has_column(right.name):
                column, constant, op = right, left, \
                    self._FLIPPED_CMP[conjunct.op]
            else:
                continue
            position = table.position(column.name)
            bound_fn = compile_expr(constant, empty, sub)
            if op == "=":
                pushed.append(PushedPredicate(position, bound_fn, bound_fn))
            elif op == "<":
                pushed.append(PushedPredicate(position, high_fn=bound_fn,
                                              high_inclusive=False))
            elif op == "<=":
                pushed.append(PushedPredicate(position, high_fn=bound_fn))
            elif op == ">":
                pushed.append(PushedPredicate(position, low_fn=bound_fn,
                                              low_inclusive=False))
            else:  # ">="
                pushed.append(PushedPredicate(position, low_fn=bound_fn))
            exact.add(id(conjunct))
        return pushed, exact

    # -- scans --------------------------------------------------------------------

    def _access_path(self, table: Table, binding: str,
                     conjuncts: list[ast.Expr]) -> tuple[PlanNode, bool]:
        """``(scan, selective)`` for the given predicates: a PK lookup, PK
        prefix scan, secondary-index scan or (not selective) full scan,
        under a ``Filter`` of what it leaves unproved.

        The bound equalities of a PK lookup or prefix scan hold for every
        row it returns, so only the rest is evaluated per row; an index
        scan proves nothing (its candidates may not carry the key).  The
        filter evaluates the conjuncts a columnar scan pushes
        (``_pushed_predicates``) first, then the rest, each group in
        WHERE order — the order the vector tree evaluates them in, so a
        conjunct that raises raises on both trees alike.
        """
        eq: dict[str, ast.Expr] = {}
        bound_by: dict[str, ast.Expr] = {}   # column -> the conjunct in eq
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            left, right = conjunct.left, conjunct.right
            if isinstance(right, ast.ColumnRef) and _is_constant(left):
                left, right = right, left
            if isinstance(left, ast.ColumnRef) and _is_constant(right):
                if table.has_column(left.name.upper()) or \
                        table.has_column(left.name):
                    column = self._column_key(table, left.name)
                    if column not in eq:
                        eq[column] = right
                        bound_by[column] = conjunct

        empty = Schema([])
        sub = self._plan_subquery

        def key_fns(columns):
            return [compile_expr(eq[c], empty, sub) for c in columns]

        def bound_prefix(columns):
            return list(takewhile(eq.__contains__, columns))

        proved: set[int] = set()
        pk = [self._column_key(table, c) for c in table.primary_key]
        prefix = bound_prefix(pk)
        if prefix:
            proved = {id(bound_by[c]) for c in prefix}
            scan_type = PKLookup if len(prefix) == len(pk) else PKPrefixScan
            scan = scan_type(table, binding, key_fns(prefix))
        else:
            scan = SeqScan(table, binding)
            for index in table.indexes.values():
                idx_cols = [self._column_key(table, c) for c in index.columns]
                if idx_prefix := bound_prefix(idx_cols):
                    scan = IndexScan(table, binding, index.name,
                                     key_fns(idx_prefix),
                                     prefix=len(idx_prefix) < len(idx_cols))
                    break
        node = scan
        residual = [c for c in conjuncts if id(c) not in proved]
        _pushed, exact = self._pushed_predicates(table, residual)
        residual.sort(key=lambda c: id(c) not in exact)  # stable: WHERE order
        if residual:
            node = Filter(scan, compile_expr(_and_all(residual), scan.schema,
                                             sub))
        return node, not isinstance(scan, SeqScan)

    @staticmethod
    def _column_key(table: Table, name: str) -> str:
        """Canonical (case-insensitive) column key within a table."""
        for col in table.column_names:
            if col.upper() == name.upper():
                return col
        return name

    # -- aggregation --------------------------------------------------------------

    def _collect_aggregates(self, select: ast.Select) -> list[ast.FuncCall]:
        aggs: list[ast.FuncCall] = []
        seen: set = set()

        def walk(expr: ast.Expr):
            if ast.is_aggregate_call(expr):
                if expr not in seen:
                    seen.add(expr)
                    aggs.append(expr)
                return  # nested aggregates are invalid anyway
            for child in ast.children(expr):
                walk(child)

        for item in select.items:
            if not isinstance(item.expr, ast.Star):
                walk(item.expr)
        if select.having is not None:
            walk(select.having)
        for order in select.order_by:
            walk(order.expr)
        return aggs

    def _plan_aggregate(self, group_by, node, aggs: list[ast.FuncCall],
                        dependent: tuple = (),
                        base_scan=None) -> BatchAggregate:
        """The one aggregate operator, over either tree's ``node``.  Only
        an aggregate straight over the vector tree's ``base_scan`` gets a
        sketch key; the row tree's never does, so it never reads the
        replica's sketch cache."""
        sub = self._plan_subquery
        input_schema = node.schema
        group_fns = [compile_expr(g, input_schema, sub) for g in group_by]
        specs = self._agg_specs(aggs, input_schema)
        sketch_key = None
        if node is base_scan:
            # ``node is base_scan`` ⟺ the aggregate consumes the scan
            # directly: no joins, no residual filter, every pushed
            # predicate exact — so a whole-segment batch means *all* of
            # the segment's live rows passed
            sketch_key = self._sketch_key(group_by, aggs, base_scan)
        return BatchAggregate(node, group_fns, specs,
                              sketch_key=sketch_key, dependent=dependent)

    def _dependent_keys(self, select: ast.Select) -> tuple:
        """One flag per GROUP BY column: True when the column is fixed by
        the columns kept (hashed) before it, so the aggregate never hashes
        it — the functional-dependency reduction of grouping keys (Simmen,
        Shekita & Malkemus, SIGMOD 1996).

        A plain non-PK column of binding ``T`` depends when every PK column
        of ``T`` is a kept GROUP BY column or equated to one by an ``=``
        between two plain column refs in WHERE or an INNER join's ON: rows
        with equal kept keys then joined one row of ``T``.  Expressions,
        LEFT joins and computed join keys prove nothing; GROUP BY order
        decides which of two columns that pin each other is kept.
        """
        flags = [False] * len(select.group_by)
        if select.table is None or not flags:
            return tuple(flags)
        tables = {ref.binding: self.catalog.table(ref.name)
                  for ref in [select.table] + [j.table for j in select.joins]}

        def resolve(expr):
            """``(binding, column position)`` of a plain column of FROM."""
            if not isinstance(expr, ast.ColumnRef):
                return None
            found = [(binding, table.position(expr.name))
                     for binding, table in tables.items()
                     if table.has_column(expr.name) and (
                         expr.table is None or expr.table.upper() == binding)]
            return found[0] if len(found) == 1 else None

        conjuncts = _flatten_and(select.where)
        for join in select.joins:
            if join.kind == "INNER":
                conjuncts += _flatten_and(join.condition)
        # LEFT-joined tables: their rows may be NULL-extended
        outer = {j.table.binding for j in select.joins if j.kind != "INNER"}
        pairs = [(resolve(c.left), resolve(c.right)) for c in conjuncts
                 if isinstance(c, ast.BinaryOp) and c.op == "="]
        kept: set = set()
        for i, expr in enumerate(select.group_by):
            column = resolve(expr)
            if column is None:
                continue
            binding, position = column
            pk = tables[binding].pk_positions
            pinned = kept | {a for a, b in pairs if b in kept} \
                | {b for a, b in pairs if a in kept}
            if binding not in outer and position not in pk \
                    and all((binding, p) in pinned for p in pk):
                flags[i] = True
            else:
                kept.add(column)
        return tuple(flags)

    def _agg_specs(self, aggs: list[ast.FuncCall],
                   input_schema) -> list[AggSpec]:
        """One ``AggSpec`` per aggregate; structurally equal argument
        expressions (``AVG(bal), MAX(bal)``) share one compiled fn, and so
        do references to one column (``SUM(v), AVG(t.v)``).  Equal fns
        share one aggregation state, so a sketch key — which names a
        column by its position — fixes the cached state's layout."""
        arg_fns: dict = {}
        specs = []
        for agg in aggs:
            arg_fn = None
            if agg.args and not isinstance(agg.args[0], ast.Star):
                arg = key = agg.args[0]
                if isinstance(arg, ast.ColumnRef):
                    position = input_schema.try_resolve(arg.table, arg.name)
                    if position is not None:
                        key = position
                if key not in arg_fns:
                    arg_fns[key] = compile_expr(arg, input_schema,
                                                self._plan_subquery)
                arg_fn = arg_fns[key]
            specs.append(AggSpec(agg.name, arg_fn, agg.distinct))
        return specs

    def _rewrite_above_aggregate(self, select: ast.Select) -> ast.Select:
        """Rewrite select/having/order expressions onto the aggregate output."""
        mapping: dict = {}
        for i, group in enumerate(select.group_by):
            mapping[group] = f"__G{i}"
        aggs = self._collect_aggregates(select)
        for j, agg in enumerate(aggs):
            mapping[agg] = f"__A{j}"
        items = tuple(
            ast.SelectItem(
                item.expr if isinstance(item.expr, ast.Star)
                else _rewrite(item.expr, mapping),
                item.alias or (
                    None if isinstance(item.expr, ast.Star)
                    else expr_display_name(item.expr)
                ),
            )
            for item in select.items
        )
        having = _rewrite(select.having, mapping) if select.having else None
        order_by = tuple(
            ast.OrderItem(_rewrite(o.expr, mapping), o.descending)
            for o in select.order_by
        )
        return replace(select, items=items, having=having, order_by=order_by,
                       group_by=(), where=None, joins=(), table=None)

    # -- DML --------------------------------------------------------------------

    def plan_insert(self, insert: ast.Insert) -> InsertPlan:
        table = self.catalog.table(insert.table)
        if insert.columns:
            columns = [self._column_key(table, c) for c in insert.columns]
            for col in columns:
                if not table.has_column(col):
                    raise BindError(
                        f"unknown column {col!r} in INSERT into {table.name}"
                    )
        else:
            columns = list(table.column_names)
        empty = Schema([])
        row_fns = []
        for values in insert.values:
            if len(values) != len(columns):
                raise PlanError(
                    f"INSERT into {table.name}: {len(columns)} columns but "
                    f"{len(values)} values"
                )
            row_fns.append([compile_expr(v, empty, self._plan_subquery)
                            for v in values])
        return InsertPlan(table, columns, row_fns)

    def plan_update(self, update: ast.Update) -> UpdatePlan:
        table = self.catalog.table(update.table)
        binding = table.name.upper()
        source, _selective = self._access_path(table, binding,
                                               _flatten_and(update.where))
        schema = source.schema
        positions = []
        fns = []
        for clause in update.sets:
            column = self._column_key(table, clause.column)
            positions.append(table.position(column))
            fns.append(compile_expr(clause.value, schema, self._plan_subquery))
        return UpdatePlan(table, source, positions, fns)

    def plan_delete(self, delete: ast.Delete) -> DeletePlan:
        table = self.catalog.table(delete.table)
        source, _selective = self._access_path(
            table, table.name.upper(), _flatten_and(delete.where))
        return DeletePlan(table, source)
