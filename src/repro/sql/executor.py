"""Plan execution.

``ExecContext`` carries everything an operator needs at run time: bound
parameters, the active transaction, the statistics collector, and the store
routing decision (row vs columnar).  UPDATE / DELETE targets are the
rows of the planner's scan node under its residual filter, and the
``SELECT … FOR UPDATE`` rows a commit validates are those of the
statement's FROM node: the same operators a SELECT reads through.
Changes go through the transaction's buffered-write API, so MVCC and
validation semantics come for free.
"""

from __future__ import annotations

from repro.catalog.schema import Table
from repro.errors import ExecutionError, IntegrityError, ReplicaUnavailableError
from repro.sql.plannode import PlanNode
from repro.sql.planner import DeletePlan, InsertPlan, SelectPlan, UpdatePlan
from repro.sql.result import DMLResult, ExecStats, Result
from repro.txn.manager import Transaction


class ExecContext:
    """Per-statement execution state."""

    def __init__(self, txn: Transaction, params: tuple = (),
                 columnar=None, route_columnar: bool = False,
                 partition_map=None):
        self.txn = txn
        self.params = params
        self.stats = ExecStats()
        self.columnar = columnar
        self.route_columnar = route_columnar
        self.partition_map = partition_map
        self._subquery_cache: dict[int, list] = {}

    @property
    def partition_count(self) -> int:
        """Hash partitions of the row store (1 when unpartitioned)."""
        return self.partition_map.partitions \
            if self.partition_map is not None else 1

    @property
    def reads_replica(self) -> bool:
        """Whether this statement's full scans read the columnar replica
        (routed there, and the engine has one) rather than the row store."""
        return self.route_columnar and self.columnar is not None

    def row_store_batches(self, name: str, size: int):
        """The transaction's snapshot scan of ``name``, its own writes
        overlaid, as row lists of at most ``size`` rows — the one row-store
        full scan both trees' scan leaves read.  Charged as a scan of every
        partition, and by every row handed on, also when a lazy consumer
        closes it early."""
        self.stats.partitions_scanned += self.partition_count
        count = 0
        try:
            for _pks, rows in self.txn.scan_batches(name, size):
                count += len(rows)
                yield rows
        finally:
            self.stats.rows_row_store[name] += count

    # -- uncorrelated subquery execution with per-statement caching ---------

    def _run_subplan(self, subplan: SelectPlan) -> list:
        # one cached execution per subplan per statement; a statement runs
        # on the calling thread, so nothing else reaches this context
        key = id(subplan)
        cached = self._subquery_cache.get(key)
        if cached is None:
            self.stats.subqueries += 1
            cached = subplan.root.rows(self)
            self._subquery_cache[key] = cached
        return cached

    def subquery_values(self, subplan: SelectPlan) -> set:
        rows = self._run_subplan(subplan)
        return {row[0] for row in rows}

    def subquery_scalar(self, subplan: SelectPlan):
        rows = self._run_subplan(subplan)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        return rows[0][0]


class Executor:
    """Runs prepared plans within a transaction."""

    def __init__(self, catalog, columnar=None,
                 enforce_foreign_keys: bool = False,
                 use_vectorized: bool = True,
                 partition_map=None, failpoints=None):
        self.catalog = catalog
        self.columnar = columnar
        self.enforce_foreign_keys = enforce_foreign_keys
        # the vector tree for every SELECT that has one: over the replica
        # when routed, over the row store otherwise.  False runs the row
        # plan nodes on the same store instead — the correctness oracle
        # tests and the fig05 ladder compare against
        self.use_vectorized = use_vectorized
        self.partition_map = partition_map
        self.failpoints = failpoints

    def _context(self, txn: Transaction, params: tuple,
                 route_columnar: bool) -> ExecContext:
        return ExecContext(
            txn, params,
            columnar=self.columnar,
            route_columnar=route_columnar,
            partition_map=self.partition_map,
        )

    # -- SELECT ---------------------------------------------------------------

    def execute_select(self, plan: SelectPlan, txn: Transaction,
                       params: tuple = (),
                       route_columnar: bool = False) -> Result:
        if (route_columnar and self.columnar is not None
                and self.failpoints is not None
                and self.failpoints.evaluate("replica.scan")):
            # the replica refuses the scan before any work is done; the
            # session layer re-routes the statement to the row pipeline
            raise ReplicaUnavailableError(
                "injected fault at failpoint 'replica.scan'")
        ctx = self._context(txn, params, route_columnar=False)
        if plan.for_update is not None:
            # the FOR UPDATE read takes the row store whatever the
            # routing, so the transaction's own writes are targets too
            table, source = plan.for_update
            for pk, _values in _targets(table, source, ctx):
                txn.lock_for_update(table.name, pk)
        ctx.route_columnar = route_columnar
        root = plan.root
        if self.use_vectorized and plan.vectorized_root is not None:
            # its scans read the replica when routed, else the row store
            root = plan.vectorized_root
            if ctx.reads_replica:
                ctx.stats.vectorized = True
                ctx.stats.vectorized_statements = 1
        rows = root.rows(ctx)
        ctx.stats.rows_returned = len(rows)
        return Result(plan.columns, rows, ctx.stats)

    # -- INSERT ---------------------------------------------------------------

    def execute_insert(self, plan: InsertPlan, txn: Transaction,
                       params: tuple = ()) -> DMLResult:
        ctx = self._context(txn, params, route_columnar=False)
        table = plan.table
        count = 0
        for row_fns in plan.row_fns:
            provided = {
                column: fn((), ctx)
                for column, fn in zip(plan.columns, row_fns)
            }
            values = []
            for column in table.columns:
                raw = provided.get(column.name)
                value = column.col_type.validate(raw)
                if value is None and not column.nullable:
                    raise IntegrityError(
                        f"column {column.name!r} of {table.name} is NOT NULL"
                    )
                values.append(value)
            values = tuple(values)
            pk = table.pk_of(values)
            if any(part is None for part in pk):
                raise IntegrityError(
                    f"primary key of {table.name} must not be NULL"
                )
            if self.enforce_foreign_keys:
                self._check_foreign_keys(table, values, ctx)
            txn.insert(table.name, pk, values)
            ctx.stats.writes[table.name] += 1
            count += 1
        return DMLResult(count, ctx.stats)

    def _check_foreign_keys(self, table, values: tuple, ctx: ExecContext):
        for fk in table.foreign_keys:
            ref_table = self.catalog.table(fk.ref_table)
            key = tuple(values[table.position(c)] for c in fk.columns)
            if any(part is None for part in key):
                continue  # NULL FK components are not checked, as in SQL
            if tuple(c.upper() for c in fk.ref_columns) != tuple(
                    c.upper() for c in ref_table.primary_key):
                continue  # only PK-referencing FKs are enforceable here
            if ctx.txn.get(ref_table.name, key) is None:
                raise IntegrityError(
                    f"foreign key violation: {table.name}{fk.columns} -> "
                    f"{fk.ref_table}{key} has no parent row"
                )

    # -- UPDATE / DELETE -----------------------------------------------------------

    def execute_update(self, plan: UpdatePlan, txn: Transaction,
                       params: tuple = ()) -> DMLResult:
        ctx = self._context(txn, params, route_columnar=False)
        table = plan.table
        targets = _targets(table, plan.source, ctx)
        count = 0
        for pk, values in targets:
            new_values = list(values)
            for position, fn in zip(plan.set_positions, plan.set_fns):
                column = table.columns[position]
                value = column.col_type.validate(fn(values, ctx))
                if value is None and not column.nullable:
                    raise IntegrityError(
                        f"column {column.name!r} of {table.name} is NOT NULL"
                    )
                new_values[position] = value
            new_values = tuple(new_values)
            new_pk = table.pk_of(new_values)
            if new_pk != pk:
                txn.delete(table.name, pk)
                txn.insert(table.name, new_pk, new_values)
                ctx.stats.writes[table.name] += 2
            else:
                txn.update(table.name, pk, new_values)
                ctx.stats.writes[table.name] += 1
            count += 1
        return DMLResult(count, ctx.stats)

    def execute_delete(self, plan: DeletePlan, txn: Transaction,
                       params: tuple = ()) -> DMLResult:
        ctx = self._context(txn, params, route_columnar=False)
        targets = _targets(plan.table, plan.source, ctx)
        for pk, _values in targets:
            txn.delete(plan.table.name, pk)
            ctx.stats.writes[plan.table.name] += 1
        return DMLResult(len(targets), ctx.stats)


def _targets(table: Table, source: PlanNode, ctx: ExecContext) -> list:
    """``(pk, values)`` of every row ``source`` — a statement's scan under
    its residual filter — reads."""
    pk_of = table.pk_of
    return [(pk_of(values), values) for values in source.rows(ctx)]
