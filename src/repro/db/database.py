"""Embedded database facade.

``Database`` wires the catalog, MVCC row store, optional columnar replica,
transaction manager, planner and executor into a single engine with a
driver-like API::

    db = Database(with_columnar=True)
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    with db.connect() as conn:
        conn.execute("INSERT INTO t (id, v) VALUES (?, ?)", (1, 10))
        conn.commit()
        result = conn.execute("SELECT v FROM t WHERE id = ?", (1,))

Statements are prepared once per SQL string and cached database-wide in a
bounded LRU (``PLAN_CACHE_SIZE``), so the benchmark loop never re-parses its
workload statements; hits/misses surface in each statement's ``ExecStats``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.catalog.schema import Catalog, Column, ForeignKey, IndexDef, Table
from repro.catalog.types import type_from_name
from repro.errors import (
    ConfigError,
    ConnectionStateError,
    ReplicaUnavailableError,
    SQLError,
    TransientError,
    UnsupportedFeatureError,
)
from repro.fault import CircuitBreaker, FailpointRegistry
from repro.sql import ast
from repro.sql.executor import Executor
from repro.sql.parser import parse_sql
from repro.sql.planner import Planner, SelectPlan
from repro.sql.result import DMLResult, Result
from repro.storage.columnstore import SEGMENT_ROWS, ColumnarReplica
from repro.storage.partition import PartitionMap
from repro.storage.rowstore import RowStorage
from repro.txn.manager import IsolationLevel, Transaction, TransactionManager

#: capacity of the database-wide prepared-plan LRU
PLAN_CACHE_SIZE = 256


class Database:
    """One logical database: catalog + storage + transactions + SQL.

    ``partitions`` hash-partitions every table on its partition key — the
    first primary-key column.  The row store keeps one store per table
    whatever the count; the placement lives in the WAL (one stream per
    partition) and the columnar replica (one table per partition).
    Partitioning redistributes data, not semantics: every deterministic
    query result (ORDER BY output, aggregates, point/prefix reads, any
    row-store scan) is identical for every partition count; only the
    SQL-undefined row order of *unordered* columnar-routed results follows
    partition concatenation order.  What partitioning changes is
    *placement*: PK access binds to one partition, commits are classified
    single- vs multi-partition, and columnar scans scatter-gather across
    the per-partition segment sets.
    """

    def __init__(self, enforce_foreign_keys: bool = False,
                 supports_foreign_keys: bool = True,
                 with_columnar: bool = False,
                 columnar_segment_rows: int | None = None,
                 default_isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
                 partitions: int = 1,
                 failpoints: FailpointRegistry | None = None,
                 retain_wal: bool = False):
        self.catalog = Catalog()
        self.partition_map = PartitionMap(partitions)
        # one failpoint registry shared by every layer; unarmed it costs
        # one attribute read per seam.  retain_wal=True keeps applied WAL
        # prefixes instead of truncating them after replication — required
        # for recover() to rebuild the columnar replica from LSN 0.
        self.failpoints = failpoints if failpoints is not None \
            else FailpointRegistry()
        self.retain_wal = retain_wal
        self.storage = RowStorage(self.partition_map,
                                  failpoints=self.failpoints)
        # The columnar replica is delta–main: replication applies into
        # plain delta tails, compaction merges into primary-key-ordered
        # encoded main segments.
        if with_columnar:
            self.columnar = ColumnarReplica(
                columnar_segment_rows if columnar_segment_rows is not None
                else SEGMENT_ROWS,
                partition_map=self.partition_map,
                failpoints=self.failpoints,
            )
        else:
            self.columnar = None
        # circuit breaker for the replica scan path: transient replica
        # faults open it, and columnar-routed statements degrade to the
        # row pipeline until the replica heals (answers stay identical)
        self.replica_breaker = CircuitBreaker() if with_columnar else None
        self.degraded_statements_total = 0
        self.txn_manager = TransactionManager(self.storage,
                                              failpoints=self.failpoints)
        self.planner = Planner(self.catalog,
                               build_vectorized=self.columnar is not None)
        self.supports_foreign_keys = supports_foreign_keys
        self.enforce_foreign_keys = enforce_foreign_keys and supports_foreign_keys
        self.default_isolation = default_isolation
        # transient compaction faults replicate() absorbed (see
        # _compact_with_retry); the delta stays pending for the next merge
        self.compaction_failures = 0
        self.executor = Executor(
            self.catalog, self.columnar,
            enforce_foreign_keys=self.enforce_foreign_keys,
            partition_map=self.partition_map,
            failpoints=self.failpoints,
        )
        # bounded LRU keyed on SQL text: statements beyond the capacity
        # evict the least-recently-prepared plan instead of growing the
        # cache for the database's lifetime
        self._plan_cache: OrderedDict[str, object] = OrderedDict()
        # one mutex guards every LRU mutation (lookup move_to_end, insert,
        # eviction): OrderedDict reordering is not atomic, so interleaved
        # sessions on real threads would otherwise corrupt the
        # recency chain.  Planning itself happens outside the lock.
        self._plan_cache_lock = threading.Lock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_evictions = 0

    @property
    def partitions(self) -> int:
        return self.partition_map.partitions

    # -- DDL -----------------------------------------------------------------

    def execute_ddl(self, sql: str):
        """Run one CREATE TABLE / CREATE INDEX / DROP TABLE statement."""
        statement = parse_sql(sql)
        if isinstance(statement, ast.CreateTable):
            self._create_table(statement)
        elif isinstance(statement, ast.CreateIndex):
            self._create_index(statement)
        elif isinstance(statement, ast.DropTable):
            if self.columnar is not None:
                # WAL records carry only the table name: apply the table's
                # pending records now, or a re-created table of the same
                # name would receive them
                self.replicate()
            self.catalog.drop_table(statement.name)
            self.storage.drop_table(statement.name)
            if self.columnar is not None:
                self.columnar.drop_table(statement.name)
        else:
            raise SQLError(f"not a DDL statement: {sql!r}")
        self._plan_cache.clear()

    def run_script(self, script: str):
        """Run a ``;``-separated DDL script (blank statements ignored)."""
        for piece in script.split(";"):
            if piece.strip():
                self.execute_ddl(piece)

    def _create_table(self, statement: ast.CreateTable):
        if statement.foreign_keys and not self.supports_foreign_keys:
            raise UnsupportedFeatureError(
                f"this engine does not support FOREIGN KEY constraints "
                f"(table {statement.name!r}); use the no-FK schema variant"
            )
        columns = [
            Column(c.name, type_from_name(c.type_name, c.type_args or None),
                   nullable=c.nullable)
            for c in statement.columns
        ]
        fks = [ForeignKey(f.columns, f.ref_table, f.ref_columns)
               for f in statement.foreign_keys]
        table = Table(statement.name, columns, statement.primary_key, fks)
        self.create_table(table)

    def create_table(self, table: Table):
        """Register a table built programmatically."""
        self.catalog.create_table(table)
        self.storage.register_table(table)
        if self.columnar is not None:
            self.columnar.register_table(table)

    def _create_index(self, statement: ast.CreateIndex):
        index = IndexDef(statement.name, statement.table,
                         tuple(statement.columns), statement.unique)
        self.create_index(index)

    def create_index(self, index: IndexDef):
        table = self.catalog.table(index.table)
        table.add_index(index)
        self.storage.store(index.table).create_index(index)

    # -- bulk loading (loader fast path) ----------------------------------------

    def bulk_load(self, table_name: str, rows) -> int:
        """Install fully-formed rows as one committed batch.

        Bypasses per-row transaction machinery (workload loaders insert many
        thousands of rows); still writes the WAL so the columnar replica can
        catch up.
        """
        from repro.storage.wal import LogOp

        table = self.catalog.table(table_name)
        count = 0
        writes = []
        for row in rows:
            values = tuple(row)
            if len(values) != len(table.columns):
                raise SQLError(
                    f"bulk_load row width {len(values)} != table width "
                    f"{len(table.columns)} for {table_name}"
                )
            writes.append((table.name, table.pk_of(values), values,
                           LogOp.INSERT))
            count += 1
        self.txn_manager.install_committed(writes)
        return count

    def replicate(self, limit: int | None = None) -> int:
        """Apply pending WAL records to the columnar replica.

        Partition streams are merged by global commit order, so a partial
        apply (``limit``) leaves the replica in exactly the state a
        single-stream log would have produced.  Applied prefixes are then
        compacted away (``truncate_upto``), bounding WAL memory by the
        replication lag instead of the database lifetime.
        """
        if self.columnar is None:
            return 0
        applied = self.columnar.apply_from_partitions(self.storage.wals,
                                                      limit)
        if applied == 0:
            # nothing new: no prefix to truncate, no fresh delta to merge
            # (this path runs once per simulated request via engine ticks)
            return 0
        if not self.retain_wal:
            for pid, wal in enumerate(self.storage.wals):
                wal.truncate_upto(self.columnar.applied_lsns[pid])
        self._compact_with_retry()
        return applied

    def _compact_with_retry(self):
        """Threshold compaction inside ``replicate``.

        A *transient* failure (injected fault, flaky merge) is absorbed:
        the unpublished merge left the old main + delta fully queryable,
        the delta stays pending, and the next ``replicate`` retries — a
        compaction fault must never fail the write path or a query.
        """
        try:
            self.columnar.compact()
        except TransientError as exc:
            self.compaction_failures += 1
            self.failpoints.record_recovery(
                getattr(exc, "failpoint", None) or "compact.merge")

    def recover(self) -> dict:
        """Crash recovery: repair the WALs, rebuild the columnar replica.

        Models a restart after a crash (simulated by a failpoint firing
        mid-operation):

        1. every partition WAL verifies its checksums and truncates its
           torn tail (``WriteAheadLog.recover``);
        2. valid-looking records of a torn commit still sitting at the
           tails of *sibling* streams are dropped too (the crash hit
           between per-partition appends; no later commit can exist past
           the crash point), so no partial commit survives;
        3. the columnar replica is reset in place and re-replicated from
           LSN 0 — which requires ``retain_wal=True``, otherwise the
           applied prefix is gone and the rebuild is impossible.

        Returns ``{"records_dropped", "torn_commits", "replicated"}``.
        """
        dropped = []
        for wal in self.storage.wals:
            dropped.extend(wal.recover())
        torn_commits = {record.commit_ts for record in dropped}
        if torn_commits:
            for wal in self.storage.wals:
                dropped.extend(wal.drop_tail_commits(torn_commits))
        replicated = 0
        if self.columnar is not None:
            if not self.retain_wal and \
                    any(wal.base_lsn > 0 for wal in self.storage.wals):
                raise ConfigError(
                    "replica rebuild needs the full WAL history: construct "
                    "the Database with retain_wal=True (applied prefixes "
                    "were already truncated)"
                )
            self.columnar.reset()
            replicated = self.replicate()
            if self.replica_breaker is not None:
                # the replica was just rebuilt: it is healthy by definition
                self.replica_breaker.record_success()
        return {"records_dropped": len(dropped),
                "torn_commits": sorted(torn_commits),
                "replicated": replicated}

    def replication_lag(self) -> int:
        if self.columnar is None:
            return 0
        return self.columnar.total_lag(self.storage.wals)

    # -- statement preparation -----------------------------------------------------

    def prepare(self, sql: str):
        """The plan ``sql`` runs with, through the plan cache: the public
        way to inspect a statement's plan tree."""
        plan, _hit, _evicted = self._prepare(sql)
        return plan

    def _prepare(self, sql: str) -> tuple[object, bool, int]:
        """Plan lookup through the LRU.

        Returns ``(plan, cache_hit, evictions)`` — the entries this
        statement's insert displaced, attributed to its ExecStats.
        """
        cache = self._plan_cache
        with self._plan_cache_lock:
            plan = cache.get(sql)
            if plan is not None:
                cache.move_to_end(sql)
                self.plan_cache_hits += 1
                return plan, True, 0
        # parse + plan outside the lock: planning is the expensive part and
        # needs no cache state
        statement = parse_sql(sql)
        plan = self.planner.plan(statement)
        evicted = 0
        with self._plan_cache_lock:
            racer = cache.get(sql)
            if racer is not None:
                # another session planned the same statement while we were
                # outside the lock: keep the installed plan
                cache.move_to_end(sql)
                self.plan_cache_hits += 1
                return racer, True, 0
            self.plan_cache_misses += 1
            cache[sql] = plan
            while len(cache) > PLAN_CACHE_SIZE:
                cache.popitem(last=False)
                evicted += 1
                self.plan_cache_evictions += 1
        return plan, False, evicted

    # -- connections ------------------------------------------------------------------

    def connect(self, isolation: IsolationLevel | None = None) -> "Connection":
        return Connection(self, isolation or self.default_isolation)

    # -- convenience -----------------------------------------------------------------

    def query(self, sql: str, params: tuple = ()) -> Result:
        """One-shot autocommit query."""
        with self.connect() as conn:
            result = conn.execute(sql, params)
            conn.commit()
            return result


class Connection:
    """A session: explicit or autocommit transactions over the database."""

    def __init__(self, db: Database, isolation: IsolationLevel):
        self.db = db
        self.isolation = isolation
        self._txn: Transaction | None = None
        self._closed = False

    # -- context manager ------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb):
        if exc_type is not None:
            self.rollback()
        self.close()
        return False

    def close(self):
        if self._txn is not None:
            self.rollback()
        self._closed = True

    # -- transaction control ----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin(self) -> Transaction:
        if self._closed:
            raise ConnectionStateError("connection is closed")
        if self._txn is not None:
            raise ConnectionStateError("transaction already open")
        self._txn = self.db.txn_manager.begin(self.isolation)
        return self._txn

    def commit(self):
        if self._txn is not None:
            txn = self._txn
            self._txn = None
            txn.commit()

    def rollback(self):
        if self._txn is not None:
            txn = self._txn
            self._txn = None
            txn.rollback()

    # -- statement execution ---------------------------------------------------------

    def execute(self, sql: str, params: tuple = (),
                route_columnar: bool = False) -> Result | DMLResult:
        """Execute one statement inside the current (or a fresh autocommit)
        transaction."""
        if self._closed:
            raise ConnectionStateError("connection is closed")
        plan, cache_hit, evicted = self.db._prepare(sql)
        autocommit = self._txn is None
        if autocommit:
            self.begin()
        txn = self._txn
        txn.statement_begin()
        breaker = self.db.replica_breaker
        degraded = False
        if route_columnar and breaker is not None and not breaker.allow():
            # breaker open: skip the failing replica entirely and serve
            # from the row pipeline (identical answers, higher cost).
            # This *bypasses* the segment-sketch cache rather than
            # poisoning it: degraded statements never read or write
            # cached states, and the warm entries stay valid for when
            # the replica heals (sketches track replica state, which a
            # scan fault does not change).
            route_columnar = False
            degraded = True
        try:
            try:
                result = self._run(plan, txn, tuple(params), route_columnar)
                if route_columnar and breaker is not None:
                    breaker.record_success()
            except ReplicaUnavailableError:
                # transient replica fault: the scan failed before doing
                # any work, so re-running on the row pipeline is safe —
                # the statement degrades instead of erroring
                if breaker is not None:
                    breaker.record_failure()
                self.db.failpoints.record_recovery("replica.scan")
                result = self._run(plan, txn, tuple(params), False)
                result.stats.faults_injected += 1
                result.stats.faults_recovered += 1
                degraded = True
        except Exception:
            if autocommit:
                self.rollback()
            raise
        if degraded:
            result.stats.degraded_statements += 1
            self.db.degraded_statements_total += 1
        if cache_hit:
            result.stats.plan_cache_hits += 1
        else:
            result.stats.plan_cache_misses += 1
        result.stats.plan_cache_evictions += evicted
        if autocommit:
            self.commit()
        return result

    def _run(self, plan, txn: Transaction, params: tuple,
             route_columnar: bool):
        executor = self.db.executor
        if isinstance(plan, SelectPlan):
            return executor.execute_select(plan, txn, params, route_columnar)
        from repro.sql.planner import DeletePlan, InsertPlan, UpdatePlan

        if isinstance(plan, InsertPlan):
            return executor.execute_insert(plan, txn, params)
        if isinstance(plan, UpdatePlan):
            return executor.execute_update(plan, txn, params)
        if isinstance(plan, DeletePlan):
            return executor.execute_delete(plan, txn, params)
        raise SQLError(f"cannot execute plan {plan!r}")
