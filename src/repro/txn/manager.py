"""Transaction manager: MVCC snapshots, buffered writes, commit validation.

Transactions buffer their writes locally and install them at commit with a
fresh commit timestamp (optimistic concurrency, as in TiDB's default mode):

* ``SNAPSHOT`` / ``REPEATABLE_READ`` — one read timestamp for the whole
  transaction; commit runs first-committer-wins validation over the write
  set and aborts with ``WriteConflictError`` on overlap.
* ``READ_COMMITTED`` — the read timestamp is refreshed at every statement
  (MemSQL only offers this level, per the paper); no first-committer-wins
  validation, conflicts instead surface as lock waits in the simulator.

``SELECT … FOR UPDATE`` takes no lock (TiDB's optimistic mode): its target
rows join the validated keys, so under the two validating levels a
concurrent commit that updated, deleted or inserted one of them after
``start_ts`` aborts this commit.  A transaction whose only effect is
``FOR UPDATE`` validates its keys and then commits read-only.

Commits are serial: one section validates, allocates the commit
timestamp, installs the write set and only then publishes the timestamp
as the visible watermark new snapshots start from.  Readers never wait
on it.

Reads merge the transaction's own write buffer over the store snapshot, so a
transaction always sees its own effects — crucial for hybrid transactions,
whose embedded real-time query must observe the online statements that
precede it.  Full and PK-prefix scans overlay the buffer batch-at-a-time,
and cost nothing extra when the transaction has not written to the scanned
table.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable, Iterator
from enum import Enum

from repro.errors import (
    ConnectionStateError,
    IntegrityError,
    WriteConflictError,
)
from repro.storage.rowstore import SCAN_BATCH_ROWS, RowStorage, iter_pairs
from repro.storage.wal import LogOp


class IsolationLevel(Enum):
    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"
    REPEATABLE_READ = "repeatable_read"

    @property
    def statement_snapshot(self) -> bool:
        """True when the read timestamp refreshes at each statement."""
        return self is IsolationLevel.READ_COMMITTED

    @property
    def validates_writes(self) -> bool:
        """True when commit runs first-committer-wins validation."""
        return self is not IsolationLevel.READ_COMMITTED


class TxnStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One in-flight transaction.  Obtain via ``TransactionManager.begin``."""

    def __init__(self, manager: "TransactionManager", txn_id: int,
                 start_ts: int, isolation: IsolationLevel):
        self._manager = manager
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.read_ts = start_ts
        self.isolation = isolation
        self.status = TxnStatus.ACTIVE
        self.commit_ts: int | None = None
        # partition ids the commit touched (set at commit; () if read-only)
        self.commit_partitions: tuple[int, ...] = ()
        # (table, pk) -> (values | None, LogOp); insertion order preserved
        self._writes: dict[tuple, tuple] = {}
        # the same buffer per table, table -> {pk: values | None}: what a
        # scan of that table overlays on the store snapshot
        self._local: dict[str, dict[tuple, tuple | None]] = {}
        # (table, pk) of SELECT ... FOR UPDATE targets: validated at commit
        self.for_update_keys: set[tuple] = set()

    @property
    def manager(self) -> "TransactionManager":
        return self._manager

    # -- lifecycle ---------------------------------------------------------

    def _check_active(self):
        if self.status is not TxnStatus.ACTIVE:
            raise ConnectionStateError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    def statement_begin(self):
        """Per-statement bookkeeping; refreshes the snapshot under RC."""
        self._check_active()
        if self.isolation.statement_snapshot:
            self.read_ts = self._manager.current_ts()

    def commit(self):
        self._manager.commit(self)

    def rollback(self):
        self._manager.rollback(self)

    # -- reads (write buffer merged over MVCC snapshot) ---------------------

    def get(self, table: str, pk: tuple) -> tuple | None:
        self._check_active()
        key = (table.upper(), pk)
        if key in self._writes:
            return self._writes[key][0]
        return self._manager.storage.store(table).get(pk, self.read_ts)

    def scan_batches(self, table: str, size: int = SCAN_BATCH_ROWS
                     ) -> Iterator[tuple[list, list]]:
        """Full scan as parallel ``(pks, rows)`` lists of at most ``size``
        rows, this transaction's buffered writes overlaid."""
        self._check_active()
        base = self._manager.storage.store(table).scan_batches(self.read_ts,
                                                               size)
        local = self._local.get(table.upper())
        return self._overlaid(base, local, size) if local else base

    def scan(self, table: str) -> Iterator[tuple[tuple, tuple]]:
        return iter_pairs(self.scan_batches(table))

    def pk_prefix_scan_batches(self, table: str, prefix: tuple,
                               size: int = SCAN_BATCH_ROWS
                               ) -> Iterator[tuple[list, list]]:
        """``scan_batches`` over the rows whose primary key starts with
        ``prefix``: key order, then this transaction's own new rows."""
        self._check_active()
        base = self._manager.storage.store(table).pk_prefix_scan_batches(
            prefix, self.read_ts, size)
        local = self._local.get(table.upper())
        if local:
            n = len(prefix)
            local = {pk: values for pk, values in local.items()
                     if pk[:n] == prefix}
        return self._overlaid(base, local, size) if local else base

    def local_rows(self, table: str) -> Iterable[tuple[tuple, tuple | None]]:
        """This transaction's buffered writes for ``table`` (pk, values|None).

        Index scans consult this so a transaction's own uncommitted inserts
        are visible to its later statements (hybrid transactions rely on the
        embedded real-time query seeing the online statements before it).
        """
        return self._local.get(table.upper(), {}).items()

    @staticmethod
    def _overlaid(base: Iterator, local: dict, size: int
                  ) -> Iterator[tuple[list, list]]:
        """Overlay buffered writes ``local`` on a base scan, batch by batch:
        rewritten rows are replaced in position, deleted rows dropped and
        new rows appended in write order."""
        pending = dict(local)
        for pks, rows in base:
            hits = [i for i, pk in enumerate(pks) if pk in pending]
            for i in reversed(hits):
                values = pending.pop(pks[i])
                if values is None:
                    del pks[i], rows[i]
                else:
                    rows[i] = values
            if rows:
                yield pks, rows
        pks = [pk for pk, values in pending.items() if values is not None]
        rows = [pending[pk] for pk in pks]
        for start in range(0, len(pks), size):
            yield pks[start:start + size], rows[start:start + size]

    # -- writes (buffered) ---------------------------------------------------

    def insert(self, table: str, pk: tuple, values: tuple):
        self._check_active()
        key = (table.upper(), pk)
        if self.get(table, pk) is not None:
            raise IntegrityError(
                f"duplicate primary key {pk} in table {table}"
            )
        self._buffer(key, values, LogOp.INSERT)

    def update(self, table: str, pk: tuple, values: tuple):
        self._check_active()
        key = (table.upper(), pk)
        if self.get(table, pk) is None:
            raise IntegrityError(f"update of missing row {pk} in table {table}")
        op = LogOp.INSERT if key in self._writes and \
            self._writes[key][1] is LogOp.INSERT else LogOp.UPDATE
        self._buffer(key, values, op)

    def delete(self, table: str, pk: tuple):
        self._check_active()
        key = (table.upper(), pk)
        if self.get(table, pk) is None:
            raise IntegrityError(f"delete of missing row {pk} in table {table}")
        self._buffer(key, None, LogOp.DELETE)

    def _buffer(self, key: tuple, values: tuple | None, op: LogOp):
        table, pk = key
        self._writes[key] = (values, op)
        self._local.setdefault(table, {})[pk] = values

    def lock_for_update(self, table: str, pk: tuple):
        """SELECT ... FOR UPDATE: validate the row at commit, write nothing."""
        self._check_active()
        self.for_update_keys.add((table.upper(), pk))

    # -- introspection --------------------------------------------------------

    @property
    def write_set(self) -> list[tuple]:
        """Ordered ``(table, pk, values, op)`` tuples."""
        return [
            (table, pk, values, op)
            for (table, pk), (values, op) in self._writes.items()
        ]

    @property
    def is_read_only(self) -> bool:
        return not self._writes

    def written_keys(self) -> set[tuple]:
        return set(self._writes)


class TransactionManager:
    """Issues timestamps, runs commit validation, installs write sets."""

    def __init__(self, storage: RowStorage, failpoints=None):
        self.storage = storage
        self.failpoints = failpoints
        self._ts = itertools.count(1)
        # the visible watermark: every commit at or below it has finished
        # installing.  Snapshots and read-only commits read it; only the
        # commit section moves it, as its last step.
        self._latest_ts = 0
        # the one commit section: validate -> allocate commit_ts -> install
        # -> publish.  Two writers never both validate against the version
        # the other replaces, and no snapshot starts inside an install.
        # Readers never take it.
        self._commit_lock = threading.Lock()
        self._txn_ids = itertools.count(1)
        self.aborts = 0
        # commit-path classification: one participant partition -> fast
        # path; several -> two-phase (all logged under one commit_ts)
        self.single_partition_commits = 0
        self.multi_partition_commits = 0
        # two-phase commits aborted at prepare (injected participant
        # failures): the abort is clean — nothing logged, nothing installed
        self.prepare_aborts = 0

    def current_ts(self) -> int:
        """The visible watermark: the newest fully installed commit."""
        return self._latest_ts

    def _install(self, write_set) -> int:
        """Allocate a commit timestamp, install ``write_set`` at it, then
        publish it.  The caller holds ``_commit_lock``; an install that
        raises (a failed WAL append) publishes nothing."""
        commit_ts = next(self._ts)
        self.storage.apply_commit(commit_ts, write_set)
        self._latest_ts = commit_ts
        return commit_ts

    def install_committed(self, write_set) -> int:
        """Install writes that are committed by construction (bulk loaders
        that bypass per-row transaction machinery) through the commit
        section; returns their commit timestamp."""
        with self._commit_lock:
            return self._install(write_set)

    def begin(self, isolation: IsolationLevel = IsolationLevel.SNAPSHOT
              ) -> Transaction:
        return Transaction(self, next(self._txn_ids), self._latest_ts,
                           isolation)

    def commit(self, txn: Transaction):
        txn._check_active()
        try:
            with self._commit_lock:
                if txn.isolation.validates_writes:
                    self._validate(txn)
                if txn.is_read_only:
                    txn.status = TxnStatus.COMMITTED
                    txn.commit_ts = self._latest_ts
                    return
                write_set = txn.write_set
                participants = self.storage.partitions_touched(write_set)
                if len(participants) > 1 and self.failpoints is not None:
                    # 2PC prepare: a participant that fails here vetoes the
                    # commit before any timestamp is allocated or any
                    # record logged — the abort is total, never partial.
                    try:
                        self.failpoints.fire("txn.prepare")
                    except Exception:
                        self.prepare_aborts += 1
                        raise
                # single-partition commits take the fast path;
                # multi-partition commits are two-phase: every participant
                # logs its records under the one shared commit_ts, so the
                # commit is atomic across partitions (all records visible
                # at commit_ts or none)
                txn.commit_ts = self._install(write_set)
                if len(participants) > 1:
                    self.multi_partition_commits += 1
                else:
                    self.single_partition_commits += 1
            txn.commit_partitions = participants
            txn.status = TxnStatus.COMMITTED
        except Exception:
            txn.status = TxnStatus.ABORTED
            self.aborts += 1
            raise

    def rollback(self, txn: Transaction):
        if txn.status is TxnStatus.ACTIVE:
            txn.status = TxnStatus.ABORTED
            self.aborts += 1

    def _validate(self, txn: Transaction):
        """First-committer-wins: abort if any written or ``FOR UPDATE`` row
        changed since start.  A key both written and selected ``FOR
        UPDATE`` is checked once, by the write rule."""
        writes = txn._writes
        for key in itertools.chain(writes, txn.for_update_keys - writes.keys()):
            table, pk = key
            latest = self.storage.store(table).latest_committed(pk)
            if latest is not None and latest.begin_ts > txn.start_ts:
                if (latest.values is None and key in writes
                        and writes[key][1] is LogOp.INSERT):
                    continue  # concurrent delete then our insert is fine
                raise WriteConflictError(
                    f"write conflict on {table}{pk}: committed at "
                    f"{latest.begin_ts} > snapshot {txn.start_ts}"
                )
