"""MVCC row store.

Each table keeps a version chain per primary key.  A version is visible to a
snapshot timestamp ``ts`` when ``begin_ts <= ts`` and (``end_ts`` is unset or
``end_ts > ts``).  Writers install new versions at commit time with the
committing transaction's commit timestamp; there are no in-place updates, so
readers never block writers (snapshot isolation's core property, shared by
both TiDB and MemSQL in the paper's experiments).

Each table is one ``TableStore``, whatever the partition count.  Hash
partitioning (``repro.storage.partition``) places the *log*: the WAL is one
stream per partition, a commit is classified by the partitions its writes
land on, and the columnar replica keeps one table per partition.  Row order
is the database-global first-install order, so query results are
independent of the partition count.

Full scans and PK-prefix scans are **batch-at-a-time**: ``scan_batches``
and ``pk_prefix_scan_batches`` hand out parallel ``(pks, rows)`` lists, so
the row pipeline above pays per-batch — not per-row — generator hops.

Beside the chains, each table keeps one **newest map**, ``pk -> values``
of the newest committed version (None for a tombstone) in first-install
order, and ``last_commit_ts``, the timestamp of the newest commit
installed.  A snapshot at or after ``last_commit_ts`` sees exactly the
newest map, so its full or PK-prefix scan is sliced from C-level copies of
it (HyPer's newest-version-in-place MVCC: version checks are paid only by
snapshots older than the newest write).  Tombstones are filtered out only
when the table holds any — more keys than live rows.  Older snapshots
walk the version chains.  Both paths take their key list when the scan is
called, so a scan still being consumed when a later commit lands neither
raises nor sees that commit.

Invalidation rule, one per table: commits install one at a time, in
timestamp order, and a writer stores the table's ``last_commit_ts``
*before* it stores the value.  A reader reads ``last_commit_ts``, copies
the map, then checks ``last_commit_ts`` has not changed; if it has, a
commit landed during the copy and the reader walks the chains instead.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from repro.catalog.schema import IndexDef, Table
from repro.errors import CatalogError, IntegrityError
from repro.storage.index import OrderedIndex
from repro.storage.partition import PartitionMap
from repro.storage.wal import LogOp, WriteAheadLog

INF_TS = float("inf")

# rows per full-scan batch: large enough that per-batch overhead vanishes,
# small enough that a batch of row pointers stays cache- and memory-cheap
SCAN_BATCH_ROWS = 2048


class RowVersion:
    """One MVCC version of a row. ``values is None`` marks a delete tombstone."""

    __slots__ = ("begin_ts", "end_ts", "values")

    def __init__(self, begin_ts: int, values: tuple | None):
        self.begin_ts = begin_ts
        self.end_ts = INF_TS
        self.values = values

    def visible_at(self, ts: int) -> bool:
        return self.begin_ts <= ts < self.end_ts

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"RowVersion([{self.begin_ts},{self.end_ts}) {self.values})"


def _visible_values(chain: list[RowVersion], ts: int) -> tuple | None:
    """Values of the version of ``chain`` visible at ``ts`` (None when the
    row is absent or deleted in that snapshot)."""
    for version in reversed(chain):
        if version.visible_at(ts):
            return version.values
        if version.end_ts <= ts:
            # chains are begin_ts-ordered; nothing earlier can be visible
            return None
    return None


def _scan_chain_batches(chains: Iterable[tuple[tuple, list[RowVersion]]],
                        ts: int, size: int) -> Iterator[tuple[list, list]]:
    """Snapshot scan over ``(pk, chain)`` pairs, ``size`` rows at a time.

    Yields parallel ``(pks, rows)`` lists of the rows visible at ``ts``.
    The newest version is tested inline — it is the visible one for every
    row not rewritten since the snapshot, and its ``end_ts`` is open by
    construction — and the chain is walked only when that fails.
    """
    pks: list = []
    rows: list = []
    for pk, chain in chains:
        newest = chain[-1]
        values = newest.values if newest.begin_ts <= ts \
            else _visible_values(chain, ts)
        if values is not None:
            pks.append(pk)
            rows.append(values)
            if len(rows) >= size:
                yield pks, rows
                pks = []
                rows = []
    if rows:
        yield pks, rows


def _newest_batches(store, ts: int, size: int, keys: list | None = None
                    ) -> Iterator[tuple[list, list]] | None:
    """Batches of ``store``'s newest map — every key in first-install order,
    or ``keys`` — sliced from C-level copies of it.  None when the snapshot
    ``ts`` is older than ``store.last_commit_ts`` or a commit landed during
    the copy (the module docstring's invalidation rule): walk the chains."""
    last = store.last_commit_ts
    if ts < last:
        return None
    newest = store._newest
    if keys is None:
        pks = list(newest)
        rows = list(newest.values())
    else:
        pks = keys
        rows = list(map(newest.__getitem__, keys))
    tombstones = store.tombstones
    if store.last_commit_ts != last:
        return None
    if tombstones:
        # a row is a non-empty tuple, so only a tombstone's None is falsy
        pks = list(itertools.compress(pks, rows))
        rows = list(filter(None, rows))
    return ((pks[i:i + size], rows[i:i + size])
            for i in range(0, len(rows), size))


def iter_pairs(batches) -> Iterator[tuple[tuple, tuple]]:
    """``(pk, values)`` pairs of a stream of ``(pks, rows)`` batches."""
    for pks, rows in batches:
        yield from zip(pks, rows)


class TableStore:
    """Version chains, the newest map and secondary indexes of one table."""

    def __init__(self, table: Table):
        self.table = table
        self._chains: dict[tuple, list[RowVersion]] = {}
        # pk -> newest committed values, first-install order (module doc)
        self._newest: dict[tuple, tuple | None] = {}
        self.last_commit_ts = 0
        self._indexes: dict[str, OrderedIndex] = {}
        # ordered index over primary keys, for efficient PK-prefix scans;
        # entries are never removed (readers re-check MVCC visibility)
        self._pk_index = OrderedIndex("__pk__", table.primary_key)
        self.row_count = 0  # live rows (latest version is not a tombstone)

    # -- index management --------------------------------------------------

    def create_index(self, index: IndexDef):
        if index.name in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        idx = OrderedIndex(index.name, index.columns)
        self._indexes[index.name] = idx
        positions = [self.table.position(c) for c in index.columns]
        for pk, chain in self._chains.items():
            values = chain[-1].values
            if values is not None:
                idx.insert(tuple(values[p] for p in positions), pk)

    def index(self, name: str) -> OrderedIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(
                f"no index {name!r} on table {self.table.name!r}"
            ) from None

    def _index_key(self, idx, values: tuple) -> tuple:
        return tuple(values[self.table.position(c)] for c in idx.columns)

    # -- version chain access ----------------------------------------------

    def get(self, pk: tuple, ts: int) -> tuple | None:
        """Latest version of ``pk`` visible at ``ts`` (None if absent/deleted)."""
        chain = self._chains.get(pk)
        return None if chain is None else _visible_values(chain, ts)

    def latest_committed(self, pk: tuple) -> RowVersion | None:
        chain = self._chains.get(pk)
        return chain[-1] if chain else None

    @property
    def tombstones(self) -> int:
        """Keys whose newest version is a delete."""
        return len(self._chains) - self.row_count

    def scan_batches(self, ts: int, size: int = SCAN_BATCH_ROWS
                     ) -> Iterator[tuple[list, list]]:
        """Parallel ``(pks, rows)`` lists of the rows visible at ``ts``, in
        first-install order, at most ``size`` rows per batch."""
        batches = _newest_batches(self, ts, size)
        if batches is None:
            # copying the keys allocates no object per row, so no garbage
            # collection (which may run another thread's commit) can start
            # inside the copy; ``list(items())`` could raise mid-copy
            pks = list(self._chains)
            batches = _scan_chain_batches(
                zip(pks, map(self._chains.__getitem__, pks)), ts, size)
        return batches

    def scan(self, ts: int) -> Iterator[tuple[tuple, tuple]]:
        """Yield ``(pk, values)`` for every row visible at ``ts``."""
        return iter_pairs(self.scan_batches(ts))

    def pk_prefix_scan_batches(self, prefix: tuple, ts: int,
                               size: int = SCAN_BATCH_ROWS
                               ) -> Iterator[tuple[list, list]]:
        """``scan_batches`` over the rows whose primary key starts with
        ``prefix``, in key order.

        Served from the ordered PK index (the B+-tree analogue), so a prefix
        lookup touches only matching keys.  Note this only helps predicates
        on a *prefix* of a composite key — a predicate on a later key column
        (tabenchmark's ``sub_nbr``) still needs a full scan, which is exactly
        the slow-query behaviour the paper reports for both DBMSs.
        """
        pks = self._pk_index.prefix_keys(prefix)
        batches = _newest_batches(self, ts, size, pks)
        if batches is None:
            batches = _scan_chain_batches(
                zip(pks, map(self._chains.__getitem__, pks)), ts, size)
        return batches

    # -- commit-time installation -------------------------------------------

    def install(self, pk: tuple, values: tuple | None, commit_ts: int):
        """Install a new committed version (tombstone when values is None).

        ``last_commit_ts`` is stored before the newest map's value, and the
        map's key before the PK index's: readers rely on both orders."""
        chain = self._chains.get(pk)
        if chain is None and values is None:
            raise IntegrityError(
                f"delete of non-existent row {pk} in {self.table.name}"
            )
        self.last_commit_ts = commit_ts
        self._newest[pk] = values
        if chain is None:
            self._chains[pk] = [RowVersion(commit_ts, values)]
            self._pk_index.insert(pk, pk)
            self.row_count += 1
            self._index_insert(values, pk)
            return
        last = chain[-1]
        was_live = last.values is not None
        last.end_ts = commit_ts
        chain.append(RowVersion(commit_ts, values))
        now_live = values is not None
        if was_live and not now_live:
            self.row_count -= 1
            self._index_remove(last.values, pk)
        elif not was_live and now_live:
            self.row_count += 1
            self._index_insert(values, pk)
        elif was_live and now_live:
            # update: refresh index entries whose key changed
            for idx in self._indexes.values():
                old_key = self._index_key(idx, last.values)
                new_key = self._index_key(idx, values)
                if old_key != new_key:
                    idx.remove(old_key, pk)
                    idx.insert(new_key, pk)

    def _index_insert(self, values: tuple, pk: tuple):
        for idx in self._indexes.values():
            idx.insert(self._index_key(idx, values), pk)

    def _index_remove(self, values: tuple, pk: tuple):
        for idx in self._indexes.values():
            idx.remove(self._index_key(idx, values), pk)

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._chains.values())

    def garbage_collect(self, watermark_ts: int) -> int:
        """Drop versions invisible to every snapshot at or after ``watermark_ts``.

        Returns the number of versions reclaimed.  Chains keep at least the
        newest version, so reads — and the newest map beside them — stay
        correct, and are trimmed *in place*.
        """
        reclaimed = 0
        for chain in self._chains.values():
            keep = [v for v in chain if v.end_ts > watermark_ts]
            reclaimed += len(chain) - len(keep)
            chain[:] = keep
        return reclaimed


class RowStorage:
    """All table stores of one logical database, plus per-partition WALs.

    Every table is one ``TableStore``.  Every partition has its own WAL in
    ``wals`` (one stream when unpartitioned), stamped with a database-global
    ``seq`` so consumers can merge the streams back into commit order.
    """

    def __init__(self, partition_map: PartitionMap | None = None,
                 failpoints=None):
        self.pmap = partition_map or PartitionMap(1)
        self._stores: dict[str, TableStore] = {}
        self.wals = [WriteAheadLog(failpoints)
                     for _ in self.pmap.all_partitions()]
        self._seq = 0  # database-global commit-order stamp

    @property
    def partitions(self) -> int:
        return self.pmap.partitions

    @property
    def wal_head(self) -> int:
        """Total records ever logged across every partition stream."""
        return self._seq

    def register_table(self, table: Table):
        key = table.name.upper()
        if key in self._stores:
            raise CatalogError(f"storage for {table.name!r} already exists")
        self._stores[key] = TableStore(table)

    def drop_table(self, name: str):
        self._stores.pop(name.upper(), None)

    def store(self, name: str) -> TableStore:
        try:
            return self._stores[name.upper()]
        except KeyError:
            raise CatalogError(f"no storage for table {name!r}") from None

    def stores(self) -> dict[str, TableStore]:
        return self._stores

    def partitions_touched(self, writes) -> tuple[int, ...]:
        """Sorted distinct partition ids a write set lands on."""
        return tuple(sorted({
            self.pmap.partition_of_pk(pk) for _table, pk, _v, _op in writes
        }))

    def apply_commit(self, commit_ts: int, writes) -> list:
        """Install a committed write set and log it.

        ``writes`` is an iterable of ``(table_name, pk, values_or_None, op)``.
        Every record lands in its partition's WAL under the shared
        ``commit_ts`` (the one-timestamp half of two-phase commit) plus a
        global ``seq`` preserving cross-partition commit order.
        Returns the log records produced.

        WAL-first ordering: every record is logged before anything is
        installed into the version chains.  A torn WAL write mid-batch
        (crash / injected fault) therefore aborts the commit with *no*
        partial installation — the in-memory stores never saw it, and
        ``WriteAheadLog.recover()`` truncates the torn records.
        """
        writes = list(writes)
        records = []
        seq = self._seq
        for table_name, pk, values, op in writes:
            wal = self.wals[self.pmap.partition_of_pk(pk)]
            records.append(
                wal.append(commit_ts, table_name, pk, op, values, seq=seq)
            )
            seq += 1
        self._seq = seq
        for table_name, pk, values, op in writes:
            self.store(table_name).install(pk, values, commit_ts)
        return records

    def total_rows(self) -> int:
        return sum(s.row_count for s in self._stores.values())


__all__ = ["INF_TS", "SCAN_BATCH_ROWS", "RowVersion", "TableStore",
           "RowStorage", "LogOp", "iter_pairs"]
