"""Storage substrate: MVCC row store, columnar replica, indexes, WAL, buffer pool."""

from repro.storage.bufferpool import BufferPool, BufferPoolStats
from repro.storage.columnstore import (
    SEGMENT_ROWS,
    ColumnarReplica,
    ColumnarTable,
    Segment,
)
from repro.storage.index import OrderedIndex
from repro.storage.partition import PartitionMap, stable_hash
from repro.storage.rowstore import (
    INF_TS,
    RowStorage,
    RowVersion,
    TableStore,
)
from repro.storage.wal import LogOp, LogRecord, WriteAheadLog

__all__ = [
    "BufferPool",
    "BufferPoolStats",
    "SEGMENT_ROWS",
    "ColumnarReplica",
    "ColumnarTable",
    "Segment",
    "OrderedIndex",
    "PartitionMap",
    "stable_hash",
    "INF_TS",
    "RowStorage",
    "RowVersion",
    "TableStore",
    "LogOp",
    "LogRecord",
    "WriteAheadLog",
]
