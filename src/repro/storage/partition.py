"""Hash partitioning of tables across logical partitions.

Every table is hash-partitioned on its *partition key* — the first column
of the primary key (TPC-C's ``w_id``, SmallBank's ``custid``, TATP's
``s_id``) — the same convention TiDB regions and OceanBase tablets follow
for the benchmark schemas.  A ``PartitionMap`` is the single source of
truth shared by the per-partition WAL streams, the row store's commit
classification, the columnar replica and the simulated clusters, so data
placement is consistent across every layer.  The row store itself keeps
one store per table: placement there would change no result or counter.

The hash must be stable across processes (``PYTHONHASHSEED`` randomises
``str.__hash__``), so partition routing uses CRC32 for strings and the raw
value for integers — integer partition keys are typically dense
(warehouse/customer/subscriber ids), which modulo maps to a perfectly
balanced round-robin placement.
"""

from __future__ import annotations

import struct
import zlib


def stable_hash(value) -> int:
    """Process-stable, type-aware hash for partition routing.

    Numeric values that compare equal (``5``, ``5.0``) hash equal, so a
    primary key always lands on one partition no matter how it was typed.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return zlib.crc32(struct.pack(">d", value))
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        acc = 2166136261
        for part in value:
            acc = (acc * 16777619) ^ (stable_hash(part) & 0xFFFFFFFF)
        return acc
    return zlib.crc32(repr(value).encode("utf-8"))


class PartitionMap:
    """Hash of the table's partition key -> partition id.

    One instance is shared by every storage layer of a ``Database``;
    ``partitions == 1`` degenerates to the unpartitioned layout.
    """

    def __init__(self, partitions: int = 1):
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.partitions = partitions

    def partition_of_value(self, value) -> int:
        """Partition id for one partition-key value."""
        if self.partitions == 1:
            return 0
        return stable_hash(value) % self.partitions

    def partition_of_pk(self, pk: tuple) -> int:
        """Partition id for a primary-key tuple.

        The partition key is the first primary-key column, so composite
        keys (``(w_id, d_id)``) keep their natural locality: every row of
        one warehouse lives in one partition.
        """
        return self.partition_of_value(pk[0])

    def all_partitions(self) -> range:
        return range(self.partitions)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"PartitionMap(partitions={self.partitions})"


__all__ = ["PartitionMap", "stable_hash"]
