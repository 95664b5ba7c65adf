"""CH-benCHmark — the stitch-schema baseline OLxPBench is compared against.

Online transactions are TPC-C's (shared with subenchmark); the 22
analytical queries run on the stitched TPC-H side.  There are no hybrid
transactions and no real-time queries — exactly the gaps Table I records
for CH-benCHmark.
"""

from __future__ import annotations

from random import Random

from repro.db import Database
from repro.workloads.base import TransactionProfile, Workload
from repro.workloads.chbench import loader, schema
from repro.workloads.chbench.hybrid import make_hybrids
from repro.workloads.chbench.queries import QUERY_TABLES, make_queries
from repro.workloads.chbench.transactions import TpccContext, make_transactions
from repro.workloads.subench.loader import warehouse_count


class CHBenchmark(Workload):
    """Stitch-schema baseline: 12 tables (9 TPC-C + SUPPLIER/NATION/REGION),
    TPC-C online transactions, 22 TPC-H-style analytical queries, no hybrid
    transactions."""

    name = "chbenchmark"
    domain = "generic"
    semantically_consistent = False

    def __init__(self, scale: float = 1.0):
        self._ctx = TpccContext(warehouses=warehouse_count(scale))

    def schema_script(self, with_foreign_keys: bool = False) -> str:
        return schema.schema_script(with_foreign_keys)

    def load(self, db: Database, rng: Random, scale: float = 1.0):
        self._ctx = TpccContext(warehouses=warehouse_count(scale))
        return loader.load(db, rng, scale)

    def oltp_transactions(self) -> list[TransactionProfile]:
        return make_transactions(self._ctx)

    def analytical_queries(self) -> list[TransactionProfile]:
        return make_queries()

    def hybrid_transactions(self) -> list[TransactionProfile]:
        return make_hybrids(self._ctx)  # [] — no hybrids (Table I)

    @staticmethod
    def query_table_footprint() -> dict:
        return dict(QUERY_TABLES)


__all__ = ["CHBenchmark"]
