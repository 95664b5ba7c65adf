"""subenchmark — the general benchmark (TPC-C-derived retail activity)."""

from __future__ import annotations

from random import Random

from repro.db import Database
from repro.workloads.base import TransactionProfile, Workload
from repro.workloads.subench import loader, schema
from repro.workloads.subench.hybrid import make_hybrids
from repro.workloads.subench.queries import make_queries
from repro.workloads.subench.transactions import TpccContext, make_transactions


class Subenchmark(Workload):
    """General retail benchmark: 9 tables, 92 columns, 3 indexes; 5 OLTP
    transactions (8% read-only), 9 analytical queries, 5 hybrid
    transactions (60% read-only) — Table II's subenchmark row."""

    name = "subenchmark"
    domain = "generic"

    def __init__(self, scale: float = 1.0):
        self._ctx = TpccContext(warehouses=loader.warehouse_count(scale))

    def schema_script(self, with_foreign_keys: bool = False) -> str:
        return schema.schema_script(with_foreign_keys)

    def load(self, db: Database, rng: Random, scale: float = 1.0):
        self._ctx = TpccContext(warehouses=loader.warehouse_count(scale))
        return loader.load(db, rng, scale)

    def oltp_transactions(self) -> list[TransactionProfile]:
        return make_transactions(self._ctx)

    def analytical_queries(self) -> list[TransactionProfile]:
        return make_queries(self._ctx)

    def hybrid_transactions(self) -> list[TransactionProfile]:
        return make_hybrids(self._ctx)


__all__ = ["Subenchmark"]
