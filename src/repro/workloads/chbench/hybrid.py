"""CH-benCHmark hybrid side: none.

Table I records CH-benCHmark as having *no* hybrid transactions and no
real-time queries: OLTP and OLAP only meet as separate client populations
hammering the same database.  ``make_hybrids`` therefore returns the empty
list, keeping the module shape of the other workloads.  The live
mixed-tenant driver — N transactional clients running the TPC-C mix next
to M analytical clients cycling the 22 queries — is
``repro.server.mixed_population``.
"""

from __future__ import annotations

from repro.workloads.base import TransactionProfile
from repro.workloads.subench.transactions import TpccContext


def make_hybrids(ctx: TpccContext) -> list[TransactionProfile]:
    """CH-benCHmark defines no hybrid transactions (Table I)."""
    return []


__all__ = ["make_hybrids"]
