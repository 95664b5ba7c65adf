"""Transactions: MVCC manager, isolation levels, first-committer-wins
validation of written and ``SELECT … FOR UPDATE`` rows."""

from repro.txn.manager import (
    IsolationLevel,
    Transaction,
    TransactionManager,
    TxnStatus,
)

__all__ = [
    "IsolationLevel",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
]
