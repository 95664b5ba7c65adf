"""The logical-execution/timing interface.

A ``WorkResult`` is what the benchmark session hands to the engine's timing
model after a transaction's logic has executed against the embedded
database: execution statistics split into the *online* part and the
*real-time query* part (hybrid transactions), the write set (for simulated
lock waits), and statement counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.result import ExecStats


@dataclass
class WorkResult:
    """Outcome of one logically-executed transaction."""

    kind: str                      # "oltp" | "olap" | "hybrid"
    name: str                      # transaction / query identifier
    stats: ExecStats = field(default_factory=ExecStats)
    realtime_stats: ExecStats | None = None
    n_statements: int = 0
    n_realtime_statements: int = 0
    write_keys: frozenset = frozenset()
    aborted: bool = False
    retries: int = 0
    # hash partitions the commit touched (() when read-only/aborted);
    # more than one participant means a two-phase distributed commit
    commit_partitions: tuple = ()

    @property
    def read_only(self) -> bool:
        return not self.write_keys

    def merge_into(self, total: ExecStats):
        """Accumulate the online and the real-time part into ``total``."""
        total.merge(self.stats)
        if self.realtime_stats is not None:
            total.merge(self.realtime_stats)

    def combined_stats(self) -> ExecStats:
        total = ExecStats()
        self.merge_into(total)
        return total
