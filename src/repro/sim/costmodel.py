"""Cost model: ExecStats -> simulated service demand (milliseconds).

Every statement executes *logically* against the embedded engine, producing
``ExecStats`` (rows scanned per store, lookups, join/sort/aggregate volumes,
writes).  The cost model converts those counts into CPU service demand for
the discrete-event simulator.  Each simulated engine (TiDB-like,
MemSQL-like, OceanBase-like) carries its own ``CostParams`` — that is where
hardware differences live (in-memory vs SSD, columnar scan speed, vertical
partitioning join amplification, distributed-commit overheads).

The constants are calibration knobs, grounded per engine in the comment
above ``TIDB_COSTS``; the shapes of the paper's results come from the
*mechanisms* (shared queues, buffer-pool eviction, lock holding,
replication lag), not from the absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sql.result import ExecStats


@dataclass(frozen=True)
class CostParams:
    """Per-engine cost constants, all in milliseconds unless noted."""

    # per-statement fixed overhead (parse/plan/dispatch inside the cluster)
    stmt_overhead: float = 0.08
    # per-transaction fixed overhead (begin + commit, replication, quorum)
    txn_overhead: float = 0.7
    # row-store access costs
    pk_lookup: float = 0.035
    index_lookup: float = 0.05
    row_scan_row_store: float = 0.0035
    # columnar access costs (vectorised scans are much cheaper per row)
    row_scan_columnar: float = 0.00035
    # relational operator costs
    join_per_row: float = 0.0012
    join_op: float = 0.05
    sort_per_row: float = 0.0015
    agg_per_row: float = 0.0008
    # write path
    write_per_row: float = 0.045
    # delta–main replica maintenance: ordered compaction re-sorts and
    # re-encodes rows in the background (charged to the columnar group per
    # merge), and every scan of a lagging sorted replica pays a small
    # per-row premium for its delta-tail rows — they sit in plain,
    # unencoded tail segments, so they cost more than encoded main rows
    compaction_per_row: float = 0.0008
    delta_merge_per_row: float = 0.0007
    # storage characteristics
    page_miss_penalty: float = 0.12   # random read on a miss (SSD ~ 0.1ms)
    # sequential scans benefit from readahead: far cheaper per page
    scan_page_cost: float = 0.02
    page_hit_cost: float = 0.0005
    network_hop: float = 0.25         # one cluster-internal RPC
    # vertical-partitioning amplification applied to joins/scans inside
    # hybrid transactions (MemSQL's single-engine handling of OLxP)
    hybrid_join_amplification: float = 1.0
    # fixed cost of launching an analytical job on the columnar engine
    # (TiSpark task dispatch in TiDB's case)
    columnar_stmt_overhead: float = 0.0
    # retry penalty for aborted transactions
    abort_penalty: float = 0.5
    # admission-queue dispatch: checking slots, enqueueing and waking a
    # session costs a little on every admitted request (the front-end
    # server charges it on top of the engine's service demand)
    admission_overhead: float = 0.02

    def scaled(self, factor: float) -> "CostParams":
        """A uniformly scaled copy (used for per-node-count penalties)."""
        return replace(
            self,
            stmt_overhead=self.stmt_overhead * factor,
            txn_overhead=self.txn_overhead * factor,
            network_hop=self.network_hop * factor,
        )


@dataclass
class CostBreakdown:
    """Where a request's service demand came from (for reports/ablations)."""

    cpu: float = 0.0
    io: float = 0.0
    network: float = 0.0

    @property
    def total(self) -> float:
        return self.cpu + self.io + self.network


class CostModel:
    """Maps execution statistics to service demand for one engine."""

    def __init__(self, params: CostParams):
        self.params = params

    def statement_cost(self, stats: ExecStats, hybrid_context: bool = False,
                       columnar_parallelism: int = 1,
                       columnar_scan_factor: float = 1.0) -> CostBreakdown:
        """CPU demand of one statement's relational work (no queueing/IO).

        ``columnar_parallelism`` models partition-parallel scatter-gather:
        a columnar scan fanned out over N partitions on distinct nodes
        finishes in ~1/N of the serial scan time, and so does the
        aggregate fold over its rows, so the critical-path demand for the
        columnar scan and aggregate components is divided by it.

        ``columnar_scan_factor`` scales the per-row columnar scan demand by
        the replica's *measured* compression ratio (encoded/plain bytes,
        <= 1.0): dictionary codes and typed arrays move fewer bytes per
        row, so encoded scans are proportionally cheaper — the mechanism
        the Fig. 1/5/6/10 simulations inherit from the encoding layer.
        """
        p = self.params
        amplify = p.hybrid_join_amplification if hybrid_context else 1.0
        parallel = max(1, columnar_parallelism)
        scan_factor = min(1.0, max(0.0, columnar_scan_factor))
        cpu = p.stmt_overhead
        if stats.used_columnar:
            cpu += p.columnar_stmt_overhead
        cpu += sum(stats.rows_row_store.values()) * p.row_scan_row_store * \
            (amplify if hybrid_context else 1.0)
        cpu += sum(stats.rows_columnar.values()) * p.row_scan_columnar \
            * scan_factor / parallel
        cpu += stats.pk_lookups * p.pk_lookup
        cpu += stats.index_lookups * p.index_lookup
        cpu += stats.index_range_scans * p.index_lookup
        cpu += stats.join_ops * p.join_op * amplify
        cpu += stats.rows_joined * p.join_per_row * amplify
        cpu += stats.sort_rows * p.sort_per_row
        cpu += stats.delta_rows_pending * p.delta_merge_per_row / parallel
        cpu += stats.agg_input_rows * p.agg_per_row / parallel
        cpu += stats.total_writes * p.write_per_row
        return CostBreakdown(cpu=cpu)

    def transaction_cost(self, stats: ExecStats, n_statements: int,
                         hybrid_context: bool = False,
                         columnar_parallelism: int = 1,
                         columnar_scan_factor: float = 1.0) -> CostBreakdown:
        """CPU demand of a whole transaction (statement work + txn overhead)."""
        breakdown = self.statement_cost(stats, hybrid_context,
                                        columnar_parallelism,
                                        columnar_scan_factor)
        breakdown.cpu += self.params.txn_overhead
        breakdown.cpu += max(0, n_statements - 1) * self.params.stmt_overhead
        return breakdown

    def compaction_cost(self, rows_merged: int) -> float:
        """CPU demand of one ordered-compaction merge (background work
        charged to the columnar node group, not to any statement)."""
        return rows_merged * self.params.compaction_per_row

    def io_cost(self, page_misses: int, page_hits: int,
                scan_misses: int = 0) -> float:
        """IO time: random point misses, cache hits, sequential scan misses."""
        return (page_misses * self.params.page_miss_penalty
                + page_hits * self.params.page_hit_cost
                + scan_misses * self.params.scan_page_cost)

    def network_cost(self, hops: int) -> float:
        return hops * self.params.network_hop


# -- default per-engine calibrations ----------------------------------------
#
# Grounding for the deltas (see paper §VI-D):
#  * MemSQL processes data in memory -> negligible page-miss penalty, lower
#    per-row costs; TiDB reads from SSD -> real page-miss penalty.
#  * MemSQL's vertical partitioning turns relationship queries inside hybrid
#    transactions into many joins -> large hybrid amplification.
#  * OceanBase is shared-nothing with cheaper coordination at small sizes.

TIDB_COSTS = CostParams(
    stmt_overhead=0.10,
    txn_overhead=1.4,
    pk_lookup=0.05,
    index_lookup=0.07,
    row_scan_row_store=0.0045,
    row_scan_columnar=0.00035,
    join_per_row=0.0012,
    sort_per_row=0.0015,
    agg_per_row=0.0008,
    write_per_row=0.06,
    # a TiKV page miss is an RPC to the storage layer plus an SSD random
    # read, so it is an order of magnitude above the raw device latency
    page_miss_penalty=3.0,
    scan_page_cost=0.12,
    network_hop=0.3,
    hybrid_join_amplification=1.0,
    # TiSpark launches a distributed job per analytical query
    columnar_stmt_overhead=120.0,
)

MEMSQL_COSTS = CostParams(
    stmt_overhead=0.05,
    txn_overhead=0.45,
    pk_lookup=0.018,
    index_lookup=0.028,
    row_scan_row_store=0.0016,
    row_scan_columnar=0.0005,
    join_per_row=0.0011,
    sort_per_row=0.0012,
    agg_per_row=0.0007,
    write_per_row=0.02,
    page_miss_penalty=0.002,   # in-memory: misses are effectively free
    scan_page_cost=0.002,
    network_hop=0.22,
    hybrid_join_amplification=9.0,
)

OCEANBASE_COSTS = CostParams(
    stmt_overhead=0.09,
    txn_overhead=1.1,
    pk_lookup=0.045,
    index_lookup=0.06,
    row_scan_row_store=0.004,
    row_scan_columnar=0.004,   # no columnar replica: scans stay row-major
    join_per_row=0.0012,
    sort_per_row=0.0015,
    agg_per_row=0.0008,
    write_per_row=0.055,
    page_miss_penalty=0.8,
    scan_page_cost=0.1,
    network_hop=0.28,
    hybrid_join_amplification=1.6,
)
