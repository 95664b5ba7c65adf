"""Base class for simulated HTAP clusters.

An engine owns:

* one embedded ``Database`` (the logical state shared by every node — a
  deliberate simplification: replication correctness is not under test,
  replication *timing* is modelled by ``ReplicationState``);
* node groups (FIFO multi-core queues) and the routing policy that picks
  which group serves each request class;
* a cost model translating execution statistics into service demand;
* a buffer pool on the row-store group and a lock table for simulated
  row-lock waits.

``account(arrival_ms, work)`` is the single timing entry point: it advances
replication, routes, queues, applies lock waits and buffer-pool IO, and
returns a ``LatencyBreakdown``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db import Database
from repro.sim.cluster import (
    BufferPoolModel,
    LatencyBreakdown,
    LockTable,
    NodeGroup,
    ReplicationState,
)
from repro.sim.costmodel import CostModel, CostParams
from repro.sim.work import WorkResult
from repro.storage.bufferpool import BufferPool
from repro.txn.manager import IsolationLevel

# routing probe: a bare transactional WorkResult, used to ask subclasses
# which node group serves OLTP without running anything
_OLTP_PROBE = WorkResult(kind="oltp", name="__probe__")


@dataclass
class EngineInfo:
    """Descriptive metadata surfaced in reports."""

    name: str
    nodes: int
    cores_per_node: int
    isolation: IsolationLevel
    supports_foreign_keys: bool
    has_columnar_store: bool


class HTAPCluster:
    """Common machinery for the simulated engines."""

    name = "abstract"
    supports_foreign_keys = True
    has_columnar_store = False
    default_isolation = IsolationLevel.SNAPSHOT

    def __init__(self, nodes: int = 4, cores_per_node: int = 8,
                 cost_params: CostParams | None = None,
                 buffer_pool_pages: int = 512,
                 rows_per_page: int = 64,
                 replication_apply_rate: float | None = None,
                 partitions: int | None = None):
        if nodes < 2:
            raise ValueError("a distributed cluster needs at least 2 nodes")
        self.nodes = nodes
        self.cores_per_node = cores_per_node
        # one hash partition per node by default: growing the cluster
        # redistributes data (TiDB regions / OceanBase tablets), it does
        # not just add compute
        self.partitions = partitions if partitions is not None else nodes
        # the embedded database compacts inline, inside replicate():
        # simulated time, not a thread pool, models the cluster's parallelism
        self.db = Database(
            supports_foreign_keys=self.supports_foreign_keys,
            with_columnar=self.has_columnar_store,
            default_isolation=self.default_isolation,
            partitions=self.partitions,
        )
        self.cost = CostModel(self._scaled_params(cost_params
                                                  or self.default_costs()))
        self.groups: dict[str, NodeGroup] = self._build_groups()
        self.locks = LockTable()
        self.buffer = BufferPoolModel(BufferPool(buffer_pool_pages,
                                                 rows_per_page))
        self.replication = (
            ReplicationState(replication_apply_rate)
            if replication_apply_rate is not None else None
        )
        self.now_ms = 0.0
        # while a pool-flooding scan is in flight the shared row store's
        # cache churns: point reads arriving before this time all miss;
        # after the scan completes the working set takes a while to
        # re-stabilise (cache refill churn)
        self._flood_until = 0.0
        self.flood_recovery_ms = 800.0

    # -- subclass hooks -------------------------------------------------------

    def default_costs(self) -> CostParams:  # pragma: no cover - abstract
        raise NotImplementedError

    def _build_groups(self) -> dict[str, NodeGroup]:  # pragma: no cover
        raise NotImplementedError

    def _target_group(self, work: WorkResult, columnar: bool) -> NodeGroup:
        raise NotImplementedError  # pragma: no cover

    def _scaled_params(self, params: CostParams) -> CostParams:
        """Apply the cluster-size coordination penalty (Fig. 10 mechanism)."""
        return params.scaled(self.scaling_factor())

    def scaling_factor(self) -> float:
        """Coordination overhead multiplier as the cluster grows past 4 nodes.

        Subclasses override the coefficient: the paper finds TiDB's OLTP
        latency more than doubles from 4 to 16 nodes while OceanBase pays
        about 20%.
        """
        import math

        if self.nodes <= 4:
            return 1.0
        return 1.0 + self._scaling_coefficient() * math.log2(self.nodes / 4)

    def _scaling_coefficient(self) -> float:
        return 0.25

    # -- routing ---------------------------------------------------------------

    def route_analytical(self, arrival_ms: float) -> bool:
        """Should an analytical query arriving now use the columnar replica?

        Default: engines without a columnar store never route there.
        """
        return False

    # -- info ---------------------------------------------------------------------

    def info(self) -> EngineInfo:
        return EngineInfo(
            name=self.name,
            nodes=self.nodes,
            cores_per_node=self.cores_per_node,
            isolation=self.default_isolation,
            supports_foreign_keys=self.supports_foreign_keys,
            has_columnar_store=self.has_columnar_store,
        )

    # -- partition placement ----------------------------------------------------

    def oltp_nodes(self) -> int:
        """Nodes of the group that serves transactional requests."""
        group = self._target_group(_OLTP_PROBE, columnar=False)
        return group.nodes

    def partition_node(self, pid: int) -> int:
        """Node (within the transactional group) hosting a partition.

        Partitions map round-robin across the group's nodes, so a
        multi-partition commit touching partitions on distinct nodes pays
        distributed-commit coordination.
        """
        return pid % self.oltp_nodes()

    def commit_participant_nodes(self, work: WorkResult) -> int:
        """Distinct transactional nodes involved in the commit."""
        if not work.commit_partitions:
            return 0
        return len({self.partition_node(pid)
                    for pid in work.commit_partitions})

    # -- timing ---------------------------------------------------------------------

    def tick(self, now_ms: float):
        """Advance simulated background work (replication) to ``now_ms``."""
        self.now_ms = max(self.now_ms, now_ms)
        if self.replication is not None:
            self.replication.advance(self.now_ms, self.db.storage.wal_head)
        # keep the logical replica fresh so analytical results are correct;
        # *timing* freshness is governed by ReplicationState
        if self.db.columnar is not None:
            self.db.replicate()
            # ordered compaction is background work on the columnar nodes:
            # each drained merge occupies that group's queue, so heavy
            # write streams delay concurrent analytical queries a little —
            # the delta-tree maintenance cost TiFlash pays
            _segments, rows = self.db.columnar.drain_compaction_stats()
            if rows:
                group = self.groups.get("columnar")
                if group is not None:
                    group.admit(self.now_ms,
                                self.cost.compaction_cost(rows))

    def account(self, arrival_ms: float, work: WorkResult,
                columnar: bool = False) -> LatencyBreakdown:
        """Assign simulated latency to one executed transaction."""
        self.tick(arrival_ms)
        breakdown = LatencyBreakdown()

        demand = self.cost.transaction_cost(
            work.stats, work.n_statements, hybrid_context=False,
            columnar_parallelism=self._columnar_parallelism(work, columnar),
            columnar_scan_factor=self._columnar_scan_factor(columnar),
        ).cpu
        if work.realtime_stats is not None:
            demand += self.cost.transaction_cost(
                work.realtime_stats, work.n_realtime_statements,
                hybrid_context=True,
            ).cpu

        io_ms, flooded = self._buffer_pool_io(work, columnar)
        hops = self._network_hops(work, columnar)
        network = self.cost.network_cost(hops)

        group = self._target_group(work, columnar)
        start_estimate = group.earliest_start(arrival_ms)
        lock_wait = 0.0
        if work.write_keys:
            lock_wait = self.locks.wait_and_hold(
                work.write_keys, start_estimate, demand + io_ms
            )
        if work.retries:
            demand += work.retries * self.cost.params.abort_penalty
        start, completion = group.admit(
            arrival_ms, demand + io_ms, extra_hold=lock_wait
        )
        if flooded:
            # the scan churns the shared cache for its whole duration plus
            # a recovery window while the working set reloads
            self._flood_until = max(self._flood_until,
                                    completion + self.flood_recovery_ms)

        breakdown.queue_wait = start - arrival_ms
        breakdown.lock_wait = lock_wait
        breakdown.service = demand
        breakdown.io = io_ms
        breakdown.network = network
        return breakdown

    def _buffer_pool_io(self, work: WorkResult,
                        columnar: bool) -> tuple[float, bool]:
        """Charge the shared row-store buffer pool; columnar scans bypass it.

        Returns ``(io_ms, flooded)``.  While an earlier pool-flooding scan is
        still running (``_flood_until``), point reads that would have hit the
        cache miss instead — the sustained-churn effect behind the paper's
        OLTP/OLAP interference measurements.
        """
        point_misses = 0
        scan_misses = 0
        hits = 0
        flooded = False
        stats = work.combined_stats()
        pool = self.buffer.pool
        for table, rows in stats.rows_row_store.items():
            if stats.full_scans.get(table):
                miss, hit, this_flooded = self.buffer.charge_scan(table, rows)
                flooded = flooded or this_flooded
                scan_misses += miss
            else:
                # prefix-scanned rows read sequential pages; the rest are
                # random point probes, one page per row
                prefix_rows = stats.rows_row_prefix.get(table, 0)
                probes = (rows - prefix_rows
                          + pool.rows_to_pages(prefix_rows))
                stores = self.db.storage.stores()
                store = stores.get(table.upper())
                spread = store.row_count if store is not None else rows
                miss, hit = self.buffer.charge_point(table, probes, spread)
                if self.now_ms < self._flood_until:
                    # cache churn turns would-be hits into misses, but a
                    # single request's extra misses are bounded by what its
                    # batched reads actually fetch
                    forced = min(hit, max(0, 64 - miss))
                    miss, hit = miss + forced, hit - forced
                point_misses += miss
            hits += hit
        io = self.cost.io_cost(point_misses, hits, scan_misses)
        return io, flooded

    def _columnar_scan_factor(self, columnar: bool) -> float:
        """Measured encoded/plain compression ratio of the columnar replica.

        Columnar-routed requests scan encoded segments (dictionary codes,
        run-length runs, typed arrays), so their per-row scan demand drops
        by the measured byte ratio; row-store-routed requests are unchanged.
        """
        if not columnar or self.db.columnar is None:
            return 1.0
        return self.db.columnar.scan_cost_factor()

    def _columnar_parallelism(self, work: WorkResult, columnar: bool) -> int:
        """Effective scatter-gather fan-out of a columnar-routed request.

        Bounded by the nodes of the serving group: partitions co-hosted on
        one node share its cores, they do not add parallel capacity.
        """
        scatter = work.stats.scatter_partitions
        if not columnar or scatter <= 1:
            return 1
        return min(scatter, self._target_group(work, columnar).nodes)

    def _network_hops(self, work: WorkResult, columnar: bool) -> int:
        # client -> SQL layer -> storage and back: 2 logical hops, plus one
        # per extra statement round trip, plus one per extra node a
        # multi-partition (two-phase) commit has to coordinate
        participant_nodes = self.commit_participant_nodes(work)
        return (2 + max(0, work.n_statements + work.n_realtime_statements - 1)
                + max(0, participant_nodes - 1))

    # -- lifecycle --------------------------------------------------------------------

    def reset_sim(self):
        """Reset timing state (queues, locks, buffer pool, replication) while
        keeping the loaded data, so successive measurement runs start cold-
        queue but warm-data."""
        for group in self.groups.values():
            group.reset()
        self.locks.reset()
        # fresh buffer pool: runs must not inherit each other's residency
        # (the configured warmup period repopulates the working set)
        self.buffer = BufferPoolModel(
            BufferPool(self.buffer.pool.capacity,
                       self.buffer.pool.rows_per_page))
        self._flood_until = 0.0
        if self.db.columnar is not None:
            # merges done while loading belong to no measurement run
            self.db.columnar.drain_compaction_stats()
        if self.replication is not None:
            self.replication.reset()
            # replication restarts in sync with the current WAL head
            self.replication.applied = float(self.db.storage.wal_head)
            self.replication._last_advance = 0.0
        self.now_ms = 0.0

    def utilisation(self, horizon_ms: float) -> dict[str, float]:
        return {
            name: group.utilisation(horizon_ms)
            for name, group in self.groups.items()
        }
