"""Statement results and execution statistics.

``ExecStats`` is the bridge between logical execution and the cluster
simulator's cost model: every operator records what it physically touched
(rows scanned per store, index/PK lookups, join/sort/aggregate volumes,
writes), and the per-engine cost model converts those counts into simulated
service time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


class Batch:
    """A column-major chunk of rows flowing through the vectorized executor.

    ``columns`` is one list per output column, all of ``length`` elements.
    Batches are produced segment-at-a-time by the columnar scan and
    transformed column-wise by the batch operators; ``rows()`` converts back
    to the row-tuple representation at the pipeline boundary.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: list[list], length: int | None = None):
        if length is None:
            length = len(columns[0]) if columns else 0
        self.columns = columns
        self.length = length

    def __len__(self) -> int:
        return self.length

    def row(self, i: int) -> tuple:
        return tuple(col[i] for col in self.columns)

    def rows(self):
        """Iterate the batch as row tuples."""
        if not self.columns:
            return iter(() for _ in range(self.length))
        return zip(*self.columns)

    def take(self, selection: list[int]) -> "Batch":
        """Gather the given row indices into a new batch.

        Encoded column views (and lazy gathers) provide their own
        ``gather``; plain lists fall back to an index comprehension.
        """
        return Batch(
            [col.gather(selection) if hasattr(col, "gather")
             else [col[i] for i in selection] for col in self.columns],
            len(selection))

    def __repr__(self):
        return f"Batch({len(self.columns)} cols, {self.length} rows)"


class SegmentBatch(Batch):
    """A whole-segment batch with zero surviving predicate work.

    Emitted by the columnar scan only when every live row of one sealed
    segment flows through unfiltered (no selection vector, fully-live
    bitmap).  It carries the source ``Segment`` so sketch-eligible
    aggregates can fold the segment's cached partial instead of its rows;
    every other operator treats it as a plain ``Batch``.
    """

    __slots__ = ("segment",)

    def __init__(self, columns: list, length: int, segment):
        super().__init__(columns, length)
        self.segment = segment


@dataclass
class ExecStats:
    """Physical work done by one statement execution."""

    # rows pulled from the row store / columnar replica, per table
    rows_row_store: dict = field(default_factory=lambda: defaultdict(int))
    # subset of rows_row_store read through key-ordered prefix scans
    # (sequential page access, unlike random point lookups)
    rows_row_prefix: dict = field(default_factory=lambda: defaultdict(int))
    rows_columnar: dict = field(default_factory=lambda: defaultdict(int))
    # number of full-table scans started, per table
    full_scans: dict = field(default_factory=lambda: defaultdict(int))
    pk_lookups: int = 0
    index_lookups: int = 0
    index_range_scans: int = 0
    rows_joined: int = 0
    join_ops: int = 0
    sort_rows: int = 0
    agg_input_rows: int = 0
    groups: int = 0
    subqueries: int = 0
    rows_returned: int = 0
    # committed-write intents, per table
    writes: dict = field(default_factory=lambda: defaultdict(int))
    used_columnar: bool = False
    # vectorized-executor counters; ``vectorized`` is the per-statement
    # flag (ORed on merge), ``vectorized_statements`` the additive count
    vectorized: bool = False
    vectorized_statements: int = 0
    batches_scanned: int = 0
    segments_pruned: int = 0
    # encoding-aware execution counters: encoded segments the scan touched,
    # whole RLE runs skipped by code-space predicates, and how much the
    # lazy-materialisation layer actually decoded
    segments_encoded: int = 0
    runs_skipped: int = 0
    columns_decoded: int = 0
    values_decoded: int = 0
    # delta–main counters: ORDER BYs satisfied by scan order (Sort/TopN
    # elided), delta-overlay rows the merge-on-read scans had to consider,
    # ordered-compaction merge output (the benchmark runner attributes the
    # merges a request's engine tick triggered to that request's stats),
    # and batches grouped in DICT-code space by the encoded group-by
    sort_elided: int = 0
    delta_rows_pending: int = 0
    segments_merged: int = 0
    groups_coded: int = 0
    # shared-dictionary counters: join probe rows compared as global
    # integer codes (no string materialisation) and batches grouped
    # against the table-level accumulator array
    join_code_probes: int = 0
    groups_global_coded: int = 0
    # statement-plan LRU cache outcome for this statement: lookup result,
    # LRU entries this statement's insert displaced, and how many times the
    # cache mutex was found held by another session (contention is zero in
    # the cooperative scheduler; it becomes live under a real worker pool)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    plan_cache_contention: int = 0
    # partition counters: how many hash partitions each access touched and
    # how many it proved irrelevant (PK routing / partition-key pruning)
    partitions_scanned: int = 0
    partitions_pruned: int = 0
    # scatter-gather: widest partition fan-out of any one scan (maxed on
    # merge — it feeds the engine's parallelism model), and the number of
    # per-partition partial aggregates that were merged
    scatter_partitions: int = 0
    partial_aggregates: int = 0
    # worker-pool counters: pool size the statement ran under (maxed on
    # merge; 0 = sequential baseline), wall time the ordered gather spent
    # blocked on out-of-order partition completions, and background
    # compactions the engine scheduled off the query path
    pool_workers: int = 0
    gather_wait_ms: float = 0.0
    bg_compactions: int = 0
    # fault counters: injected faults this statement hit, faults it
    # survived (retry / inline fallback / degraded route), and statements
    # the circuit breaker degraded from the columnar to the row pipeline
    faults_injected: int = 0
    faults_recovered: int = 0
    degraded_statements: int = 0
    # segment-sketch counters: cached whole-segment aggregate partials
    # built / served, input rows elided by cache hits, and cache entries
    # dropped by slot kills or compaction re-seals
    sketches_built: int = 0
    sketches_hit: int = 0
    sketch_rows_elided: int = 0
    sketch_invalidations: int = 0

    def merge(self, other: "ExecStats"):
        """Accumulate ``other`` into this object (used per transaction)."""
        for table, n in other.rows_row_store.items():
            self.rows_row_store[table] += n
        for table, n in other.rows_row_prefix.items():
            self.rows_row_prefix[table] += n
        for table, n in other.rows_columnar.items():
            self.rows_columnar[table] += n
        for table, n in other.full_scans.items():
            self.full_scans[table] += n
        for table, n in other.writes.items():
            self.writes[table] += n
        self.pk_lookups += other.pk_lookups
        self.index_lookups += other.index_lookups
        self.index_range_scans += other.index_range_scans
        self.rows_joined += other.rows_joined
        self.join_ops += other.join_ops
        self.sort_rows += other.sort_rows
        self.agg_input_rows += other.agg_input_rows
        self.groups += other.groups
        self.subqueries += other.subqueries
        self.rows_returned += other.rows_returned
        self.used_columnar = self.used_columnar or other.used_columnar
        self.vectorized = self.vectorized or other.vectorized
        self.vectorized_statements += other.vectorized_statements
        self.batches_scanned += other.batches_scanned
        self.segments_pruned += other.segments_pruned
        self.segments_encoded += other.segments_encoded
        self.runs_skipped += other.runs_skipped
        self.columns_decoded += other.columns_decoded
        self.values_decoded += other.values_decoded
        self.sort_elided += other.sort_elided
        self.delta_rows_pending += other.delta_rows_pending
        self.segments_merged += other.segments_merged
        self.groups_coded += other.groups_coded
        self.join_code_probes += other.join_code_probes
        self.groups_global_coded += other.groups_global_coded
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_cache_misses += other.plan_cache_misses
        self.plan_cache_evictions += other.plan_cache_evictions
        self.plan_cache_contention += other.plan_cache_contention
        self.partitions_scanned += other.partitions_scanned
        self.partitions_pruned += other.partitions_pruned
        self.scatter_partitions = max(self.scatter_partitions,
                                      other.scatter_partitions)
        self.partial_aggregates += other.partial_aggregates
        self.pool_workers = max(self.pool_workers, other.pool_workers)
        self.gather_wait_ms += other.gather_wait_ms
        self.bg_compactions += other.bg_compactions
        self.faults_injected += other.faults_injected
        self.faults_recovered += other.faults_recovered
        self.degraded_statements += other.degraded_statements
        self.sketches_built += other.sketches_built
        self.sketches_hit += other.sketches_hit
        self.sketch_rows_elided += other.sketch_rows_elided
        self.sketch_invalidations += other.sketch_invalidations

    @property
    def total_rows_scanned(self) -> int:
        return (sum(self.rows_row_store.values())
                + sum(self.rows_columnar.values()))

    @property
    def total_writes(self) -> int:
        return sum(self.writes.values())

    def tables_touched(self) -> set:
        touched = set(self.rows_row_store) | set(self.rows_columnar)
        touched |= set(self.writes)
        return touched


class Result:
    """Rows plus column names plus the statement's ExecStats."""

    def __init__(self, columns: list[str], rows: list[tuple], stats: ExecStats):
        self.columns = columns
        self.rows = rows
        self.stats = stats

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def scalar(self):
        """First column of the first row (None when the result is empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self):
        return f"Result({self.columns}, {len(self.rows)} rows)"


@dataclass
class DMLResult:
    """Result of an INSERT/UPDATE/DELETE: affected row count + stats."""

    rowcount: int
    stats: ExecStats
