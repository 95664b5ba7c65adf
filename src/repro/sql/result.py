"""Statement results and execution statistics.

``ExecStats`` is the bridge between logical execution and the cluster
simulator's cost model: every operator records what it physically touched
(rows scanned per store, index/PK lookups, join/sort/aggregate volumes,
writes), and the per-engine cost model converts those counts into simulated
service time.

A counter is declared once, as one ``counter(...)`` field line in the
``ExecStats`` class body.  Everything else is derived from
``dataclasses.fields(ExecStats)`` at import, in declaration order:
``ExecStats.merge`` (by merge kind), the run report (``core.runner.RunReport``
subclasses ``ExecStats``), its text sections and its CSV columns
(``REPORT_SECTIONS``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields


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
    """A batch whose rows are a function of one sealed segment's content.

    Emitted by the columnar scan for a fully-live sealed segment whose
    rows flow through unfiltered, or filtered by IS NOT NULL predicates
    only.  It carries the source ``Segment`` so sketch-eligible
    aggregates can fold its run's cached state instead of its rows;
    every other operator treats it as a plain ``Batch``.
    """

    __slots__ = ("segment",)

    def __init__(self, columns: list, length: int, segment):
        super().__init__(columns, length)
        self.segment = segment


def counter(default=0, *, merge: str = "sum", section: str | None = None,
            label: str | None = None, csv: str | None = None,
            text_format: str = ""):
    """Declare one ``ExecStats`` field: its default plus, as field metadata,
    everything the rest of the system derives from the declaration.

    ``merge`` is how two statements' values combine: ``"sum"``, ``"max"``,
    ``"or"`` (flags) or ``"table"`` (a per-table ``defaultdict`` of sums,
    whatever ``default`` says).  A counter with a ``section`` is *reported*:
    the run report prints ``label=value`` (``text_format`` applied) on that
    section's text line and ``value`` in CSV column ``csv``; ``label`` and
    ``csv`` default to the field's own name.
    """
    metadata = {"merge": merge}
    if section is not None:
        metadata.update(section=section, label=label, csv=csv,
                        text_format=text_format)
    if merge == "table":
        return field(default_factory=lambda: defaultdict(int),
                     metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExecStats:
    """Physical work done by one statement execution.

    This class body is the one place a counter is declared: ``merge``, the
    run report's text sections and the CSV columns are all derived from
    these fields (see ``counter``), in declaration order.
    """

    # rows pulled from the row store / columnar replica, per table
    rows_row_store: dict = counter(merge="table")
    # subset of rows_row_store read through key-ordered prefix scans
    # (sequential page access, unlike random point lookups)
    rows_row_prefix: dict = counter(merge="table")
    rows_columnar: dict = counter(merge="table")
    # number of full-table scans started, per table
    full_scans: dict = counter(merge="table")
    pk_lookups: int = counter()
    index_lookups: int = counter()
    index_range_scans: int = counter()
    rows_joined: int = counter()
    join_ops: int = counter()
    sort_rows: int = counter()
    agg_input_rows: int = counter()
    groups: int = counter()
    subqueries: int = counter()
    rows_returned: int = counter()
    # committed-write intents, per table
    writes: dict = counter(merge="table")
    used_columnar: bool = counter(False, merge="or")
    # vectorized-executor counters; ``vectorized`` is the per-statement
    # flag (ORed on merge), ``vectorized_statements`` the additive count
    vectorized: bool = counter(False, merge="or")
    vectorized_statements: int = counter(
        section="vectorized", label="statements", csv="vectorized_requests")
    batches_scanned: int = counter(section="vectorized", label="batches")
    segments_pruned: int = counter(section="vectorized")
    # encoding-aware execution counters: encoded segments the scan touched,
    # and how much the lazy-materialisation layer actually decoded
    segments_encoded: int = counter(section="vectorized")
    columns_decoded: int = counter()
    values_decoded: int = counter()
    # delta–main counters: ordered-compaction merge output (the benchmark
    # runner attributes the merges a request's engine tick triggered to
    # the run report) and delta-tail rows the merge-on-read scans had to
    # consider
    segments_merged: int = counter(section="delta-main")
    delta_rows_pending: int = counter(section="delta-main")
    # statement-plan LRU cache outcome for this statement: lookup result
    # and LRU entries this statement's insert displaced
    plan_cache_hits: int = counter(section="plan cache", label="hits")
    plan_cache_misses: int = counter(section="plan cache", label="misses")
    plan_cache_evictions: int = counter(section="plan cache",
                                        label="evictions")
    # partition counters: how many hash partitions each access touched and
    # how many it proved irrelevant (PK routing / partition-key pruning)
    partitions_scanned: int = counter(section="partitions", label="scanned")
    partitions_pruned: int = counter(section="partitions", label="pruned")
    # widest partition fan-out of any one columnar scan (maxed on merge —
    # it feeds the engine's parallelism model)
    scatter_partitions: int = counter(merge="max")
    # fault counters: injected faults this statement hit, faults it
    # survived (retry / degraded route), and statements
    # the circuit breaker degraded from the columnar to the row pipeline
    faults_injected: int = counter(section="faults", label="injected")
    faults_recovered: int = counter(section="faults", label="recovered")
    degraded_statements: int = counter(section="faults")
    # segment-sketch counters: whole sealed segments whose run's cached
    # aggregate state was built / served, input rows elided by cache
    # hits, and cache entries dropped by slot kills or compaction re-seals
    sketches_built: int = counter(section="sketches", label="built")
    sketches_hit: int = counter(section="sketches", label="hit")
    sketch_rows_elided: int = counter(section="sketches",
                                      label="rows_elided")
    sketch_invalidations: int = counter(section="sketches",
                                        label="invalidations")

    def merge(self, other: "ExecStats"):
        """Accumulate ``other`` into this object, each field by its declared
        merge kind; ``other`` is never mutated.  Runs once per statement, so
        zero values (most counters of most statements) are skipped."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _TABLE_COUNTERS:
            if theirs[name]:
                totals = mine[name]
                for table, n in theirs[name].items():
                    totals[table] += n
        for name in _SUM_COUNTERS:
            if theirs[name]:
                mine[name] += theirs[name]
        for name in _MAX_COUNTERS:
            if theirs[name] > mine[name]:
                mine[name] = theirs[name]
        for name in _OR_FLAGS:
            if theirs[name]:
                mine[name] = True

    @property
    def total_writes(self) -> int:
        return sum(self.writes.values())


def _names_merged_by(kind: str) -> tuple:
    return tuple(f.name for f in fields(ExecStats)
                 if f.metadata["merge"] == kind)


_TABLE_COUNTERS = _names_merged_by("table")
_SUM_COUNTERS = _names_merged_by("sum")
_MAX_COUNTERS = _names_merged_by("max")
_OR_FLAGS = _names_merged_by("or")


def _report_sections() -> dict:
    sections: dict[str, list] = {}
    for f in fields(ExecStats):
        meta = f.metadata
        if "section" in meta:
            sections.setdefault(meta["section"], []).append(
                (f.name, meta["label"] or f.name, meta["csv"] or f.name,
                 meta["text_format"]))
    return sections


# the reported counters grouped by text section, sections and counters in
# declaration order: {section: [(name, label, csv column, text format)]}
REPORT_SECTIONS = _report_sections()


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

    def __repr__(self):
        return f"Result({self.columns}, {len(self.rows)} rows)"


@dataclass
class DMLResult:
    """Result of an INSERT/UPDATE/DELETE: affected row count + stats."""

    rowcount: int
    stats: ExecStats
