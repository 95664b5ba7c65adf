"""Outside-in layer trace: spans around the public callables of each layer.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces bound methods
on the *instances* one benchmark run owns (engine, database, replica,
executor, row storage, workload) with wrappers that record a span; the
connection is a ``Connection`` subclass returned by ``db.connect``.  The
client is one synchronous thread, so spans nest strictly: a span's parent is
the span open when it started, and a layer's **self time** is its span minus
the part its direct children cover.  Self times therefore partition the run
exactly — their sum over the measured phase *is* the measured wall.

A span is ``[name, start_ns, end_ns, parent_index, request, extra]``:
``request`` is the number of requests completed when the span started (the
ordinal of the request it belongs to), ``extra`` a tuple of counts taken at
the same boundary (rows examined, returned and decoded; records applied;
segments and rows rewritten) or ``None``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

from olxp_metrics import metric

from repro.db.database import Connection
from repro.sql.parser import parse_sql

NAME, START, END, PARENT, REQUEST, EXTRA = range(6)

# executor span names, by what the statement turned out to be
VEC_SELECT = "sql.vec_select"
ROW_SCAN_SELECT = "sql.row_scan_select"
ROW_POINT_SELECT = "sql.row_point_select"
DML = "sql.dml"
EXECUTOR_SPANS = (VEC_SELECT, ROW_SCAN_SELECT, ROW_POINT_SELECT, DML)


def _select_span(result):
    """Class a SELECT by the stats it returned; count rows in and out."""
    stats = result.stats
    if stats.vectorized:
        name = VEC_SELECT
    elif stats.full_scans:
        name = ROW_SCAN_SELECT
    else:
        name = ROW_POINT_SELECT
    examined = (sum(stats.rows_row_store.values())
                + sum(stats.rows_columnar.values()))
    return name, (examined, stats.rows_returned, int(stats.used_columnar),
                  stats.values_decoded)


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.statements: set[str] = set()
        self._open: list[int] = []
        # the engine's stamp list: its length is the request ordinal
        self._stamps: list = []

    def wrap(self, name: str, fn, note=None):
        """Wrap ``fn`` in a span; ``note(result)`` may return
        ``(span name, extra)`` to class the span by its outcome."""
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, perf_counter_ns(), 0,
                    open_spans[-1] if open_spans else -1,
                    len(self._stamps), None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[NAME], span[EXTRA] = note(result)
                return result
            finally:
                span[END] = perf_counter_ns()
                open_spans.pop()
        return traced

    def install(self, engine, workload):
        """Wrap one run's instances; call before ``OLxPBench(...)``."""
        self._stamps = engine.stamps
        db = engine.db
        workload.install = self.wrap("workloads.install", workload.install)
        engine.route_analytical = self.wrap("engines.route",
                                            engine.route_analytical)
        engine.tick = self.wrap("engines.tick", engine.tick)
        engine.account = self.wrap("engines.account", engine.account)
        db.replicate = self.wrap("db.replicate", db.replicate)
        replica = db.columnar
        replica.apply_from_partitions = self.wrap(
            "storage.replica_apply", replica.apply_from_partitions,
            lambda applied: ("storage.replica_apply", (applied,)))
        replica.compact = self.wrap("storage.compact", replica.compact)
        replica.drain_compaction_stats = self.wrap(
            "storage.drain_compaction_stats", replica.drain_compaction_stats,
            lambda drained: ("storage.drain_compaction_stats", drained))
        executor = db.executor
        executor.execute_select = self.wrap(VEC_SELECT,
                                            executor.execute_select,
                                            _select_span)
        for method in ("execute_insert", "execute_update", "execute_delete"):
            setattr(executor, method,
                    self.wrap(DML, getattr(executor, method)))
        db.storage.apply_commit = self.wrap(
            "storage.apply_commit", db.storage.apply_commit,
            lambda records: ("storage.apply_commit", (len(records),)))
        tracer = self

        class TracedConnection(Connection):
            begin = tracer.wrap("txn.begin", Connection.begin)
            commit = tracer.wrap("txn.commit", Connection.commit)
            rollback = tracer.wrap("txn.rollback", Connection.rollback)
            _execute = tracer.wrap("db.execute", Connection.execute)

            def execute(self, sql, params=(), route_columnar=False):
                tracer.statements.add(sql)
                return self._execute(sql, params, route_columnar)

        db.connect = lambda isolation=None: TracedConnection(
            db, isolation or db.default_isolation)

    def trace_run(self, bench):
        """Span around ``OLxPBench.run`` (the bench exists only after
        ``install`` has wrapped what its constructor calls)."""
        bench.run = self.wrap("core.run", bench.run)


@dataclass
class Layer:
    """One span name's totals over the measured phase."""

    self_ns: int = 0
    total_ns: int = 0
    count: int = 0
    max_ns: int = 0
    extra: list = field(default_factory=lambda: [0, 0, 0, 0])


def layer_times(spans, measured_start_ns: int,
                measured_end_ns: int) -> dict[str, Layer]:
    """Self time, inclusive time, calls and boundary counts per span name.

    ``core.run`` also covers the warm-up and the report's finalisation, so
    it is clipped to the measured phase (last warm-up stamp to last stamp);
    every other span lies wholly on one side of those boundaries, except
    the two stamps' own ``engines.account`` spans, whose last microsecond
    falls to ``core.run``.
    """
    layers: dict[str, Layer] = defaultdict(Layer)
    for span in spans:
        name = span[NAME]
        if name == "core.run":
            duration = measured_end_ns - measured_start_ns
        elif measured_start_ns <= span[START] < measured_end_ns:
            duration = span[END] - span[START]
        else:
            continue
        layer = layers[name]
        layer.self_ns += duration
        layer.total_ns += duration
        layer.count += 1
        layer.max_ns = max(layer.max_ns, duration)
        for i, n in enumerate(span[EXTRA] or ()):
            layer.extra[i] += n
        if span[PARENT] >= 0:
            layers[spans[span[PARENT]][NAME]].self_ns -= duration
    return layers


def cold_statement_costs(db, statements) -> tuple[float, float]:
    """Median cold ``parse_sql`` and ``Planner.plan`` time (us) over the
    statement texts a run issued — what a plan-cache miss pays."""
    parse_us, plan_us = [], []
    for sql in sorted(statements):
        t0 = perf_counter_ns()
        statement = parse_sql(sql)
        t1 = perf_counter_ns()
        db.planner.plan(statement)
        t2 = perf_counter_ns()
        parse_us.append((t1 - t0) / 1e3)
        plan_us.append((t2 - t1) / 1e3)
    return statistics.median(parse_us), statistics.median(plan_us)


def per_layer_metrics(tracer: Tracer, run, ops_per_s: float) -> dict:
    """Per-layer metrics of one traced ``Pass`` (``olxp_workloads.Pass``)
    whose requests completed at ``ops_per_s``.

    Times come from self times over the measured phase; ``RunReport``
    counters cover the whole run, warm-up included (they are the figure
    run's own totals).  Declared names (``olxp_metrics.PER_LAYER``) are
    always present — a bypassed path reads 0 — and the per-path costs
    (``*_per_stmt`` and the like) only where the path ran.
    """
    spans = tracer.spans
    layers = layer_times(spans, run.measured_start_ns, run.measured_end_ns)
    wall_ns = run.measured_end_ns - run.measured_start_ns
    ops = len(run.requests)
    report = run.report
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def put_cost(name, layer, unit, per=None):
        """A per-call cost, present only where the path ran."""
        calls = layer.count if per is None else per
        if calls:
            put(name, layer.total_ns / calls / (1e6 if unit == "ms" else 1e3),
                unit)

    install = next(s for s in spans if s[NAME] == "workloads.install")
    put("workloads.install_s", (install[END] - install[START]) / 1e9, "s")
    put("workloads.rows_loaded", run.rows_loaded, "count")
    put("core.run_self_us_per_op", layers["core.run"].self_ns / 1e3 / ops,
        "us")
    put("core.retries_per_op", sum(r.retries for r in run.requests) / ops,
        "count")

    put("engines.tick_us_per_op", layers["engines.tick"].self_ns / 1e3 / ops,
        "us")
    put("engines.account_us_per_op",
        layers["engines.account"].self_ns / 1e3 / ops, "us")
    route = layers["engines.route"]
    if route.count:
        put("engines.route_us_per_olap", route.self_ns / 1e3 / route.count,
            "us")
    put("engines.columnar_routed_ratio",
        ratio(report.columnar_routed,
              report.columnar_routed + report.columnar_refused), "ratio")

    # simulated latencies repeat exactly for a seed: the figure output, in
    # its own unit so nobody reads it as wall-clock
    sim = {kind: report.latency(kind) for kind in report.classes}
    put("sim.mean_ms",
        ratio(sum(s.mean * s.count for s in sim.values()),
              sum(s.count for s in sim.values())), "sim_ms")
    for kind, summary in sorted(sim.items()):
        put(f"sim.{kind}_mean_ms", summary.mean, "sim_ms")

    execute = layers["db.execute"]
    put("db.execute_self_us_per_stmt",
        ratio(execute.self_ns / 1e3, execute.count), "us")
    put("db.statements_per_op", execute.count / ops, "count")
    put("db.plan_cache_hit_ratio",
        ratio(report.plan_cache_hits,
              report.plan_cache_hits + report.plan_cache_misses), "ratio")
    replicate = layers["db.replicate"]
    put("db.replicate_us_per_op", replicate.total_ns / 1e3 / ops, "us")
    put("db.replicate_share", replicate.total_ns / wall_ns, "ratio")

    parse_us, plan_us = cold_statement_costs(run.db, tracer.statements)
    put("sql.parse_us_per_stmt", parse_us, "us")
    put("sql.plan_us_per_stmt", plan_us, "us")
    put("sql.distinct_statements", len(tracer.statements), "count")
    put("sql.exec_share",
        sum(layers[name].total_ns for name in EXECUTOR_SPANS) / wall_ns,
        "ratio")
    for span_name, unit in ((ROW_POINT_SELECT, "us"), (ROW_SCAN_SELECT, "ms"),
                            (VEC_SELECT, "ms"), (DML, "us")):
        layer = layers[span_name]
        put(f"{span_name}_share", layer.total_ns / wall_ns, "ratio")
        put_cost(f"{span_name}_{unit}_per_stmt", layer, unit)
    examined = returned = on_replica = 0
    for span_name in EXECUTOR_SPANS[:3]:
        rows_in, rows_out, used_replica, _decoded = layers[span_name].extra
        examined += rows_in
        returned += rows_out
        on_replica += used_replica
    put("sql.vectorized_ratio", ratio(layers[VEC_SELECT].count, on_replica),
        "ratio")
    put("sql.rows_examined_per_row_returned", ratio(examined, returned),
        "ratio")

    begin, commit = layers["txn.begin"], layers["txn.commit"]
    put("txn.begin_us_per_txn", ratio(begin.total_ns / 1e3, begin.count),
        "us")
    put("txn.commit_self_us_per_txn",
        ratio(commit.self_ns / 1e3, commit.count), "us")
    put("txn.abort_ratio", ratio(layers["txn.rollback"].count, begin.count),
        "ratio")
    put("txn.multi_partition_commit_ratio",
        report.multi_partition_commit_fraction, "ratio")

    apply_commit = layers["storage.apply_commit"]
    put("storage.apply_commit_share", apply_commit.total_ns / wall_ns,
        "ratio")
    put_cost("storage.apply_commit_us_per_txn", apply_commit, "us")
    put("storage.wal_records_per_txn",
        ratio(apply_commit.extra[0], commit.count), "count")
    replica_apply = layers["storage.replica_apply"]
    applied = replica_apply.extra[0]
    put("storage.replica_apply_share", replica_apply.total_ns / wall_ns,
        "ratio")
    put_cost("storage.replica_apply_us_per_record", replica_apply, "us",
             per=applied)
    compact = layers["storage.compact"]
    put("storage.compact_runs", compact.count, "count")
    put("storage.compact_share", compact.total_ns / wall_ns, "ratio")
    put_cost("storage.compact_ms_per_run", compact, "ms")
    if compact.count:
        put("storage.compact_max_ms", compact.max_ns / 1e6, "ms")
    put("storage.segments_merged", report.segments_merged, "count")
    put("storage.rows_rewritten_per_row_applied",
        ratio(layers["storage.drain_compaction_stats"].extra[1], applied),
        "ratio")

    scans = report.vectorized_statements
    put("storage.delta_rows_per_scan",
        ratio(report.delta_rows_pending, scans), "count")
    put("storage.segments_pruned_per_scan",
        ratio(report.segments_pruned, scans), "count")
    put("storage.values_decoded_per_row_scanned",
        ratio(layers[VEC_SELECT].extra[3], layers[VEC_SELECT].extra[0]),
        "ratio")
    encoding = report.encoding
    put("storage.encoded_segment_ratio",
        ratio(encoding["segments_encoded"], encoding["segments_total"]),
        "ratio")
    put("storage.sketch_hit_ratio",
        ratio(report.sketches_hit,
              report.sketches_hit + report.sketches_built), "ratio")
    put("storage.sketch_invalidations", report.sketch_invalidations, "count")
    put("storage.compression_ratio", encoding["compression_ratio"], "ratio")
    put("storage.replica_bytes_per_row",
        ratio(encoding["bytes_encoded"], run.db.storage.total_rows()), "B")

    put("trace.spans", len(spans), "count")
    put("trace.traced_ops_per_s", ops_per_s, "1/s")
    return out
