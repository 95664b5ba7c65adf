"""Fig. 5 — analytical queries vs real-time queries (Test Case 2).

Paper: subenchmark at 30 online transactions/s is the baseline
(latency std 2.21).  Injecting analytical queries at 1/s raises the
baseline latency ~3x (std -> 9.16).  Sending hybrid transactions
(real-time query in-between the online transaction) at 30/s raises it
>9x (std -> 38.91): the real-time query runs inside the transaction on
the row engine, holding locks, so its interference is much stronger.

The companion benchmark below measures the *embedded engine's* columnar
executor against its own correctness oracle on the same routed-columnar
queries, wall-clock timed: the row plan nodes over the replica
(``Executor.use_vectorized = False``) against the vectorized engine over
the same delta–main replica (value-space pushed predicates on encoded
segments, late materialization, zone-map pruning, groupjoin, ranked
top-k), plus a sketch arm — the same
statement with the segment-sketch cache cleared before every run against
the warm cache, timed right after it.  The comparison lands in the JSON
report (``extra_info``) and in the canonical ``BENCH_fig05.json`` at the
repo root — the recorded perf trajectory CI guards.
"""

import statistics
import time
import zlib
from random import Random

from conftest import fresh_bench, run_once
from record import classify, record_bench

from repro.db import Database
from repro.workloads import make_workload

NEW_ORDER_ONLY = {"NewOrder": 1.0, "Payment": 0.0, "OrderStatus": 0.0,
                  "Delivery": 0.0, "StockLevel": 0.0}
X1_ONLY = {"X1": 1.0, "X2": 0.0, "X3": 0.0, "X4": 0.0, "X5": 0.0}


def run_fig5():
    bench = fresh_bench("tidb", "subenchmark")
    base = run_once(bench, workload="subenchmark", oltp_rate=30,
                    duration_ms=10_000, warmup_ms=2000,
                    oltp_weights=NEW_ORDER_ONLY)
    bench_a = fresh_bench("tidb", "subenchmark")
    analytic = run_once(bench_a, workload="subenchmark", oltp_rate=30,
                        olap_rate=1, duration_ms=10_000, warmup_ms=2000,
                        oltp_weights=NEW_ORDER_ONLY)
    bench_h = fresh_bench("tidb", "subenchmark")
    hybrid = run_once(bench_h, workload="subenchmark", mode="hybrid",
                      hybrid_rate=30, oltp_rate=0,
                      duration_ms=10_000, warmup_ms=2000,
                      hybrid_weights=X1_ONLY)
    return base, analytic, hybrid


def test_fig5_realtime_vs_analytical(benchmark, series):
    base, analytic, hybrid = benchmark.pedantic(run_fig5, rounds=1,
                                                iterations=1)
    b = base.latency("oltp")
    a = analytic.latency("oltp")
    h = hybrid.latency("hybrid")

    series.add("baseline avg (ms) / std", "- / 2.21",
               f"{b.mean:.1f} / {b.std:.2f}")
    series.add("analytical-injected factor", 3.0, a.mean / b.mean)
    series.add("analytical-injected std", 9.16, a.std)
    series.add("hybrid factor", ">9", h.mean / b.mean)
    series.add("hybrid std", 38.91, h.std)
    series.emit(benchmark)

    # shape: both interfere; the real-time query interferes more and blows
    # up variance beyond the analytical case relative to baseline
    assert a.mean / b.mean > 1.5
    assert h.mean / b.mean > 3.0
    assert h.mean > a.mean
    assert a.std > b.std
    assert h.std > b.std


# -- row oracle vs the columnar engine ---------------------------------------

ANALYTICAL_SQL = [
    ("Q1_orders_report",
     "SELECT ol_number, SUM(ol_quantity) AS total_qty, "
     "SUM(ol_amount) AS total_amount, AVG(ol_quantity) AS avg_qty, "
     "AVG(ol_amount) AS avg_amount, COUNT(*) AS line_count "
     "FROM order_line WHERE ol_delivery_d IS NOT NULL "
     "GROUP BY ol_number ORDER BY ol_number"),
    ("Q2_payment_history",
     "SELECT h_w_id, h_d_id, COUNT(*) AS payments, SUM(h_amount) AS volume, "
     "AVG(h_amount) AS avg_payment FROM history GROUP BY h_w_id, h_d_id "
     "ORDER BY volume DESC"),
    # a groupjoin: the probe side (order_line) folds by its join key into
    # 13 k groups — through the sketch cache, run cold here — and item is
    # probed once per group; ranked by its own SUM under a LIMIT, only
    # the groups that can reach the top 10 are converted and emitted
    ("Q5_top_items",
     "SELECT ol.ol_i_id, i.i_name, SUM(ol.ol_amount) AS revenue, "
     "SUM(ol.ol_quantity) AS units "
     "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
     "GROUP BY ol.ol_i_id, i.i_name ORDER BY revenue DESC LIMIT 10"),
    ("Q6_stock_pressure",
     "SELECT COUNT(*) AS low_items, AVG(s.s_quantity) AS avg_qty, "
     "SUM(s.s_ytd) AS committed "
     "FROM stock s JOIN item i ON i.i_id = s.s_i_id "
     "WHERE s.s_quantity < 20"),
    # the selective report: one district's order lines — zone maps prune
    # the segments belonging to every other district
    ("selective_district",
     "SELECT COUNT(*) AS lines, SUM(ol_amount) AS amount, "
     "AVG(ol_quantity) AS qty FROM order_line WHERE ol_d_id = 3"),
    # a TopN over the full projected scan: a heap of 100 rows, no full sort
    ("ordered_topn",
     "SELECT ol_w_id, ol_d_id, ol_o_id, ol_number, ol_amount "
     "FROM order_line ORDER BY ol_w_id, ol_d_id LIMIT 100"),
    # a string GROUP BY key sealed into a table dictionary; sketch-eligible
    ("grouped_report",
     "SELECT c_credit, COUNT(*) AS customers, SUM(c_balance) AS balance, "
     "AVG(c_balance) AS avg_balance FROM customer "
     "GROUP BY c_credit ORDER BY c_credit"),
    # a string-key join: customer's dictionary-sealed c_city probes
    # warehouse's w_city by value
    ("string_key_join",
     "SELECT COUNT(*) AS pairs, SUM(c_balance) AS balance "
     "FROM customer JOIN warehouse ON c_city = w_city"),
]
# a range on a primary-key column: the main is sorted on the primary key,
# so zone maps prune it to the segments that hold the range
SORTED_RANGE_SQL = (
    "SELECT COUNT(*) AS lines, SUM(ol_amount) AS amount "
    "FROM order_line WHERE ol_d_id BETWEEN 2 AND 3")
# the sketch arm: cold folds each run of sealed segments once and caches
# its exact state, warm copies (or merges) the cached state instead of
# folding the rows.  Warm runs are timed right after their source rung's
# cold runs, so drift of the host between rungs hits both alike.  Q1
# filters on IS NOT NULL, so it exercises the filtered-segment sketch path
# (NULL delivery dates are scattered over every segment).  Q5's state barely compresses (13 k groups over 30 k
# rows): warm, its groupjoin copies the one cached state of the sealed
# order_line run
SKETCH_ARM = (("full_scan_sketch_grouped", "grouped_report"),
              ("full_scan_sketch_q1", "Q1_orders_report"),
              ("full_scan_sketch_q5", "Q5_top_items"))

RUNS = 7        # timed runs per arm, after one discarded warm-up


def _checksum(rows) -> int:
    """Deterministic result digest for semantic validation (row count +
    checksum, as in the TPC-DS two-phase protocol)."""
    return zlib.crc32(repr(rows).encode())


def _timed(db: Database, sql: str, vectorized: bool = True,
           cold: bool = False):
    """Wall-clock latency of one routed-columnar statement: one warm-up,
    then ``RUNS`` timed runs; ``({median, min, max} in ms, last result)``.

    ``vectorized=False`` answers with the row plan nodes over the same
    replica (the oracle); ``cold`` clears the segment-sketch cache before
    every run, so the statement pays its scan and fold each time.
    """
    samples = []
    db.executor.use_vectorized = vectorized
    try:
        for run in range(RUNS + 1):
            if cold:
                db.columnar.sketches.clear()
            start = time.perf_counter()
            with db.connect() as conn:
                result = conn.execute(sql, (), route_columnar=True)
                conn.commit()
            if run:
                samples.append((time.perf_counter() - start) * 1000.0)
    finally:
        db.executor.use_vectorized = True
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples)}, result


def _loaded_db() -> Database:
    db = Database(with_columnar=True)
    make_workload("subenchmark").install(db, Random(2), 1.0,
                                         with_foreign_keys=False)
    db.replicate()
    # steady state: merge every delta tail, partial segments included, so
    # small tables (customer) are sealed too
    db.columnar.compact(force=True)
    return db


def _compare(db: Database, name: str, sql: str) -> dict:
    """One record entry: the row oracle vs the engine (sketch cache
    cleared before every run), validated by row count + checksum."""
    row_ms, row = _timed(db, sql, vectorized=False)
    col_ms, col = _timed(db, sql, cold=True)
    assert col.stats.vectorized and not row.stats.vectorized
    assert col.rows == row.rows, name
    speedup = row_ms["median"] / col_ms["median"]
    stats = col.stats
    return {
        "query": name,
        "row_ms": row_ms["median"],
        "row_ms_min": row_ms["min"],
        "row_ms_max": row_ms["max"],
        "columnar_ms": col_ms["median"],
        "columnar_ms_min": col_ms["min"],
        "columnar_ms_max": col_ms["max"],
        "speedup_columnar_vs_row": speedup,
        "verdict": classify(speedup),
        "rows": len(col.rows),
        "checksum": _checksum(col.rows),
        "checksum_row": _checksum(row.rows),
        "batches_scanned": stats.batches_scanned,
        "segments_pruned": stats.segments_pruned,
        "segments_encoded": stats.segments_encoded,
        "columns_decoded": stats.columns_decoded,
        "sort_rows": stats.sort_rows,
        "sketches_built": stats.sketches_built,
    }


def run_pipeline_comparison():
    """The engine against its row oracle on identical data; returns the
    per-query comparison plus the replica's encoding accounting."""
    db = _loaded_db()
    arm_of = {source: name for name, source in SKETCH_ARM}
    comparison = []
    warm_arms = {}
    for source, sql in ANALYTICAL_SQL:
        comparison.append(_compare(db, source, sql))
        if source not in arm_of:
            continue
        # the warm arm straight after its cold runs
        entry = dict(comparison[-1])
        warm_ms, warm = _timed(db, sql)
        entry.update({
            "query": arm_of[source],
            "warm_ms": warm_ms["median"],
            "warm_ms_min": warm_ms["min"],
            "warm_ms_max": warm_ms["max"],
            "speedup_warm_vs_cold": entry["columnar_ms"] / warm_ms["median"],
            "speedup_warm_vs_row": entry["row_ms"] / warm_ms["median"],
            "checksum_warm": _checksum(warm.rows),
            "sketches_hit": warm.stats.sketches_hit,
            "sketch_rows_elided": warm.stats.sketch_rows_elided,
        })
        warm_arms[entry["query"]] = entry
    comparison.append(_compare(db, "sorted_range_scan", SORTED_RANGE_SQL))
    comparison += [warm_arms[name] for name, _source in SKETCH_ARM]
    return comparison, db.columnar.encoding_stats()


def test_fig5_vectorized_vs_row_pipeline(benchmark, series):
    comparison, encoding = benchmark.pedantic(
        run_pipeline_comparison, rounds=1, iterations=1)
    by_name = {entry["query"]: entry for entry in comparison}
    for entry in comparison:
        if "warm_ms" in entry:
            series.add(f"{entry['query']} warm-vs-cold", ">=3",
                       entry["speedup_warm_vs_cold"])
            continue
        series.add(
            f"{entry['query']} columnar-vs-row ({entry['verdict']}, "
            f"pruned={entry['segments_pruned']})",
            "-", entry["speedup_columnar_vs_row"])
    series.add("replica compression ratio", "-",
               encoding["compression_ratio"])
    benchmark.extra_info["vectorized_comparison"] = comparison
    benchmark.extra_info["encoding"] = encoding
    series.emit(benchmark)

    record_bench("fig05", {
        "figure": "fig05",
        "workload": "subenchmark",
        "protocol": {"warmup_runs": 1, "timed_runs": RUNS,
                     "statistic": "median (min / max recorded)"},
        "queries": comparison,
        "compression": {
            "segments_encoded": encoding["segments_encoded"],
            "segments_total": encoding["segments_total"],
            "bytes_plain": encoding["bytes_plain"],
            "bytes_encoded": encoding["bytes_encoded"],
            "bytes_saved": encoding["bytes_saved"],
            "compression_ratio": encoding["compression_ratio"],
            "encodings": encoding["encodings"],
        },
        "shared_dicts": {
            "dicts_shared": encoding["dicts_shared"],
            "shared_dicts_total": encoding["shared_dicts_total"],
            "shared_dicts_demoted": encoding["shared_dicts_demoted"],
            "shared_dict_bytes": encoding["shared_dict_bytes"],
            "dict_code_bytes": encoding["dict_code_bytes"],
        },
    })

    # every answer is the row oracle's, and no query is slower than it
    for entry in comparison:
        assert entry["rows"] > 0
        assert entry["checksum"] == entry["checksum_row"]
        assert entry["verdict"] != "regression", entry["query"]
    selective = by_name["selective_district"]
    # zone maps must skip most segments, the encoding layer must engage
    # (encoded segments scanned) ...
    assert selective["segments_pruned"] > 0
    assert selective["segments_encoded"] > 0
    assert encoding["bytes_saved"] > 0
    # ... and executing on encoded data must beat the row oracle >=5x
    # (the CI floor)
    assert selective["speedup_columnar_vs_row"] >= 5.0
    # zone maps must prune the key range, and the grouped report and the
    # string-key join must have read encoded segments
    assert by_name["sorted_range_scan"]["segments_pruned"] > 0
    assert by_name["grouped_report"]["segments_encoded"] > 0
    assert by_name["string_key_join"]["segments_encoded"] > 0
    assert encoding["dicts_shared"] > 0
    # the sketch arm: warm executions read cached run states and must
    # beat the same statement run cold >=3x (the CI floor); the cold run
    # must have built the states the warm runs hit
    for name, _source in SKETCH_ARM:
        sketch = by_name[name]
        assert sketch["sketches_built"] > 0
        assert sketch["sketches_hit"] > 0
        assert sketch["sketch_rows_elided"] > 0
        assert sketch["speedup_warm_vs_cold"] >= 3.0
        assert sketch["checksum_warm"] == sketch["checksum_row"]
