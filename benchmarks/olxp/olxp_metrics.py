"""Metric names, units, bounds, and the latency statistics behind them.

Two tiers.  ``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
declares: every workload emits every one of them, which is what a driver
that gates on (workload, metric) pairs needs.  ``CLASS_END_TO_END`` and the
per-program / per-path extras exist only on the workloads that have that
request class or code path; the full report (``results.json``) carries them
next to the declared ones.

Latency statistics are **stratified by program**.  The runner draws each
request's program at random from the class mix, so the *count* of the one
heavy shape (Q5 is ~400 ms, its eight siblings <= 100 ms) swings by a fifth
from seed to seed and drags a plain class mean with it by a third.  Each
measured request therefore carries the weight

    class share of the measured requests  x  nominal program weight
    --------------------------------------------------------------
              measured requests of that program

so every statistic describes the workload's *nominal* mix with per-program
latencies as measured; programs the run never drew are left out and the
rest renormalised.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import NamedTuple


class Request(NamedTuple):
    """One measured request, as stamped by ``StampedTiDB.account``."""

    kind: str
    name: str
    ms: float
    aborted: bool
    retries: int


# name -> (unit, better, bound): how far the metric may worsen, as a share
# of the baseline, before a change counts as a regression
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.20),
    "p95_ms": ("ms", "lower", 0.20),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

# per request class, on the workloads that have the class; fail_ratio's
# bound is absolute (any increase is a regression)
CLASS_END_TO_END = {
    f"{kind}_{stat}_ms": ("ms", "lower", bound)
    for kind in ("oltp", "olap", "hybrid")
    for stat, bound in (("mean", 0.20), ("p95", 0.20))
}
CLASS_END_TO_END["fail_ratio"] = ("ratio", "lower", 0.0)

# name -> (unit, better); no bounds: a layer metric explains a move, it
# gates nothing.  "better" is the direction an optimisation of that layer
# is expected to push it (shares and costs down, hit ratios up).
PER_LAYER = {
    "workloads.install_s": ("s", "lower"),
    "workloads.rows_loaded": ("count", "lower"),
    "core.run_self_us_per_op": ("us", "lower"),
    "core.retries_per_op": ("count", "lower"),
    "engines.tick_us_per_op": ("us", "lower"),
    "engines.account_us_per_op": ("us", "lower"),
    "engines.columnar_routed_ratio": ("ratio", "higher"),
    "sim.mean_ms": ("sim_ms", "lower"),
    "db.execute_self_us_per_stmt": ("us", "lower"),
    "db.statements_per_op": ("count", "lower"),
    "db.plan_cache_hit_ratio": ("ratio", "higher"),
    "db.replicate_us_per_op": ("us", "lower"),
    "db.replicate_share": ("ratio", "lower"),
    "sql.parse_us_per_stmt": ("us", "lower"),
    "sql.plan_us_per_stmt": ("us", "lower"),
    "sql.distinct_statements": ("count", "lower"),
    "sql.exec_share": ("ratio", "lower"),
    "sql.row_point_select_share": ("ratio", "lower"),
    "sql.row_scan_select_share": ("ratio", "lower"),
    "sql.vec_select_share": ("ratio", "lower"),
    "sql.dml_share": ("ratio", "lower"),
    "sql.vectorized_ratio": ("ratio", "higher"),
    "sql.rows_examined_per_row_returned": ("ratio", "lower"),
    "txn.begin_us_per_txn": ("us", "lower"),
    "txn.commit_self_us_per_txn": ("us", "lower"),
    "txn.abort_ratio": ("ratio", "lower"),
    "txn.multi_partition_commit_ratio": ("ratio", "lower"),
    "storage.apply_commit_share": ("ratio", "lower"),
    "storage.wal_records_per_txn": ("count", "lower"),
    "storage.replica_apply_share": ("ratio", "lower"),
    "storage.compact_runs": ("count", "lower"),
    "storage.compact_share": ("ratio", "lower"),
    "storage.segments_merged": ("count", "higher"),
    "storage.rows_rewritten_per_row_applied": ("ratio", "lower"),
    "storage.delta_rows_per_scan": ("count", "lower"),
    "storage.segments_pruned_per_scan": ("count", "higher"),
    "storage.values_decoded_per_row_scanned": ("ratio", "lower"),
    "storage.encoded_segment_ratio": ("ratio", "higher"),
    "storage.sketch_hit_ratio": ("ratio", "higher"),
    "storage.sketch_invalidations": ("count", "lower"),
    "storage.compression_ratio": ("ratio", "higher"),
    "storage.replica_bytes_per_row": ("B", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
}


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["n"] = samples
    return out


def request_weights(requests: list[Request], mix: dict) -> list[float]:
    """The stratification weight of each request (they sum to 1).

    ``mix`` is ``{kind: {program: nominal weight}}``.
    """
    counts = Counter((r.kind, r.name) for r in requests)
    per_request = {}
    for kind, programs in mix.items():
        drawn = {p: w for p, w in programs.items() if counts[(kind, p)]}
        nominal = sum(drawn.values())
        share = sum(counts[(kind, p)] for p in drawn) / len(requests)
        for program, weight in drawn.items():
            per_request[(kind, program)] = \
                share * weight / nominal / counts[(kind, program)]
    return [per_request[(r.kind, r.name)] for r in requests]


def weighted_mean(values, weights) -> float:
    return sum(v * w for v, w in zip(values, weights)) / sum(weights)


def weighted_quantile(values, weights, q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the total."""
    target = q * sum(weights)
    reached = 0.0
    for value, weight in sorted(zip(values, weights)):
        reached += weight
        if reached >= target:
            return value
    return max(values)


def latency_metrics(requests: list[Request], mix: dict) -> dict:
    """Every latency-derived end-to-end metric of one request series."""
    weights = request_weights(requests, mix)
    ms = [r.ms for r in requests]
    n = len(requests)
    out = {
        "ops_per_s": metric(1000.0 / weighted_mean(ms, weights), "1/s", n),
        "p95_ms": metric(weighted_quantile(ms, weights, 0.95), "ms", n),
    }
    for kind in sorted({r.kind for r in requests}):
        picked = [(r.ms, w) for r, w in zip(requests, weights)
                  if r.kind == kind]
        values, sub = zip(*picked)
        out[f"{kind}_mean_ms"] = metric(weighted_mean(values, sub), "ms",
                                        len(values))
        out[f"{kind}_p95_ms"] = metric(weighted_quantile(values, sub, 0.95),
                                       "ms", len(values))
    failed = sum(1 for r in requests if r.aborted)
    out["fail_ratio"] = metric(failed / n, "ratio", n)
    return out


def program_medians(requests: list[Request]) -> dict:
    """``workloads.p50_ms.<program>``: unimodal, unlike the class median."""
    by_program: dict = {}
    for r in requests:
        by_program.setdefault(r.name, []).append(r.ms)
    return {
        f"workloads.p50_ms.{name}": metric(statistics.median(values), "ms",
                                           len(values))
        for name, values in sorted(by_program.items())
    }


def sequence(requests: list[Request]) -> list[tuple]:
    """What must repeat exactly when a request series is issued again."""
    return [(r.kind, r.name, r.aborted, r.retries) for r in requests]


def denoise(series: list[list[Request]]) -> list[Request]:
    """Request *i*'s latency as the median over repetitions of request *i*
    (the repetitions issue identical sequences; the caller has checked)."""
    return [same[0]._replace(ms=statistics.median(r.ms for r in same))
            for same in zip(*series)]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
