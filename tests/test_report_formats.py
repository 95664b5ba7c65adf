"""Interference-matrix and CSV round-trips used by the figure pipeline,
plus the table-driven counter-plumbing test (declaration -> merge -> run
report -> text / CSV)."""

import copy
import csv
import io
from collections import Counter
from dataclasses import fields

import pytest

from repro.analysis import InterferenceMatrix
from repro.core import BenchConfig, OLxPBench
from repro.core.report import render_csv, render_text
from repro.core.runner import RunReport
from repro.engines import TiDBCluster
from repro.sql.result import REPORT_SECTIONS, ExecStats
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def reports():
    engine = TiDBCluster(nodes=4)
    bench = OLxPBench(engine, make_workload("fibenchmark"), scale=0.02,
                      seed=12)
    out = []
    for rate, olap in ((100, 0), (100, 2), (200, 0), (200, 2)):
        out.append((rate, olap, bench.run(BenchConfig(
            workload="fibenchmark", oltp_rate=rate, olap_rate=olap,
            duration_ms=400, warmup_ms=100))))
    return out


def test_csv_parses_back(reports):
    text = render_csv([r for _a, _b, r in reports])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == sum(len(r.classes) for _a, _b, r in reports)
    for row in rows:
        assert row["workload"] == "fibenchmark"
        assert float(row["throughput"]) >= 0
        assert float(row["p95"]) >= float(row["min"])


def test_text_report_prints_each_section_once(reports):
    for _rate, _olap, report in reports:
        lines = render_text(report, per_transaction=True).splitlines()
        # "  <section>: counters..." — class rows and counter sections alike
        sections = Counter(line.split(":", 1)[0].strip()
                           for line in lines[1:] if ":" in line)
        assert "plan cache" in sections and "locks" in sections
        assert set(sections.values()) == {1}, sections


def test_interference_matrix_from_reports(reports):
    matrix = InterferenceMatrix(primary="oltp", secondary="olap")
    for rate, olap, report in reports:
        matrix.add(report, rate, olap)
    rows = matrix.rows()
    assert len(rows) == 4
    # throughput_drop is defined for both primary rates
    for rate in (100, 200):
        drop = matrix.throughput_drop(rate)
        assert 0.0 <= drop <= 1.0
    assert matrix.worst_latency_inflation() >= 1.0 or \
        matrix.worst_latency_inflation() > 0


def test_matrix_rows_carry_latency_series(reports):
    matrix = InterferenceMatrix(primary="oltp", secondary="olap")
    for rate, olap, report in reports:
        matrix.add(report, rate, olap)
    for _rate, _olap, tput, avg, p95 in matrix.rows():
        assert tput > 0
        assert p95 >= avg * 0.5


# ---------------------------------------------------------------------------
# counter plumbing, table-driven: every check below iterates the ExecStats
# field declarations, so a counter added there is covered with no edit here
# ---------------------------------------------------------------------------

# the CSV header, pinned: reordering or renaming a declared counter
# changes what downstream figure scripts read, and must fail here.  The
# pool's worker-count and gather-wait columns went with its scatter-gather
# lane, and its background-compaction count column with the background
# compaction lane (replicate() compacts inline only); the sort-elision
# count with the sort-elision layer, the plan-cache contention count
# with the non-blocking lock acquire that fed it, and the run-grouped
# batch count (``groups_coded``, 0 in every row examples/
# export_figure_data.py wrote) with the run-grouped fold; the code-space
# join probe count (``join_code_probes``) and the table-level coded
# group-by batch count (``groups_global_coded``) with the code-space join
# and coded group-by (both 0 in every olxp and CLI run); and the RLE
# run-skip count (``runs_skipped``, 0 in every olxp and CLI run) with the
# per-encoding predicate layer; no script or committed CSV in the
# repository read any of them.
CSV_HEADER = (
    "workload,engine,mode,loop,oltp_rate,olap_rate,hybrid_rate,class,"
    "throughput,count,min,mean,median,p90,p95,p99,p99.9,p99.99,max,std,"
    "vectorized_requests,batches_scanned,segments_pruned,segments_encoded,"
    "segments_merged,delta_rows_pending,"
    "plan_cache_hits,plan_cache_misses,plan_cache_evictions,"
    "partitions_scanned,partitions_pruned,multi_partition_commits,"
    "faults_injected,faults_recovered,degraded_statements,"
    "sketches_built,sketches_hit,sketch_rows_elided,sketch_invalidations")


def _primes():
    candidate = 100
    while True:
        candidate += 1
        if all(candidate % p for p in range(2, int(candidate ** 0.5) + 1)):
            yield candidate


def _empty_report() -> RunReport:
    return RunReport(config=BenchConfig(workload="subenchmark"),
                     engine="test", window_ms=1000.0)


class TestDeclaredCounters:
    def test_run_report_redeclares_no_counter(self):
        declared = {f.name for f in fields(ExecStats)}
        assert not declared & set(RunReport.__annotations__)
        assert declared <= {f.name for f in fields(RunReport)}

    def test_every_field_merges_by_its_declared_kind(self):
        mine, other = ExecStats(), ExecStats()
        for f in fields(ExecStats):
            kind = f.metadata["merge"]
            if kind == "table":
                getattr(mine, f.name).update(T=1, U=2)
                getattr(other, f.name).update(U=3, V=4)
            elif kind == "or":
                setattr(other, f.name, True)
            else:
                assert kind in ("sum", "max"), (f.name, kind)
                setattr(mine, f.name, type(f.default)(3))
                setattr(other, f.name, type(f.default)(7))
        untouched = copy.deepcopy(other)
        mine.merge(other)
        assert other == untouched
        expected = {"sum": 10, "max": 7, "or": True,
                    "table": {"T": 1, "U": 5, "V": 4}}
        for f in fields(ExecStats):
            assert getattr(mine, f.name) == expected[f.metadata["merge"]], \
                f.name
        # merging an all-zero statement changes nothing (max and flags
        # keep the larger side), and the totals are still defaultdicts
        mine.merge(ExecStats())
        for f in fields(ExecStats):
            assert getattr(mine, f.name) == expected[f.metadata["merge"]], \
                f.name
            if f.metadata["merge"] == "table":
                assert getattr(mine, f.name)["never seen"] == 0

    def test_every_reported_counter_reaches_text_and_csv(self):
        report = _empty_report()
        report.single_partition_commits = 1   # the partitions line needs one
        report.metrics("oltp")
        reported = [f for f in fields(ExecStats) if "section" in f.metadata]
        values = dict(zip((f.name for f in reported), _primes()))
        for name, value in values.items():
            setattr(report, name, value)
        lines = {line.split(":", 1)[0].strip(): line.split()
                 for line in report.summary_text().splitlines()[1:]}
        (row,) = csv.DictReader(io.StringIO(render_csv([report])))
        derived = {name: (section, label, column, text_format)
                   for section, counters in REPORT_SECTIONS.items()
                   for name, label, column, text_format in counters}
        assert list(derived) == [f.name for f in reported]
        for f in reported:
            section, label, column, text_format = derived[f.name]
            assert section == f.metadata["section"]
            cell = f"{label}={format(values[f.name], text_format)}"
            assert cell in lines[section], (f.name, cell)
            assert row[column] == str(values[f.name]), f.name
        # nothing else leaks: an unreported counter shows up nowhere
        unreported = _empty_report()
        unreported.metrics("oltp")
        for f in fields(ExecStats):
            if "section" not in f.metadata and f.metadata["merge"] == "sum":
                setattr(unreported, f.name, 424243)
        assert "424243" not in render_text(unreported)
        assert "424243" not in render_csv([unreported])

    def test_csv_header_is_pinned(self):
        assert render_csv([]).strip() == CSV_HEADER

    def test_report_equals_the_merge_of_what_the_engine_accounted(self):
        """One real hybrid run: the report's counters are exactly the
        ``WorkResult`` stats the run handed to ``engine.account``, merged —
        plus the replica-side events the runner attributes itself."""
        engine = TiDBCluster(nodes=4)
        bench = OLxPBench(engine, make_workload("fibenchmark"), scale=0.02,
                          seed=3)
        accounted = []
        account = engine.account

        def capturing_account(now, work, columnar=False):
            accounted.append(work)
            return account(now, work, columnar)

        engine.account = capturing_account
        replica = engine.db.columnar
        merges_before = replica.segments_merged_total()
        invalidated_before = replica.sketches.invalidated
        report = bench.run(BenchConfig(
            workload="fibenchmark", mode="hybrid", hybrid_rate=30,
            oltp_rate=50, olap_rate=4, duration_ms=600, warmup_ms=100))
        assert any(w.realtime_stats is not None for w in accounted)
        expected = ExecStats()
        for work in accounted:
            for stats in (work.stats, work.realtime_stats):
                if stats is not None:
                    expected.merge(stats)
        expected.segments_merged += \
            replica.segments_merged_total() - merges_before
        expected.sketch_invalidations += \
            replica.sketches.invalidated - invalidated_before
        assert expected.rows_returned and expected.plan_cache_hits
        for f in fields(ExecStats):
            assert getattr(report, f.name) == getattr(expected, f.name), \
                f.name


# ---------------------------------------------------------------------------
# "counters identical" as a test: two fixed-seed figure-shaped runs (scale
# 0.3) against literals recorded at PR 20's head, before PR 21
# touched the engine.  Every ExecStats counter not listed must be zero /
# empty.  A PR that means to move a counter or a simulated mean edits the
# literal and says in CHANGES.md by how much and why; an optimisation that
# claims "same work, faster" must leave it alone.
# ---------------------------------------------------------------------------

PINNED_SUBENCHMARK_MIXED = {
    "agg_input_rows": 107498, "batches_scanned": 48, "columns_decoded": 101,
    "delta_rows_pending": 26844,
    "full_scans": {"customer": 3, "district": 2, "history": 5,
                   "new_order": 1, "order_line": 4, "warehouse": 1},
    "groups": 192, "index_range_scans": 92, "join_ops": 10,
    "partitions_pruned": 4308,
    "partitions_scanned": 1500, "pk_lookups": 2297,
    "plan_cache_hits": 1799, "plan_cache_misses": 36,
    "rows_columnar": {"customer": 9000, "district": 20, "history": 15043,
                      "new_order": 967, "order_line": 82996,
                      "warehouse": 1},
    "rows_joined": 10049, "rows_returned": 1051,
    "rows_row_prefix": {"customer": 11400, "new_order": 1928,
                        "order_line": 15849, "orders": 3904},
    "rows_row_store": {"customer": 11507, "district": 133, "item": 328,
                       "new_order": 1948, "order_line": 15849,
                       "orders": 3944, "stock": 1609, "warehouse": 60},
    "scatter_partitions": 4, "segments_encoded": 32,
    "sketch_rows_elided": 2709, "sketches_built": 1, "sketches_hit": 3,
    "sort_rows": 168, "used_columnar": True, "values_decoded": 242795,
    "vectorized": True, "vectorized_statements": 11,
    "writes": {"customer": 46, "district": 60, "history": 26,
               "new_order": 54, "order_line": 552, "orders": 54,
               "stock": 328, "warehouse": 26},
}
PINNED_SUBENCHMARK_SIM_MEAN_MS = {"olap": 110.5331, "oltp": 24.557935}

PINNED_FIBENCHMARK_HYBRID = {
    "agg_input_rows": 432000,
    "full_scans": {"checking": 32, "saving": 23},
    "groups": 55, "join_ops": 13, "partitions_pruned": 408,
    "partitions_scanned": 356, "pk_lookups": 136, "plan_cache_hits": 164,
    "plan_cache_misses": 14, "rows_joined": 13, "rows_returned": 105,
    "rows_row_store": {"checking": 288093, "saving": 207043},
    "writes": {"checking": 55, "saving": 18},
}
PINNED_FIBENCHMARK_SIM_MEAN_MS = {"hybrid": 51.595415}

PINNED_TABENCHMARK_HYBRID = {
    "agg_input_rows": 900139,
    "full_scans": {"call_forwarding": 30, "special_facility": 8,
                   "subscriber": 27},
    "groups": 61, "index_lookups": 7, "index_range_scans": 44,
    "join_ops": 7, "partitions_pruned": 204, "partitions_scanned": 356,
    "pk_lookups": 28, "plan_cache_hits": 134, "plan_cache_misses": 14,
    "rows_joined": 7, "rows_returned": 136,
    "rows_row_prefix": {"call_forwarding": 7, "special_facility": 34,
                        "subscriber": 27},
    "rows_row_store": {"call_forwarding": 673578,
                       "special_facility": 208612, "subscriber": 162027},
    "writes": {"call_forwarding": 8, "special_facility": 5,
               "subscriber": 17},
}
PINNED_TABENCHMARK_SIM_MEAN_MS = {"hybrid": 139.751124}


class TestCountersPinned:
    @staticmethod
    def _check(report, counters: dict, sim_mean_ms: dict):
        for f in fields(ExecStats):
            value = getattr(report, f.name)
            if f.metadata["merge"] == "table":
                value = dict(value)
            assert value == counters.get(f.name, type(value)()), f.name
        assert {kind: round(report.latency(kind).mean, 6)
                for kind in report.classes} == sim_mean_ms

    def test_subenchmark_mixed_run(self):
        bench = OLxPBench(TiDBCluster(replication_apply_rate=10.0),
                          make_workload("subenchmark"), scale=0.3, seed=3)
        report = bench.run(BenchConfig(
            workload="subenchmark", oltp_rate=20, olap_rate=4,
            duration_ms=3000, warmup_ms=500))
        assert report.rows_row_prefix   # the run takes the PK-prefix path
        self._check(report, PINNED_SUBENCHMARK_MIXED,
                    PINNED_SUBENCHMARK_SIM_MEAN_MS)

    def test_fibenchmark_hybrid_run(self):
        bench = OLxPBench(TiDBCluster(), make_workload("fibenchmark"),
                          scale=0.3, seed=3)
        report = bench.run(BenchConfig(
            workload="fibenchmark", mode="hybrid", hybrid_rate=30,
            oltp_rate=0, olap_rate=0, duration_ms=1500, warmup_ms=300))
        self._check(report, PINNED_FIBENCHMARK_HYBRID,
                    PINNED_FIBENCHMARK_SIM_MEAN_MS)

    def test_tabenchmark_hybrid_run(self):
        """The one figure run that reads a secondary index (the live
        ``is_active`` count) and probes an index join by PK prefix."""
        bench = OLxPBench(TiDBCluster(), make_workload("tabenchmark"),
                          scale=0.3, seed=3)
        report = bench.run(BenchConfig(
            workload="tabenchmark", mode="hybrid", hybrid_rate=30,
            oltp_rate=0, olap_rate=0, duration_ms=1500, warmup_ms=300))
        assert report.index_lookups and report.rows_row_prefix
        self._check(report, PINNED_TABENCHMARK_HYBRID,
                    PINNED_TABENCHMARK_SIM_MEAN_MS)
