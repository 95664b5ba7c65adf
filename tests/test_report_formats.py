"""Interference-matrix and CSV round-trips used by the figure pipeline."""

import csv
import io
from collections import Counter

import pytest

from repro.analysis import InterferenceMatrix
from repro.core import BenchConfig, OLxPBench
from repro.core.report import render_csv, render_text
from repro.engines import TiDBCluster
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
