"""Analysis tools: lock overhead, interference, scaling."""

import pytest

from repro.analysis import (
    InterferenceMatrix,
    ScalingStudy,
    lock_overhead,
    normalised_lock_overhead,
)
from repro.core import BenchConfig
from repro.core.runner import RunReport
from repro.core.stats import ClassMetrics


def report_with(kind="oltp", completed=100, latencies=(10.0,),
                lock_wait=0.0, acquisitions=0, busy=1000.0,
                window=1000.0) -> RunReport:
    report = RunReport(config=BenchConfig(oltp_rate=1), engine="tidb",
                       window_ms=window)
    metrics = ClassMetrics()
    metrics.completed = completed
    metrics.attempted = completed
    metrics.latency.extend(latencies)
    report.classes[kind] = metrics
    report.lock_wait_ms = lock_wait
    report.lock_acquisitions = acquisitions
    report.busy_ms = {"row": busy}
    return report


class TestLockOverhead:
    def test_ratio(self):
        report = report_with(lock_wait=50.0, acquisitions=0, busy=1000.0)
        assert lock_overhead(report).ratio == pytest.approx(0.05)

    def test_acquisition_cost_counted(self):
        report = report_with(lock_wait=0.0, acquisitions=1000, busy=1000.0)
        overhead = lock_overhead(report, per_acquisition_ms=0.002)
        assert overhead.lock_ms == pytest.approx(2.0)

    def test_normalised_against_baseline(self):
        baseline = report_with(lock_wait=10.0, busy=1000.0)
        loaded = report_with(lock_wait=30.0, busy=1000.0)
        assert normalised_lock_overhead(loaded, baseline) == pytest.approx(3.0)

    def test_zero_busy_is_zero(self):
        report = report_with(lock_wait=10.0, busy=0.0)
        assert lock_overhead(report).ratio == 0.0


class TestInterferenceMatrix:
    def build(self):
        matrix = InterferenceMatrix(primary="oltp", secondary="olap")
        # baseline: no OLAP; then increasing OLAP pressure
        matrix.add(report_with(completed=800, latencies=[10.0] * 5), 800, 0)
        matrix.add(report_with(completed=400, latencies=[40.0] * 5), 800, 2)
        matrix.add(report_with(completed=88, latencies=[170.0] * 5), 800, 4)
        return matrix

    def test_throughput_drop(self):
        matrix = self.build()
        assert matrix.throughput_drop(800) == pytest.approx(1 - 88 / 800)

    def test_latency_inflation(self):
        matrix = self.build()
        assert matrix.latency_inflation(800) == pytest.approx(17.0)

    def test_worst_case_helpers(self):
        matrix = self.build()
        assert matrix.worst_throughput_drop() == pytest.approx(0.89)
        assert matrix.worst_latency_inflation() == pytest.approx(17.0)

    def test_rows_sorted(self):
        rows = self.build().rows()
        assert rows == sorted(rows)

    def test_missing_baseline_degrades_gracefully(self):
        matrix = InterferenceMatrix("oltp", "olap")
        matrix.add(report_with(completed=10), 100, 1)
        assert matrix.throughput_drop(100) == 0.0
        assert matrix.latency_inflation(100) == 1.0


class TestScalingStudy:
    def test_growth_factor(self):
        study = ScalingStudy(engine="tidb")
        study.add(4, "oltp", report_with(latencies=[10.0] * 4))
        study.add(16, "oltp", report_with(latencies=[22.0] * 4))
        assert study.growth("oltp") == pytest.approx(2.2)

    def test_series_sorted_by_nodes(self):
        study = ScalingStudy(engine="ob")
        study.add(16, "oltp", report_with())
        study.add(4, "oltp", report_with())
        assert [p.nodes for p in study.series("oltp")] == [4, 16]

    def test_single_point_growth_is_one(self):
        study = ScalingStudy(engine="ob")
        study.add(4, "oltp", report_with())
        assert study.growth("oltp") == 1.0
