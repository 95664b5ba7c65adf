"""Statistics module: percentiles, summaries, throughput."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    ClassMetrics,
    LatencyCollector,
    percentile,
)


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=300),
           st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]))
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_linear(self, values, fraction):
        values = sorted(values)
        ours = percentile(values, fraction)
        theirs = float(np.percentile(values, fraction * 100,
                                     method="linear"))
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_extremes(self, values):
        values = sorted(values)
        for fraction in (0.0, 0.25, 0.5, 0.9, 1.0):
            p = percentile(values, fraction)
            assert values[0] <= p <= values[-1]


class TestLatencyCollector:
    def test_summary_fields(self):
        collector = LatencyCollector("x")
        collector.extend([1.0, 2.0, 3.0, 4.0, 100.0])
        summary = collector.summary()
        assert summary.count == 5
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert summary.mean == pytest.approx(22.0)
        assert summary.median == 3.0
        assert summary.p95 > summary.median

    def test_reports_required_percentiles(self):
        """The paper's statistics module stores min/max/median and the
        90/95/99.9/99.99 percentiles — all must be present."""
        collector = LatencyCollector()
        collector.extend(float(i) for i in range(1000))
        d = collector.summary().as_dict()
        for key in ("min", "max", "mean", "std", "p50", "p90", "p95",
                    "p99", "p99.9", "p99.99"):
            assert key in d, key

    def test_empty_summary_is_nan(self):
        summary = LatencyCollector().summary()
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_std_matches_numpy(self):
        values = [3.0, 7.0, 7.0, 19.0]
        collector = LatencyCollector()
        collector.extend(values)
        assert collector.summary().std == pytest.approx(
            float(np.std(values)))

    def test_reset(self):
        collector = LatencyCollector()
        collector.add(1.0)
        collector.reset()
        assert len(collector) == 0


class TestClassMetrics:
    def test_throughput(self):
        metrics = ClassMetrics()
        metrics.completed = 50
        assert metrics.throughput(window_ms=500.0) == 100.0

    def test_zero_window(self):
        assert ClassMetrics().throughput(0.0) == 0.0
