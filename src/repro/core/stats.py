"""Latency/throughput statistics.

Implements the metric set the paper's statistics module reports: min, max,
mean, median, standard deviation and the 90th/95th/99th/99.9th/99.99th
percentile latencies, plus throughput over the measurement window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


@dataclass
class LatencySummary:
    """Immutable summary of one latency population (milliseconds)."""

    count: int
    minimum: float
    maximum: float
    mean: float
    std: float
    percentiles: dict

    @property
    def median(self) -> float:
        return self.percentiles.get(50.0, float("nan"))

    @property
    def p90(self) -> float:
        return self.percentiles.get(90.0, float("nan"))

    @property
    def p95(self) -> float:
        return self.percentiles.get(95.0, float("nan"))

    @property
    def p99(self) -> float:
        return self.percentiles.get(99.0, float("nan"))

    @property
    def p999(self) -> float:
        return self.percentiles.get(99.9, float("nan"))

    @property
    def p9999(self) -> float:
        return self.percentiles.get(99.99, float("nan"))

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "std": self.std,
            **{f"p{p:g}": v for p, v in self.percentiles.items()},
        }


EMPTY_SUMMARY = LatencySummary(0, float("nan"), float("nan"), float("nan"),
                               float("nan"), {p: float("nan")
                                              for p in PERCENTILES})


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile over pre-sorted values."""
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * fraction
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    value = sorted_values[low] * (1 - weight) + sorted_values[high] * weight
    # clamp interpolation rounding error inside the observed range
    return min(max(value, sorted_values[0]), sorted_values[-1])


class LatencyCollector:
    """Accumulates latency samples for one request class."""

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: list[float] = []

    def add(self, latency_ms: float):
        self._samples.append(latency_ms)

    def extend(self, latencies):
        self._samples.extend(latencies)

    def __len__(self):
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def summary(self) -> LatencySummary:
        if not self._samples:
            return EMPTY_SUMMARY
        values = sorted(self._samples)
        count = len(values)
        mean = sum(values) / count
        variance = sum((v - mean) ** 2 for v in values) / count
        return LatencySummary(
            count=count,
            minimum=values[0],
            maximum=values[-1],
            mean=mean,
            std=math.sqrt(variance),
            percentiles={p: percentile(values, p / 100.0)
                         for p in PERCENTILES},
        )

    def reset(self):
        self._samples.clear()


@dataclass
class ClassMetrics:
    """Everything recorded for one request class during a run."""

    attempted: int = 0
    completed: int = 0
    aborted: int = 0
    latency: LatencyCollector = field(default_factory=LatencyCollector)
    queue_wait_ms: float = 0.0
    lock_wait_ms: float = 0.0
    service_ms: float = 0.0
    io_ms: float = 0.0

    def throughput(self, window_ms: float) -> float:
        """Completions per second over the measurement window."""
        if window_ms <= 0:
            return 0.0
        return self.completed / (window_ms / 1000.0)

    def observe(self, latency: float, breakdown, aborted: bool,
                completed: bool):
        """Record one measured request: its outcome (``completed`` says it
        finished inside the window), its latency and the latency's
        breakdown (anything with ``queue_wait`` / ``lock_wait`` /
        ``service`` / ``io``)."""
        self.attempted += 1
        if aborted:
            self.aborted += 1
        elif completed:
            self.completed += 1
        self.latency.add(latency)
        self.queue_wait_ms += breakdown.queue_wait
        self.lock_wait_ms += breakdown.lock_wait
        self.service_ms += breakdown.service
        self.io_ms += breakdown.io


@dataclass(kw_only=True)
class ClassTable:
    """Per-class and per-transaction measurements of one run: the part a
    ``RunReport`` and a ``ServerReport`` share.  A server latency starts at
    the request's first arrival, so it includes any admission deferral."""

    window_ms: float
    classes: dict = field(default_factory=dict)          # kind -> ClassMetrics
    per_transaction: dict = field(default_factory=dict)  # name -> collector

    def metrics(self, kind: str) -> ClassMetrics:
        return self.classes.setdefault(kind, ClassMetrics())

    def throughput(self, kind: str) -> float:
        if kind not in self.classes:
            return 0.0
        return self.classes[kind].throughput(self.window_ms)

    def latency(self, kind: str) -> LatencySummary:
        if kind not in self.classes:
            return EMPTY_SUMMARY
        return self.classes[kind].latency.summary()

    def transaction_latency(self, name: str) -> LatencySummary:
        collector = self.per_transaction.get(name)
        return collector.summary() if collector else EMPTY_SUMMARY

    def observe(self, kind: str, name: str, latency: float, breakdown,
                aborted: bool, completed: bool):
        """Record one measured request under its class and transaction."""
        self.metrics(kind).observe(latency, breakdown, aborted, completed)
        collector = self.per_transaction.get(name)
        if collector is None:
            collector = self.per_transaction[name] = LatencyCollector(name)
        collector.add(latency)
