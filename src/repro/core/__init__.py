"""OLxPBench framework core: config, session, runner, statistics."""

from repro.core.config import BenchConfig
from repro.core.runner import OLxPBench, RunReport
from repro.core.session import Session, run_transaction
from repro.core.stats import (
    ClassMetrics,
    LatencyCollector,
    LatencySummary,
    percentile,
)

__all__ = [
    "BenchConfig",
    "OLxPBench",
    "RunReport",
    "Session",
    "run_transaction",
    "ClassMetrics",
    "LatencyCollector",
    "LatencySummary",
    "percentile",
]
