"""Analysis tools: freshness, lock overhead, interference, scaling."""

from repro.analysis.freshness import (
    FreshnessProbe,
    FreshnessSample,
    replication_lag_records,
    staleness_ms,
)
from repro.analysis.interference import InterferenceCell, InterferenceMatrix
from repro.analysis.lock_overhead import (
    LockOverhead,
    lock_overhead,
    normalised_lock_overhead,
)
from repro.analysis.scaling import ScalingPoint, ScalingStudy

__all__ = [
    "FreshnessProbe",
    "FreshnessSample",
    "replication_lag_records",
    "staleness_ms",
    "InterferenceCell",
    "InterferenceMatrix",
    "LockOverhead",
    "lock_overhead",
    "normalised_lock_overhead",
    "ScalingPoint",
    "ScalingStudy",
]
