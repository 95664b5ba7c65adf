"""Analysis tools: lock overhead, interference, scaling."""

from repro.analysis.interference import InterferenceCell, InterferenceMatrix
from repro.analysis.lock_overhead import (
    LockOverhead,
    lock_overhead,
    normalised_lock_overhead,
)
from repro.analysis.scaling import ScalingPoint, ScalingStudy

__all__ = [
    "InterferenceCell",
    "InterferenceMatrix",
    "LockOverhead",
    "lock_overhead",
    "normalised_lock_overhead",
    "ScalingPoint",
    "ScalingStudy",
]
