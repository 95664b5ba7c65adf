"""Benchmark workloads: subenchmark, fibenchmark, tabenchmark, CH-benCHmark."""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.base import TransactionProfile, Workload

_REGISTRY: dict[str, type] = {}


def make_workload(name: str, scale: float = 1.0) -> Workload:
    """Instantiate a workload by its benchmark name."""
    _ensure_loaded()
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls(scale=scale)


def workload_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def _ensure_loaded():
    if _REGISTRY:
        return
    from repro.workloads.chbench import CHBenchmark
    from repro.workloads.fibench import Fibenchmark
    from repro.workloads.subench import Subenchmark
    from repro.workloads.tabench import Tabenchmark

    for cls in (Subenchmark, Fibenchmark, Tabenchmark, CHBenchmark):
        _REGISTRY[cls.name] = cls


__all__ = [
    "TransactionProfile",
    "Workload",
    "make_workload",
    "workload_names",
]
