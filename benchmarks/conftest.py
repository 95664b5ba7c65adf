"""Shared helpers for the per-figure/per-table benchmark harness.

Every bench regenerates one table or figure of the paper: it runs the
workload on the simulated cluster(s), prints the paper-reported value next
to the measured one, and records both in ``benchmark.extra_info`` so
``pytest benchmarks/ --benchmark-only`` leaves a machine-readable trail.

Absolute numbers are not expected to match the paper's physical testbed
(README's opening and *Benchmarks* section: the shapes come from the
mechanisms); each bench asserts only the *shape* criteria.
"""

from __future__ import annotations

import pytest

from repro.core import BenchConfig, OLxPBench
from repro.engines import make_engine
from repro.workloads import make_workload


def fresh_bench(engine_name: str, workload_name: str, scale: float = 1.0,
                seed: int = 2, **engine_kwargs) -> OLxPBench:
    """A fresh engine + freshly loaded workload (controlled comparisons
    must not inherit data mutations or cache state from earlier runs)."""
    engine = make_engine(engine_name, **engine_kwargs)
    return OLxPBench(engine, make_workload(workload_name), scale=scale,
                     seed=seed)


def run_once(bench: OLxPBench, **config_kwargs):
    return bench.run(BenchConfig(**config_kwargs))


class Series:
    """Collects (label, paper, measured) rows and renders the comparison."""

    def __init__(self, title: str):
        self.title = title
        self.rows: list[tuple] = []

    def add(self, label: str, paper, measured):
        self.rows.append((label, paper, measured))

    def render(self) -> str:
        width = max((len(r[0]) for r in self.rows), default=10)
        lines = [f"== {self.title} =="]
        lines.append(f"{'metric':<{width}}  {'paper':>14}  {'measured':>14}")
        for label, paper, measured in self.rows:
            paper_s = f"{paper:.3g}" if isinstance(paper, (int, float)) \
                else str(paper)
            measured_s = f"{measured:.4g}" if isinstance(measured,
                                                         (int, float)) \
                else str(measured)
            lines.append(f"{label:<{width}}  {paper_s:>14}  {measured_s:>14}")
        return "\n".join(lines)

    def emit(self, benchmark=None):
        text = self.render()
        print("\n" + text)
        if benchmark is not None:
            benchmark.extra_info["series"] = [
                {"metric": label, "paper": paper, "measured": measured}
                for label, paper, measured in self.rows
            ]
        return text


@pytest.fixture
def series(request):
    return Series(request.node.name)


def peak_throughput(engine_name: str, workload_name: str, kind: str,
                    rates, scale: float = 1.0, duration_ms: float = 600,
                    warmup_ms: float = 200, cross_rates=None) -> dict:
    """Sweep ``rates`` for one request class; returns the Fig. 7-9 panel.

    ``cross_rates`` optionally adds a second class at a fixed rate to every
    run (the paper's control-variate interference methodology).  Every point
    uses a fresh engine + data so points are independent.
    """
    other_kind, other_rate = cross_rates or (None, 0)
    points = []
    for rate in rates:
        bench = fresh_bench(engine_name, workload_name, scale=scale)
        kwargs = dict(
            workload=workload_name,
            mode="hybrid" if kind == "hybrid" else "concurrent",
            duration_ms=duration_ms, warmup_ms=warmup_ms,
            oltp_rate=0.0, olap_rate=0.0, hybrid_rate=0.0,
        )
        kwargs[f"{kind}_rate"] = rate
        if other_kind:
            kwargs[f"{other_kind}_rate"] = other_rate
        report = bench.run(BenchConfig(**kwargs))
        points.append({
            "rate": rate,
            "throughput": report.throughput(kind),
            "avg_ms": report.latency(kind).mean,
            "p95_ms": report.latency(kind).p95,
        })
    peak = max(p["throughput"] for p in points)
    return {"points": points, "peak": peak}
