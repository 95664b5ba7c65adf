"""Calibration harness: prints the headline paper shapes from quick runs.

Not part of the library — a development tool used to tune the cost-model
constants (``CostParams`` and the per-engine calibrations at the end of
``src/repro/sim/costmodel.py``).  Run:  python scripts/calibrate.py [section]
"""

from __future__ import annotations

import sys
import time

from repro.core import BenchConfig, OLxPBench
from repro.engines import MemSQLCluster, OceanBaseCluster, TiDBCluster
from repro.workloads import make_workload

NO_ONLY = {"NewOrder": 1.0, "Payment": 0, "OrderStatus": 0, "Delivery": 0,
           "StockLevel": 0}
X1_ONLY = {"X1": 1.0, "X2": 0, "X3": 0, "X4": 0, "X5": 0}


def fig1():
    engine = TiDBCluster(nodes=4)
    bench = OLxPBench(engine, make_workload("subenchmark"), scale=1.0, seed=2)
    base = bench.run(BenchConfig(workload="subenchmark", loop="closed",
                                 closed_threads=8, oltp_rate=1,
                                 duration_ms=3000, warmup_ms=1000,
                                 oltp_weights=NO_ONLY))
    hyb = bench.run(BenchConfig(workload="subenchmark", mode="hybrid",
                                loop="closed", closed_threads=8,
                                hybrid_rate=1, oltp_rate=0,
                                duration_ms=3000, warmup_ms=1000,
                                hybrid_weights=X1_ONLY))
    lat_ratio = hyb.latency("hybrid").mean / base.latency("oltp").mean
    tput_ratio = base.throughput("oltp") / max(hyb.throughput("hybrid"), 1e-9)
    print(f"fig1: latency x{lat_ratio:.2f} (paper 5.9) "
          f"throughput /{tput_ratio:.2f} (paper 5.9)")


def fig5():
    engine = TiDBCluster(nodes=4)
    bench = OLxPBench(engine, make_workload("subenchmark"), scale=1.0, seed=2)
    kwargs = dict(workload="subenchmark", duration_ms=10_000, warmup_ms=2000,
                  oltp_weights=NO_ONLY)
    base = bench.run(BenchConfig(oltp_rate=30, **kwargs))
    ana = bench.run(BenchConfig(oltp_rate=30, olap_rate=1, **kwargs))
    hyb = bench.run(BenchConfig(mode="hybrid", hybrid_rate=30, oltp_rate=0,
                                workload="subenchmark", duration_ms=10_000,
                                warmup_ms=2000, hybrid_weights=X1_ONLY))
    b, a, h = (base.latency("oltp"), ana.latency("oltp"),
               hyb.latency("hybrid"))
    print(f"fig5 baseline {b.mean:.1f} (std {b.std:.2f}; paper 2.21)")
    print(f"fig5 +analytic x{a.mean / b.mean:.2f} std {a.std:.2f} "
          f"(paper x3, std 9.16) refused={ana.columnar_refused}")
    print(f"fig5 +hybrid  x{h.mean / b.mean:.2f} std {h.std:.2f} "
          f"(paper x9+, std 38.91)")


def peaks(workload_name: str, rates: dict):
    for engine_cls in (MemSQLCluster, TiDBCluster):
        engine = engine_cls(nodes=4)
        bench = OLxPBench(engine, make_workload(workload_name),
                          scale=rates.get("scale", 1.0), seed=2)
        for kind in ("oltp", "olap", "hybrid"):
            best = 0.0
            for rate in rates[kind]:
                config = BenchConfig(
                    workload=workload_name,
                    mode="hybrid" if kind == "hybrid" else "concurrent",
                    oltp_rate=rate if kind == "oltp" else 0,
                    olap_rate=rate if kind == "olap" else 0,
                    hybrid_rate=rate if kind == "hybrid" else 0,
                    duration_ms=rates.get("duration_ms", 1000),
                    warmup_ms=rates.get("warmup_ms", 300),
                )
                report = bench.run(config)
                best = max(best, report.throughput(kind))
            print(f"{workload_name} {engine.name} {kind} peak "
                  f"{best:.2f}/s")


SECTIONS = {
    "fig1": fig1,
    "fig5": fig5,
    "su": lambda: peaks("subenchmark", {
        "oltp": [1000, 2000, 4000, 8000], "olap": [5, 20, 80, 200],
        "hybrid": [4, 16, 64, 128], "duration_ms": 800, "warmup_ms": 200}),
    "fi": lambda: peaks("fibenchmark", {
        "oltp": [5000, 10000, 20000, 40000], "olap": [2, 8, 32, 100],
        "hybrid": [2, 8, 32, 100], "duration_ms": 500, "warmup_ms": 150,
        "scale": 1.0}),
    "ta": lambda: peaks("tabenchmark", {
        "oltp": [100, 300, 900, 2700], "olap": [2, 8, 32, 100],
        "hybrid": [4, 16, 64], "duration_ms": 800, "warmup_ms": 200,
        "scale": 1.0}),
}


if __name__ == "__main__":
    wanted = sys.argv[1:] or list(SECTIONS)
    for name in wanted:
        start = time.time()
        SECTIONS[name]()
        print(f"  [{name} took {time.time() - start:.1f}s]")
