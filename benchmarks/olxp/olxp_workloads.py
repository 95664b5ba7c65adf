"""The four figure-run workloads, and the one place they are set up and timed.

Every workload drives the entry point ``python -m repro run`` and the figure
benches use — ``OLxPBench(engine, workload, scale=1.0, seed).run(BenchConfig)``
on the stock 4-node / 4-partition TiDB-like cluster with ``workers=0`` — and
the program only ever sees the requests the seed generates.

**What is timed.**  Simulated latency is a deterministic function of
``ExecStats``; what an engine optimisation moves is real wall-clock.
``StampedTiDB`` overrides only ``account()``, the engine's single timing
entry point, called once per request: it appends a ``perf_counter_ns()``
stamp after the stock accounting.  The simulated client is open-loop in
*simulated* time (fixed rates, so a fixed, seed-determined request sequence
and count); in *real* time it is a **closed loop with one client** — the
engine is embedded and synchronous, request *i* starts when *i-1* returns —
so the real latency of request *i* is ``stamp[i] - stamp[i-1]``: routing,
the engine tick (replicate, inline compaction), the transaction, cost
accounting and runner plumbing all inside.  Stamps are read on the paced
clock of ``olxp_pace``, which takes the shared host's time dilation out.  Requests arriving before
``warmup_ms`` are executed but unmeasured (plan cache and sketches fill);
their wall time is charged to set-up, so work moved into set-up shows.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter_ns

from olxp_metrics import Request
from olxp_pace import PacedClock

from repro.core import BenchConfig, OLxPBench
from repro.engines.tidb import TiDBCluster
from repro.workloads import make_workload


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: a repro workload, engine options and rates.

    A run's passes together simulate ``sim_ms_per_second x --seconds`` ms,
    so the request count depends on (workload, seconds) only — identical on
    both sides of any comparison — and measuring lasts about ``--seconds``
    of wall-clock at the commit that defined the benchmark.
    """

    name: str
    why: str
    benchmark: str
    rates: dict
    warmup_ms: float
    sim_ms_per_second: float
    engine: dict = field(default_factory=dict)


_RETAIL_MIX = dict(oltp_rate=20, olap_rate=4)

WORKLOADS = {spec.name: spec for spec in (
    WorkloadSpec(
        "retail_lagged",
        "stock figure mix: TPC-C writes outrun the simulated replica, the "
        "freshness gate refuses analytics, Q1-Q9 run on the row pipeline "
        "while every tick still applies and compacts the replica",
        "subenchmark", _RETAIL_MIX, warmup_ms=8000, sim_ms_per_second=3400),
    WorkloadSpec(
        "retail_fresh",
        "same requests as retail_lagged but the replica keeps up, so the "
        "columnar side is read while the same OLTP stream dirties it: "
        "reads beside writes",
        "subenchmark", _RETAIL_MIX, warmup_ms=8000, sim_ms_per_second=3400,
        engine=dict(replication_apply_rate=10.0)),
    WorkloadSpec(
        "retail_quiet",
        "analytics only on a static replica, nine shapes repeated: maximum "
        "shared work (sketch hits), zero writes; vectorized and columnstore "
        "layers do the work, txn/WAL/row writes none",
        "subenchmark", dict(oltp_rate=0, olap_rate=10),
        warmup_ms=4000, sim_ms_per_second=2800),
    WorkloadSpec(
        "banking_hybrid",
        "the paper's hybrid transactions on a domain-specific schema: a "
        "full-scan aggregate inside a SmallBank transaction on the row "
        "engine; the bypass workload for every columnar optimisation",
        "fibenchmark", dict(mode="hybrid", hybrid_rate=30, oltp_rate=0),
        warmup_ms=1000, sim_ms_per_second=800),
)}


class StampedTiDB(TiDBCluster):
    """The stock TiDB-like cluster plus one wall-clock stamp per request."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.stamps: list[tuple] = []

    def account(self, arrival_ms, work, columnar=False):
        breakdown = super().account(arrival_ms, work, columnar)
        self.stamps.append((perf_counter_ns(), arrival_ms, work.kind,
                            work.name, work.aborted, work.retries))
        return breakdown


@dataclass
class Pass:
    """One set-up followed by one run of a workload.

    Request latencies and ``install_s`` are on the paced clock
    (``olxp_pace``); a traced pass is not paced, so there they are raw.
    """

    bench: OLxPBench
    report: object
    requests: list[Request]      # measured requests, in issue order
    warmup: list[Request]        # the warm-up requests before them
    rows_loaded: int             # row-store rows right after install
    install_s: float             # engine construction + Workload.install
    wall_s: float                # measured phase, raw, probes excluded
    dilation: float              # median host dilation while it ran
    measured_start_ns: int       # stamp of the last warm-up request
    measured_end_ns: int         # stamp of the last request

    @property
    def db(self):
        return self.bench.engine.db

    def release(self):
        """Drop the engine (its timings stay): one engine alive at a time."""
        self.bench = self.report = None
        gc.collect()


def bench_config(spec: WorkloadSpec, seed: int,
                 seconds: float) -> BenchConfig:
    """The configuration of one pass that measures for about ``seconds``."""
    return BenchConfig(
        workload=spec.benchmark, seed=seed, warmup_ms=spec.warmup_ms,
        duration_ms=spec.sim_ms_per_second * seconds, **spec.rates)


def run_pass(spec: WorkloadSpec, config: BenchConfig,
             tracer=None) -> Pass:
    """Set up a fresh engine and run ``config`` on it, stamping requests."""
    with PacedClock(enabled=tracer is None) as clock:
        t0 = perf_counter_ns()
        engine = StampedTiDB(**spec.engine)
        workload = make_workload(spec.benchmark)
        if tracer is not None:
            tracer.install(engine, workload)
        bench = OLxPBench(engine, workload, scale=1.0, seed=config.seed)
        if tracer is not None:
            tracer.trace_run(bench)
        installed = perf_counter_ns()
        rows_loaded = engine.db.storage.total_rows()
        gc.collect()
        start = perf_counter_ns()
        report = bench.run(config)

    requests, warmup = [], []
    measured_start = previous = start
    for stamp, arrival_ms, kind, name, aborted, retries in engine.stamps:
        request = Request(kind, name,
                          clock.elapsed_ns(previous, stamp) / 1e6,
                          aborted, retries)
        if arrival_ms < config.warmup_ms:
            warmup.append(request)
            measured_start = stamp
        else:
            requests.append(request)
        previous = stamp
    return Pass(
        bench=bench, report=report, requests=requests, warmup=warmup,
        rows_loaded=rows_loaded,
        install_s=clock.elapsed_ns(t0, installed) / 1e9,
        wall_s=(previous - measured_start
                - clock.probe_ns(measured_start, previous)) / 1e9,
        dilation=clock.dilation,
        measured_start_ns=measured_start, measured_end_ns=previous,
    )


def nominal_mix(spec: WorkloadSpec) -> dict:
    """``{kind: {program: weight}}`` of the workload's default mix."""
    workload = make_workload(spec.benchmark)
    return {kind: {p.name: p.weight for p in workload.profiles(kind)}
            for kind in ("oltp", "olap", "hybrid")}
