"""Fig. 11 (repo extension): commit latency under a live CH-benCHmark load.

The session server drives a mixed-tenant CH-benCHmark population — N
transactional clients running the TPC-C mix next to M analytical clients
cycling warehouse-wide ``order_line`` queries — against one
shared-everything OceanBase-like
cluster, where analytical scans and commits contend for the same cores and
the same buffer pool.  Three arms per client count:

* ``baseline`` — the transactional clients alone (no flood);
* ``admission_off`` — the analytical flood with the admission controller
  disabled: scans saturate the shared cores and churn the buffer pool, and
  the commit tail explodes;
* ``admission_on`` — the same flood behind one analytical slot: deferred
  scans back off while commits keep flowing.

A fourth *chaos* arm re-runs the CH-benCHmark mix on the columnar-replica
database with seeded probabilistic ``replica.scan`` faults armed —
columnar scans fail and statements degrade to the row pipeline, answers
unchanged — and records the transactions committed relative to the
fault-free run (a seeded count, not a wall-clock rate) plus a
crash/recover parity sweep, all floor-checked in CI as
``BENCH_fig11.json["chaos"]``.  Every transaction of this one-warehouse
mix commits inside one partition and reaches no 2PC prepare, so the arm
injects no ``txn.prepare`` fault; ``tests/test_fault_injection.py``
covers prepare aborts.

Headline (recorded in ``BENCH_fig11.json``, floor-checked in CI): at >= 16
mixed clients, p99 commit latency with admission control on is at least 2x
lower than with it off, and stays within a small factor of the no-flood
baseline.  A parity section proves every analytical answer byte-identical
across partition counts: the workload installed at 2 and at 8 partitions
answers exactly what the unpartitioned install does.
"""

from __future__ import annotations

import time
from random import Random

import pytest

from repro.core.session import Session, run_transaction
from repro.errors import InjectedFaultError
from repro.db import Database
from repro.engines import make_engine
from repro.server import (
    AdmissionPolicy,
    Server,
    mixed_population,
    query_results,
)
from repro.workloads import make_workload

from record import record_bench

ENGINE = "oceanbase"
WORKLOAD = "chbenchmark"
SCALE = 0.3
DURATION_MS = 4000.0
WARMUP_MS = 1000.0
SEED = 11
# the flood mix: warehouse slices of order_line (``ol_w_id = 1``: Q1's
# aggregation and Q6's selective sum) — big enough to displace half the
# buffer pool
FLOOD_QUERIES = ("Q1", "Q6")
CLIENT_COUNTS = (16, 24)
PARITY_PARTITIONS = (1, 2, 8)
PARITY_SCALE = 0.15
# the chaos arm: seeded per-failpoint probabilities over a direct
# CH-benCHmark mix against the columnar-replica database — deterministic
# because the load loop, the workload parameters and the failpoint draws
# are all seeded
CHAOS_ROUNDS = 8
CHAOS_PARTITIONS = 2
CHAOS_SCAN_P = 0.15


def _arm(policy: AdmissionPolicy, oltp_clients: int, olap_clients: int):
    engine = make_engine(ENGINE, nodes=2, cores_per_node=2)
    workload = make_workload(WORKLOAD, scale=SCALE)
    workload.install(engine.db, Random(7), SCALE)
    weights = {q.name: (1.0 if q.name in FLOOD_QUERIES else 0.0)
               for q in workload.analytical_queries()}
    clients = mixed_population(workload, oltp_clients, olap_clients,
                               olap_weights=weights)
    server = Server(engine, policy)
    report = server.run(clients, duration_ms=DURATION_MS,
                        warmup_ms=WARMUP_MS, seed=SEED,
                        workload_name=WORKLOAD)
    oltp = report.latency("oltp")
    olap = report.latency("olap")
    return {
        "oltp_p50_ms": oltp.median,
        "oltp_p99_ms": oltp.p99,
        "oltp_throughput": report.throughput("oltp"),
        "olap_p50_ms": olap.median if olap.count else None,
        "olap_p99_ms": olap.p99 if olap.count else None,
        "olap_completed": report.metrics("olap").completed
        if "olap" in report.classes else 0,
        "deferred": report.admission["deferred"],
        "admission_enabled": report.admission_enabled,
    }


def _chaos_run(fault: bool) -> dict:
    """One chaos measurement: the CH-benCHmark transaction mix with flood
    queries interleaved, with (or without) seeded faults armed throughout.

    Ends with the degradation parity proof on the run's own final state:
    every analytical answer with columnar scans force-failed (and the
    circuit breaker tripping) must match the healthy columnar answer
    byte-for-byte, and the breaker must close again once healed."""
    db = Database(with_columnar=True, partitions=CHAOS_PARTITIONS)
    workload = make_workload(WORKLOAD, scale=SCALE)
    workload.install(db, Random(7), SCALE)
    db.replicate()
    db.columnar.compact(force=True)
    fp = db.failpoints
    if fault:
        fp.arm("replica.scan", probability=CHAOS_SCAN_P)
    flood = [q for q in workload.analytical_queries()
             if q.name in FLOOD_QUERIES]
    rng = Random(SEED)
    committed = aborted = 0
    began = time.perf_counter()
    with db.connect() as conn:
        for round_no in range(CHAOS_ROUNDS):
            for profile in workload.oltp_transactions():
                work = run_transaction(conn, "oltp", profile.name,
                                       profile.program, rng)
                if work.aborted:
                    aborted += 1
                else:
                    committed += 1
            db.replicate()
            for profile in flood:
                run_transaction(conn, "olap", profile.name, profile.program,
                                Random(f"{profile.name}:{round_no}"),
                                route_columnar=True)
    elapsed_s = time.perf_counter() - began
    fp.disarm_all()
    db.replicate()
    db.columnar.compact(force=True)
    queries = workload.analytical_queries()
    healthy = query_results(Session(db.connect(), route_columnar=True),
                            queries, seed=SEED)
    fp.arm("replica.scan", always=True)
    degraded = query_results(Session(db.connect(), route_columnar=True),
                             queries, seed=SEED)
    fp.disarm_all()
    with db.connect() as conn:
        for _ in range(db.replica_breaker.cooldown_statements + 4):
            if not db.replica_breaker.is_open:
                break
            conn.execute("SELECT COUNT(*) FROM warehouse", (),
                         route_columnar=True)
    return {
        "committed": committed,
        "aborted": aborted,
        # reported, never gated: two sub-second loops time the host
        "elapsed_s": elapsed_s,
        "degraded_parity": degraded == healthy,
        "faults_injected": fp.triggers_total(),
        "faults_recovered": fp.recoveries_total(),
        "degraded_statements": db.degraded_statements_total,
        "breaker_trips": db.replica_breaker.trips,
        "breaker_resets": db.replica_breaker.resets,
        "breaker_healed": not db.replica_breaker.is_open,
        "failpoints": fp.snapshot(),
    }


def _parity_answers(partitions: int) -> dict:
    """Every analytical answer (row pipeline) on the workload installed at
    ``partitions``: partitioning places WAL streams and commits, so each
    count must answer byte-for-byte what the unpartitioned install does."""
    db = Database(with_columnar=True, partitions=partitions)
    workload = make_workload(WORKLOAD, scale=PARITY_SCALE)
    workload.install(db, Random(7), PARITY_SCALE)
    return query_results(Session(db.connect()),
                         workload.analytical_queries())


def _chaos_parity_point(partitions: int) -> bool:
    """Crash the columnar replica mid-apply, recover, and require every
    analytical answer to match an uncrashed twin byte-for-byte."""
    def build(**kwargs) -> Database:
        db = Database(with_columnar=True, partitions=partitions, **kwargs)
        workload = make_workload(WORKLOAD, scale=PARITY_SCALE)
        workload.install(db, Random(7), PARITY_SCALE)
        rng = Random(13)
        with db.connect() as conn:
            for profile in workload.oltp_transactions():
                run_transaction(conn, "oltp", profile.name,
                                profile.program, rng)
        return db

    queries = make_workload(WORKLOAD, scale=PARITY_SCALE).analytical_queries()
    clean = build()
    clean.replicate()
    clean.columnar.compact(force=True)
    crashed = build(retain_wal=True)
    crashed.failpoints.arm("replica.apply", on_hits=(3,), max_triggers=1)
    try:
        crashed.replicate()
        fired = False
    except InjectedFaultError:
        fired = True
    crashed.failpoints.disarm_all()
    crashed.recover()
    crashed.columnar.compact(force=True)
    return fired and \
        query_results(Session(clean.connect()), queries) == \
        query_results(Session(crashed.connect()), queries)


@pytest.mark.benchmark(group="fig11")
def test_fig11_concurrency(benchmark, series):
    points = []

    def run():
        points.clear()
        for total in CLIENT_COUNTS:
            oltp_clients = (total * 3) // 4
            olap_clients = total - oltp_clients
            baseline = _arm(AdmissionPolicy(), oltp_clients, 0)
            off = _arm(AdmissionPolicy.disabled(), oltp_clients,
                       olap_clients)
            on = _arm(AdmissionPolicy(olap_slots=1),
                      oltp_clients, olap_clients)
            points.append({
                "clients": total,
                "oltp_clients": oltp_clients,
                "olap_clients": olap_clients,
                "baseline": baseline,
                "admission_off": off,
                "admission_on": on,
                "p99_off_over_on": off["oltp_p99_ms"] / on["oltp_p99_ms"],
                "p99_on_over_baseline":
                    on["oltp_p99_ms"] / baseline["oltp_p99_ms"],
            })
        return points

    benchmark.pedantic(run, rounds=1, iterations=1)

    reference = _parity_answers(PARITY_PARTITIONS[0])
    parity = {
        "partitions": list(PARITY_PARTITIONS),
        "queries": len(make_workload(WORKLOAD,
                                     scale=PARITY_SCALE).analytical_queries()),
        "identical": all(_parity_answers(p) == reference
                         for p in PARITY_PARTITIONS[1:]),
    }

    # chaos arm: the same CH-benCHmark mix with seeded faults armed
    chaos_clean = _chaos_run(fault=False)
    chaos_faulty = _chaos_run(fault=True)
    chaos = {
        "rounds": CHAOS_ROUNDS,
        "partitions": CHAOS_PARTITIONS,
        "scan_fault_probability": CHAOS_SCAN_P,
        "clean": chaos_clean,
        "faulty": chaos_faulty,
        "commit_ratio": chaos_faulty["committed"]
        / chaos_clean["committed"],
        "parity": {
            "partitions": list(PARITY_PARTITIONS),
            "identical": chaos_faulty["degraded_parity"]
            and all(_chaos_parity_point(p) for p in PARITY_PARTITIONS),
        },
    }

    for point in points:
        series.add(f"{point['clients']} clients p99 off/on (x)",
                   ">=2", round(point["p99_off_over_on"], 2))
        series.add(f"{point['clients']} clients p99 on/baseline (x)",
                   "~1", round(point["p99_on_over_baseline"], 2))
    series.add("parity across partitions", True, parity["identical"])
    series.add("chaos oltp commits kept (x)", ">=0.5",
               round(chaos["commit_ratio"], 2))
    series.add("chaos crash-recovery parity", True,
               chaos["parity"]["identical"])
    series.emit(benchmark)

    record_bench("fig11", {
        "engine": ENGINE,
        "workload": WORKLOAD,
        "scale": SCALE,
        "duration_ms": DURATION_MS,
        "warmup_ms": WARMUP_MS,
        "seed": SEED,
        "flood_queries": list(FLOOD_QUERIES),
        "points": points,
        "parity": parity,
        "chaos": chaos,
    })

    # shape criteria: the admission controller must cut the commit tail at
    # least 2x under the flood at every client count >= 16, and every
    # partition count must answer byte-for-byte what one partition does
    for point in points:
        assert point["clients"] >= 16
        assert point["p99_off_over_on"] >= 2.0, point
        assert point["admission_on"]["deferred"]["olap"] > 0, point
        assert point["admission_off"]["deferred"]["olap"] == 0, point
    assert parity["identical"]
    # chaos criteria: faults must have engaged (injected, degraded, breaker
    # tripped and healed) and the engine must commit at least half the
    # transactions the fault-free run commits, with byte-identical answers
    # both while degraded and after crash recovery
    assert chaos_faulty["faults_injected"] > 0, chaos_faulty
    assert chaos_faulty["degraded_statements"] > 0, chaos_faulty
    assert chaos_faulty["breaker_trips"] > 0, chaos_faulty
    assert chaos_faulty["breaker_healed"], chaos_faulty
    assert chaos["commit_ratio"] >= 0.5, chaos
    assert chaos["parity"]["identical"]
