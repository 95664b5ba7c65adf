"""Concurrent front end: interleaved connections, admission control, the
session server."""

import threading
from unittest import mock

import pytest

from repro.db import Database, database
from repro.engines import make_engine
from repro.errors import ConfigError, WriteConflictError
from repro.server import (
    AdmissionController,
    AdmissionPolicy,
    Server,
    admission,
    mixed_population,
    query_results,
)
from repro.core.session import Session
from repro.txn.manager import IsolationLevel
from repro.workloads import make_workload
from random import Random


def _kv_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.execute_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    with db.connect() as conn:
        for k in range(1, 6):
            conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (k, k * 10))
        conn.commit()
    return db


class TestSessionSnapshots:
    def test_snapshot_session_ignores_interleaved_commit(self):
        db = _kv_db()
        a = db.connect(IsolationLevel.SNAPSHOT)
        b = db.connect()
        a.begin()
        assert a.execute("SELECT v FROM kv WHERE k = 1").scalar() == 10
        b.begin()
        b.execute("UPDATE kv SET v = ? WHERE k = ?", (99, 1))
        b.commit()
        # A's snapshot predates B's commit: repeatable read
        assert a.execute("SELECT v FROM kv WHERE k = 1").scalar() == 10
        a.commit()
        assert a.execute("SELECT v FROM kv WHERE k = 1").scalar() == 99

    def test_read_committed_session_refreshes_per_statement(self):
        db = _kv_db()
        a = db.connect(IsolationLevel.READ_COMMITTED)
        b = db.connect()
        a.begin()
        assert a.execute("SELECT v FROM kv WHERE k = 2").scalar() == 20
        b.execute("UPDATE kv SET v = ? WHERE k = ?", (77, 2))
        # RC refreshes the snapshot at the next statement, same transaction
        assert a.execute("SELECT v FROM kv WHERE k = 2").scalar() == 77
        a.commit()

    def test_no_dirty_reads_between_sessions(self):
        db = _kv_db()
        writer = db.connect()
        readers = [
            db.connect(IsolationLevel.SNAPSHOT),
            db.connect(IsolationLevel.READ_COMMITTED),
        ]
        writer.begin()
        writer.execute("UPDATE kv SET v = ? WHERE k = ?", (500, 3))
        # uncommitted write is invisible at every isolation level
        for reader in readers:
            assert reader.execute(
                "SELECT v FROM kv WHERE k = 3").scalar() == 30
        writer.rollback()
        for reader in readers:
            assert reader.execute(
                "SELECT v FROM kv WHERE k = 3").scalar() == 30

    def test_first_committer_wins_across_sessions(self):
        db = _kv_db()
        a = db.connect(IsolationLevel.SNAPSHOT)
        b = db.connect(IsolationLevel.SNAPSHOT)
        a.begin()
        b.begin()
        a.execute("UPDATE kv SET v = ? WHERE k = ?", (1, 4))
        b.execute("UPDATE kv SET v = ? WHERE k = ?", (2, 4))
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()

    def test_snapshot_ts_tracks_transaction_lifecycle(self):
        db = _kv_db()
        conn = db.connect(IsolationLevel.SNAPSHOT)
        assert not conn.in_transaction
        txn = conn.begin()
        first = txn.read_ts
        assert first is not None
        other = db.connect()
        other.execute("UPDATE kv SET v = ? WHERE k = ?", (0, 5))
        assert txn.read_ts == first  # pinned for the transaction
        conn.commit()
        assert not conn.in_transaction


class TestTimestampAllocation:
    def test_commit_timestamps_strictly_increase(self):
        db = _kv_db()
        seen = []
        for i in range(50):
            with db.connect() as conn:
                txn = conn.begin()
                conn.execute("UPDATE kv SET v = ? WHERE k = 1", (i,))
                conn.commit()
            seen.append(txn.commit_ts)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        assert seen[-1] == db.txn_manager.current_ts()

    def test_commit_lock_serialises_installs(self):
        db = _kv_db()
        manager = db.txn_manager
        held = threading.Event()
        installed = []
        before = manager.current_ts()
        manager._commit_lock.acquire()

        def contend():
            held.set()
            installed.append(db.bulk_load("kv", [(6, 60)]))

        worker = threading.Thread(target=contend)
        worker.start()
        assert held.wait(timeout=10)
        # the worker waits on the held section instead of installing past
        # it, and nothing is published meanwhile
        worker.join(timeout=0.05)
        assert worker.is_alive() and not installed
        assert manager.current_ts() == before
        manager._commit_lock.release()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert installed == [1]
        assert manager.current_ts() == before + 1


class TestPlanCacheCounters:
    @mock.patch.object(database, "PLAN_CACHE_SIZE", 2)
    def test_eviction_counter_flows_to_stats(self):
        db = _kv_db()
        db.query("SELECT v FROM kv WHERE k = 1")
        db.query("SELECT k FROM kv WHERE v = 10")
        result = db.query("SELECT k, v FROM kv WHERE k = 2")
        # the loader's INSERT plan was the first eviction, this the second
        assert db.plan_cache_evictions == 2
        assert result.stats.plan_cache_evictions == 1
        assert result.stats.plan_cache_misses == 1

    def test_plan_cache_lock_serialises_prepare(self):
        db = _kv_db()
        held = threading.Event()
        plans = []
        db._plan_cache_lock.acquire()

        def contend():
            held.set()
            plans.append(db.prepare("SELECT v FROM kv WHERE k = 3"))

        worker = threading.Thread(target=contend)
        worker.start()
        held.wait()
        # the worker waits on the held lock instead of reading the LRU
        worker.join(timeout=0.05)
        assert worker.is_alive() and not plans
        db._plan_cache_lock.release()
        worker.join()
        assert plans == [db.prepare("SELECT v FROM kv WHERE k = 3")]


class TestAdmissionController:
    def test_full_olap_queue_still_admits_commits(self):
        controller = AdmissionController(
            AdmissionPolicy(olap_slots=2))
        for _ in range(2):
            ticket = controller.request("olap", 0.0)
            assert ticket is not None
            controller.occupy(ticket, completion=1000.0)
        assert controller.request("olap", 1.0) is None
        # the transactional queue is independent: commits keep flowing
        oltp = controller.request("oltp", 1.0)
        assert oltp is not None
        assert controller.stats.deferred == {"oltp": 0, "olap": 1}

    def test_slots_free_at_completion_time(self):
        controller = AdmissionController(AdmissionPolicy(olap_slots=1))
        ticket = controller.request("olap", 0.0)
        controller.occupy(ticket, completion=100.0)
        assert controller.request("olap", 50.0) is None
        assert controller.request("olap", 100.0) is not None

    def test_backoff_grows_and_caps(self):
        rng = Random(1)
        waits = [admission.backoff_for(n, rng) for n in (1, 2, 3, 10)]
        assert admission.BACKOFF_MS * 0.75 <= waits[0] \
            <= admission.BACKOFF_MS * 1.25
        # jitter is +-25 %, so each doubling still grows the wait
        assert waits[0] < waits[1] < waits[2]
        assert all(w <= admission.BACKOFF_CAP_MS * 1.25 for w in waits)
        assert waits[3] >= admission.BACKOFF_CAP_MS * 0.75

    def test_disabled_policy_admits_everything(self):
        controller = AdmissionController(AdmissionPolicy.disabled())
        for i in range(50):
            ticket = controller.request("olap", 0.0)
            assert ticket is not None
            controller.occupy(ticket, completion=1e9)
        assert controller.stats.admitted["olap"] == 50


class TestServerRuns:
    @staticmethod
    def _server(policy=None, **engine_kwargs):
        engine = make_engine("oceanbase", nodes=2, cores_per_node=2,
                             **engine_kwargs)
        workload = make_workload("chbenchmark", scale=0.1)
        workload.install(engine.db, Random(7), 0.1)
        return Server(engine, policy), workload

    def test_mixed_population_shapes_clients(self):
        workload = make_workload("chbenchmark", scale=0.1)
        weights = {"Q1": 1.0}
        clients = mixed_population(workload, 3, 2, olap_weights=weights)
        assert [c.name for c in clients] == [
            "oltp-0", "oltp-1", "oltp-2", "olap-0", "olap-1"]
        oltp = [c for c in clients if c.kind == "oltp"]
        olap = [c for c in clients if c.kind == "olap"]
        oltp_names = [p.name for p in workload.oltp_transactions()]
        olap_names = [p.name for p in workload.analytical_queries()]
        assert all([p.name for p in c.profiles] == oltp_names
                   and c.weights is None for c in oltp)
        # only the analytical clients carry the weight overrides
        assert all([p.name for p in c.profiles] == olap_names
                   and c.weights == weights for c in olap)

    def test_empty_population_rejected(self):
        workload = make_workload("chbenchmark", scale=0.1)
        with pytest.raises(ConfigError):
            mixed_population(workload, 0, 0)
        engine = make_engine("oceanbase", nodes=2, cores_per_node=2)
        with pytest.raises(ConfigError):
            Server(engine).run([], duration_ms=100)

    def test_deterministic_given_seed(self):
        reports = []
        for _ in range(2):
            server, workload = self._server()
            clients = mixed_population(workload, 4, 0)
            reports.append(server.run(clients, duration_ms=400, seed=5,
                                      workload_name=workload.name))
        first, second = reports
        assert (first.metrics("oltp").latency.samples
                == second.metrics("oltp").latency.samples)
        assert ({name: c.samples for name, c in first.per_transaction.items()}
                == {name: c.samples
                    for name, c in second.per_transaction.items()})
        assert first.admission == second.admission
        assert first.admission["admitted"]["oltp"] > 0

    def test_flood_defers_and_counts_backoff(self):
        server, workload = self._server(
            AdmissionPolicy(olap_slots=1))
        weights = {q.name: 1.0 if q.name in ("Q1", "Q6") else 0.0
                   for q in workload.analytical_queries()}
        clients = mixed_population(workload, 4, 4, olap_weights=weights)
        report = server.run(clients, duration_ms=1500, seed=3,
                            workload_name=workload.name)
        adm = report.admission
        assert adm["deferred"]["olap"] > 0
        assert adm["admitted"]["olap"] > 0
        # the transactional class has no slot bound: no commit waits
        assert adm["deferred"]["oltp"] == 0
        # OLTP commits keep flowing while the analytical queue is full
        assert report.metrics("oltp").completed > 0

    def test_admission_cuts_tail_under_flood(self):
        results = {}
        for label, policy in [
            ("off", AdmissionPolicy.disabled()),
            ("on", AdmissionPolicy(olap_slots=1)),
        ]:
            server, workload = self._server(policy)
            weights = {q.name: 1.0 if q.name in ("Q1", "Q6") else 0.0
                       for q in workload.analytical_queries()}
            clients = mixed_population(workload, 8, 4, olap_weights=weights)
            report = server.run(clients, duration_ms=2000, warmup_ms=500,
                                seed=11, workload_name=workload.name)
            results[label] = report.latency("oltp").p99
        assert results["off"] > results["on"]


class TestSequentialParity:
    """An analytical client of the session server runs on its own
    connection routed columnar; it must return byte-identical query
    results to the sequential runner's row pipeline on every original
    workload."""

    @pytest.mark.parametrize("workload_name,scale", [
        ("subenchmark", 0.2),
        ("fibenchmark", 0.2),
        ("tabenchmark", 0.2),
    ])
    def test_server_matches_sequential_runner(self, workload_name, scale):
        db = Database(with_columnar=True, partitions=2)
        workload = make_workload(workload_name, scale=scale)
        workload.install(db, Random(7), scale)
        queries = workload.analytical_queries()
        sequential = query_results(Session(db.connect()), queries)
        via_server = query_results(
            Session(db.connect(), route_columnar=True), queries)
        assert sequential == via_server
