"""Simulated HTAP engines: construction, routing, accounting, scaling."""

import pytest

from repro.engines import (
    ENGINES,
    MemSQLCluster,
    OceanBaseCluster,
    TiDBCluster,
    make_engine,
)
from repro.errors import UnsupportedFeatureError
from repro.sim.work import WorkResult
from repro.sql.result import ExecStats
from repro.txn import IsolationLevel


def oltp_work(rows=10, writes=2, table="t"):
    stats = ExecStats()
    stats.rows_row_store[table] = rows
    stats.pk_lookups = rows
    stats.writes[table] = writes
    return WorkResult(kind="oltp", name="txn", stats=stats, n_statements=4,
                      write_keys=frozenset({(table, (1,)), (table, (2,))}))


def olap_work(rows=5000, table="t", columnar=False):
    stats = ExecStats()
    if columnar:
        stats.rows_columnar[table] = rows
    else:
        stats.rows_row_store[table] = rows
        stats.full_scans[table] = 1
    return WorkResult(kind="olap", name="q", stats=stats, n_statements=1)


@pytest.fixture
def tidb():
    engine = TiDBCluster(nodes=4)
    engine.db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    engine.db.bulk_load("t", ((i, i) for i in range(1000)))
    return engine


class TestFactory:
    def test_registry_contents(self):
        assert set(ENGINES) == {"tidb", "memsql", "oceanbase"}

    def test_make_engine(self):
        assert isinstance(make_engine("TiDB"), TiDBCluster)
        assert isinstance(make_engine("memsql"), MemSQLCluster)
        with pytest.raises(ValueError):
            make_engine("oracle")

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            TiDBCluster(nodes=1)


class TestEngineTraits:
    def test_tidb_traits(self):
        engine = TiDBCluster(nodes=4)
        info = engine.info()
        assert info.has_columnar_store
        assert info.supports_foreign_keys
        assert info.isolation is IsolationLevel.REPEATABLE_READ
        assert set(engine.groups) == {"row", "columnar"}

    def test_memsql_traits(self):
        engine = MemSQLCluster(nodes=4)
        info = engine.info()
        assert not info.has_columnar_store
        assert not info.supports_foreign_keys
        assert info.isolation is IsolationLevel.READ_COMMITTED
        assert set(engine.groups) == {"aggregator", "leaf"}

    def test_memsql_rejects_fk_ddl(self):
        engine = MemSQLCluster(nodes=4)
        engine.db.execute_ddl("CREATE TABLE p (a INT PRIMARY KEY)")
        with pytest.raises(UnsupportedFeatureError):
            engine.db.execute_ddl(
                "CREATE TABLE c (a INT PRIMARY KEY, "
                "FOREIGN KEY (a) REFERENCES p (a))")

    def test_oceanbase_traits(self):
        engine = OceanBaseCluster(nodes=4)
        assert set(engine.groups) == {"observer"}
        assert not engine.route_analytical(0.0)


class TestRouting:
    def test_tidb_routes_columnar_when_fresh(self, tidb):
        tidb.reset_sim()
        assert tidb.route_analytical(1.0)

    def test_tidb_falls_back_when_lagging(self, tidb):
        tidb.reset_sim()
        # generate WAL volume beyond the freshness limit with no time passing
        tidb.db.bulk_load("t", ((i, i) for i in range(1000, 1000 + 5000)))
        assert not tidb.route_analytical(0.0)

    def test_replication_catches_up_over_time(self, tidb):
        tidb.reset_sim()
        tidb.db.bulk_load("t", ((i, i) for i in range(10_000, 15_000)))
        assert not tidb.route_analytical(0.0)
        # after enough simulated time the replica catches up
        # (5000 records at 0.15 records/ms ~= 34 s)
        assert tidb.route_analytical(50_000.0)

    def test_memsql_never_routes_columnar(self):
        engine = MemSQLCluster(nodes=4)
        assert not engine.route_analytical(0.0)


class TestAccounting:
    def test_latency_has_service_and_network(self, tidb):
        tidb.reset_sim()
        breakdown = tidb.account(0.0, oltp_work())
        assert breakdown.service > 0
        assert breakdown.network > 0
        assert breakdown.total >= breakdown.service

    def test_queueing_appears_under_load(self, tidb):
        tidb.reset_sim()
        waits = [tidb.account(0.0, olap_work(rows=20_000)).queue_wait
                 for _ in range(200)]
        assert waits[0] == 0.0
        assert waits[-1] > 0.0

    def test_lock_wait_for_conflicting_writes(self, tidb):
        tidb.reset_sim()
        first = tidb.account(0.0, oltp_work())
        second = tidb.account(0.0, oltp_work())
        assert first.lock_wait == 0.0
        assert second.lock_wait > 0.0

    def test_columnar_olap_avoids_row_group(self, tidb):
        tidb.reset_sim()
        row_group = tidb.groups["row"]
        col_group = tidb.groups["columnar"]
        busy_before = row_group.busy_ms
        tidb.account(0.0, olap_work(rows=5000, columnar=True), columnar=True)
        assert row_group.busy_ms == busy_before
        assert col_group.busy_ms > 0

    def test_row_routed_olap_hits_row_group(self, tidb):
        tidb.reset_sim()
        busy_before = tidb.groups["row"].busy_ms
        tidb.account(0.0, olap_work(rows=5000), columnar=False)
        assert tidb.groups["row"].busy_ms > busy_before

    def test_memsql_hybrid_amplification(self):
        memsql = MemSQLCluster(nodes=4)
        tidb_engine = TiDBCluster(nodes=4)
        realtime = ExecStats()
        realtime.rows_joined = 5000
        realtime.join_ops = 3
        realtime.rows_row_store["t"] = 5000
        realtime.full_scans["t"] = 1

        def hybrid():
            return WorkResult(kind="hybrid", name="x", stats=ExecStats(),
                              realtime_stats=realtime, n_statements=3,
                              n_realtime_statements=1)
        memsql_latency = memsql.account(0.0, hybrid()).total
        tidb_latency = tidb_engine.account(0.0, hybrid()).total
        assert memsql_latency > 2 * tidb_latency

    def test_retries_add_penalty(self, tidb):
        tidb.reset_sim()
        clean = tidb.account(0.0, oltp_work()).service
        tidb.reset_sim()
        work = oltp_work()
        work.retries = 3
        assert tidb.account(0.0, work).service > clean

    def test_reset_sim_clears_queues_keeps_data(self, tidb):
        tidb.account(0.0, olap_work(rows=20_000))
        tidb.reset_sim()
        assert tidb.groups["row"].busy_ms == 0.0
        assert tidb.db.storage.store("t").row_count >= 1000
        assert tidb.account(0.0, oltp_work()).queue_wait == 0.0


class TestScaling:
    def test_tidb_scales_worse_than_oceanbase(self):
        tidb_4 = TiDBCluster(nodes=4)
        tidb_16 = TiDBCluster(nodes=16)
        ob_4 = OceanBaseCluster(nodes=4)
        ob_16 = OceanBaseCluster(nodes=16)
        tidb_growth = (tidb_16.cost.params.txn_overhead
                       / tidb_4.cost.params.txn_overhead)
        ob_growth = (ob_16.cost.params.txn_overhead
                     / ob_4.cost.params.txn_overhead)
        assert tidb_growth > ob_growth > 1.0

    def test_four_nodes_is_baseline(self):
        assert TiDBCluster(nodes=4).scaling_factor() == 1.0
        assert TiDBCluster(nodes=2).scaling_factor() == 1.0
