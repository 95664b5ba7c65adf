"""Freshness of the simulated replication pipeline: the replica's lag in
log records, and TiDB's freshness gate for columnar routing."""

import pytest

from repro.engines import MemSQLCluster, TiDBCluster


@pytest.fixture
def engine():
    cluster = TiDBCluster(nodes=4)
    cluster.db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    cluster.reset_sim()
    return cluster


def lag_records(engine) -> float:
    return engine.replication.lag(engine.db.storage.wal_head)


class TestLag:
    def test_engine_without_replica_has_no_lag(self):
        assert MemSQLCluster(nodes=4).replication is None

    def test_writes_create_lag(self, engine):
        assert lag_records(engine) == 0.0
        engine.db.bulk_load("t", ((i, i) for i in range(500)))
        assert lag_records(engine) == 500.0

    def test_lag_drains_over_time(self, engine):
        engine.db.bulk_load("t", ((i, i) for i in range(500)))
        engine.tick(1000.0)  # 1000 ms x 0.15 records/ms = 150 applied
        assert lag_records(engine) == pytest.approx(350.0)


class TestProbe:
    def test_probe_records_eligibility_transitions(self, engine):
        assert engine.route_analytical(0.0)
        engine.db.bulk_load("t", ((i, i) for i in range(10_000)))
        assert not engine.route_analytical(1.0)
        assert lag_records(engine) >= 9000
