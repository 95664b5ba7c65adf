"""Freshness analysis over the simulated replication pipeline."""

import pytest

from repro.analysis.freshness import (
    FreshnessProbe,
    replication_lag_records,
    staleness_ms,
)
from repro.engines import MemSQLCluster, TiDBCluster


@pytest.fixture
def engine():
    cluster = TiDBCluster(nodes=4)
    cluster.db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    cluster.reset_sim()
    return cluster


class TestStaleness:
    def test_zero_lag_is_fresh(self):
        assert staleness_ms(0, 1.0) == 0.0

    def test_staleness_scales_with_lag(self):
        assert staleness_ms(100, 1.0) == pytest.approx(100.0)
        assert staleness_ms(100, 2.0) == pytest.approx(50.0)

    def test_no_writes_infinite_staleness(self):
        assert staleness_ms(10, 0.0) == float("inf")


class TestLag:
    def test_engine_without_replica_has_no_lag(self):
        memsql = MemSQLCluster(nodes=4)
        assert replication_lag_records(memsql) == 0.0

    def test_writes_create_lag(self, engine):
        assert replication_lag_records(engine) == 0.0
        engine.db.bulk_load("t", ((i, i) for i in range(500)))
        assert replication_lag_records(engine) == 500.0

    def test_lag_drains_over_time(self, engine):
        engine.db.bulk_load("t", ((i, i) for i in range(500)))
        engine.tick(1000.0)  # 1000 ms x 0.15 records/ms = 150 applied
        assert replication_lag_records(engine) == pytest.approx(350.0)


class TestProbe:
    def test_probe_records_eligibility_transitions(self, engine):
        probe = FreshnessProbe(engine)
        first = probe.sample(0.0)
        assert first.columnar_eligible
        engine.db.bulk_load("t", ((i, i) for i in range(10_000)))
        second = probe.sample(1.0)
        assert not second.columnar_eligible
        assert max(s.lag_records for s in probe.samples) >= 9000
        assert [s.columnar_eligible for s in probe.samples] == [True, False]
