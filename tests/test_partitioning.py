"""Hash-partitioned storage: routing, pruning counters, commit atomicity,
WAL compaction, and cross-partition-count result parity."""

from random import Random

import pytest

from repro.core.session import Session, run_transaction
from repro.db import Database
from repro.engines import make_engine
from repro.errors import WriteConflictError
from repro.server import query_results
from repro.storage import PartitionMap, stable_hash
from repro.workloads import make_workload


def _make_db(partitions: int, with_columnar: bool = True) -> Database:
    return Database(with_columnar=with_columnar,
                    columnar_segment_rows=128, partitions=partitions)


def _load_points(db: Database, n: int = 64):
    db.execute_ddl("CREATE TABLE p (id INT PRIMARY KEY, grp INT, v FLOAT)")
    db.bulk_load("p", [(i, i % 4, i * 1.5) for i in range(n)])
    db.replicate()


class TestPartitionMap:
    def test_stable_and_in_range(self):
        pmap = PartitionMap(8)
        for value in (0, 7, 12345, "abc", 3.25, None, ("a", 1)):
            pid = pmap.partition_of_value(value)
            assert 0 <= pid < 8
            assert pid == pmap.partition_of_value(value)  # deterministic

    def test_numeric_equivalence(self):
        pmap = PartitionMap(8)
        assert pmap.partition_of_value(5) == pmap.partition_of_value(5.0)

    def test_pk_routing_uses_first_column(self):
        pmap = PartitionMap(8)
        assert pmap.partition_of_pk((3, 99)) == pmap.partition_of_value(3)

    def test_integer_keys_round_robin(self):
        pmap = PartitionMap(4)
        assert [pmap.partition_of_value(i) for i in range(8)] == \
            [0, 1, 2, 3, 0, 1, 2, 3]

    def test_string_hash_is_process_stable(self):
        # CRC32-based, not Python's per-process salted str hash
        import zlib

        assert stable_hash("warehouse-1") == zlib.crc32(b"warehouse-1")
        assert PartitionMap(1).partition_of_value("anything") == 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PartitionMap(0)


class TestPartitionedRowStore:
    def test_rows_route_to_hash_shard(self):
        db = _make_db(4, with_columnar=False)
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.bulk_load("t", [(i, i) for i in range(16)])
        wals = db.storage.wals
        assert [len(wal) for wal in wals] == [4, 4, 4, 4]
        for i in range(16):
            records = wals[db.partition_map.partition_of_value(i)].read_from(0)
            assert (i,) in [record.pk for record in records]

    def test_scan_order_matches_unpartitioned(self):
        rows = [(i * 3 % 17, i % 4) for i in range(17)]  # scrambled pks
        dbs = [_make_db(p, with_columnar=False) for p in (1, 8)]
        outputs = []
        for db in dbs:
            db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            db.execute_ddl("CREATE INDEX ib ON t (b)")
            db.bulk_load("t", rows)
            scan = db.query("SELECT a, b FROM t").rows
            by_index = db.query("SELECT a FROM t WHERE b = ?", (1,)).rows
            with db.connect() as conn:
                conn.execute("UPDATE t SET b = b + a WHERE b = ?", (2,))
                conn.commit()
            outputs.append((scan, by_index,
                            db.query("SELECT a, b FROM t").rows))
        # scan order, unordered index-scan order and the state after an
        # UPDATE through the index are independent of the partition count
        assert outputs[0] == outputs[1]
        _scan, by_index, final = outputs[0]
        assert sorted(by_index) == sorted((a,) for a, b in rows if b == 1)
        assert dict(final) == {a: b + a if b == 2 else b for a, b in rows}

    def test_secondary_index_scatters_across_shards(self):
        db = _make_db(4, with_columnar=False)
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.execute_ddl("CREATE INDEX ib ON t (b)")
        db.bulk_load("t", [(i, i % 3) for i in range(12)])
        idx = db.storage.store("t").index("ib")
        assert idx.lookup((0,)) == {(0,), (3,), (6,), (9,)}  # 4 partitions
        result = db.query("SELECT a FROM t WHERE b = ?", (0,))
        assert sorted(result.rows) == [(0,), (3,), (6,), (9,)]
        # a secondary-index key says nothing about placement: every
        # partition is charged, none pruned
        assert result.stats.partitions_scanned == 4
        assert result.stats.partitions_pruned == 0

    def test_pk_prefix_scan_single_shard(self):
        db = _make_db(4, with_columnar=False)
        db.execute_ddl(
            "CREATE TABLE c (a INT, b INT, v INT, PRIMARY KEY (a, b))")
        db.bulk_load("c", [(a, b, a * b) for a in range(4) for b in range(4)])
        result = db.query("SELECT v FROM c WHERE a = ?", (2,))
        assert len(result.rows) == 4
        assert result.stats.partitions_scanned == 1
        assert result.stats.partitions_pruned == 3


class TestPartitionPruningCounters:
    def test_pk_equality_prunes_to_one_partition(self):
        db = _make_db(8)
        _load_points(db)
        result = db.query("SELECT v FROM p WHERE id = ?", (11,))
        assert result.rows == [(16.5,)]
        assert result.stats.partitions_scanned == 1
        assert result.stats.partitions_pruned == 7

    def test_full_scan_reads_every_partition(self):
        db = _make_db(8)
        _load_points(db)
        result = db.query("SELECT COUNT(*) FROM p")
        assert result.scalar() == 64
        assert result.stats.partitions_scanned == 8
        assert result.stats.partitions_pruned == 0

    def test_columnar_scan_prunes_on_partition_key_equality(self):
        db = _make_db(8)
        _load_points(db)
        with db.connect() as conn:
            result = conn.execute("SELECT COUNT(*) FROM p WHERE id = ?",
                                  (11,), route_columnar=True)
            conn.commit()
        # the row plan wins for PK equality, which still binds one partition
        assert result.stats.partitions_scanned == 1
        assert result.stats.partitions_pruned == 7

    def test_columnar_scatter_records_fanout(self):
        db = _make_db(8)
        _load_points(db, n=512)
        with db.connect() as conn:
            result = conn.execute(
                "SELECT grp, SUM(v) FROM p GROUP BY grp ORDER BY grp",
                route_columnar=True)
            conn.commit()
        assert result.stats.vectorized
        assert result.stats.partitions_scanned == 8
        assert result.stats.scatter_partitions == 8

    def test_zone_maps_prune_within_partitions(self):
        db = _make_db(4)
        _load_points(db, n=2048)  # several segments per partition
        with db.connect() as conn:
            result = conn.execute(
                "SELECT COUNT(*) FROM p WHERE v BETWEEN ? AND ?",
                (0.0, 10.0), route_columnar=True)
            conn.commit()
        assert result.scalar() == 7
        assert result.stats.segments_pruned > 0

    def test_partitions_one_counts_stay_trivial(self):
        db = _make_db(1)
        _load_points(db)
        result = db.query("SELECT v FROM p WHERE id = ?", (3,))
        assert result.stats.partitions_scanned == 1
        assert result.stats.partitions_pruned == 0


class TestMultiPartitionCommits:
    def _db(self) -> Database:
        db = _make_db(8, with_columnar=False)
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        return db

    def test_commit_classification(self):
        db = self._db()
        manager = db.txn_manager
        with db.connect() as conn:
            conn.begin()
            conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (0, 0))
            conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (8, 0))
            conn.commit()  # 0 and 8 hash to the same partition
        assert (manager.single_partition_commits,
                manager.multi_partition_commits) == (1, 0)
        with db.connect() as conn:
            conn.begin()
            txn = conn._txn
            conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (1, 0))
            conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (2, 0))
            conn.commit()
        assert manager.multi_partition_commits == 1
        assert txn.commit_partitions == (1, 2)

    def test_multi_partition_commit_shares_one_commit_ts(self):
        db = self._db()
        with db.connect() as conn:
            conn.begin()
            for a in range(8):
                conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (a, a))
            conn.commit()
        store = db.storage.store("t")
        commit_tss = {
            store.latest_committed((a,)).begin_ts for a in range(8)
        }
        assert len(commit_tss) == 1  # atomic: all partitions, one timestamp

    def test_rollback_leaves_no_trace_in_any_partition(self):
        db = self._db()
        heads = [w.head_lsn for w in db.storage.wals]
        with db.connect() as conn:
            conn.begin()
            for a in range(8):
                conn.execute("INSERT INTO t (a, b) VALUES (?, ?)", (a, a))
            conn.rollback()
        assert db.storage.store("t").row_count == 0
        assert db.storage.store("t").version_count() == 0
        assert [w.head_lsn for w in db.storage.wals] == heads
        assert db.txn_manager.single_partition_commits == 0
        assert db.txn_manager.multi_partition_commits == 0

    def test_conflict_abort_is_atomic_across_partitions(self):
        db = self._db()
        db.bulk_load("t", [(a, 0) for a in range(4)])
        first = db.connect()
        second = db.connect()
        first.begin()
        second.begin()
        # both update rows in two different partitions
        first.execute("UPDATE t SET b = 1 WHERE a = ?", (0,))
        first.execute("UPDATE t SET b = 1 WHERE a = ?", (1,))
        second.execute("UPDATE t SET b = 2 WHERE a = ?", (1,))
        second.execute("UPDATE t SET b = 2 WHERE a = ?", (2,))
        first.commit()
        with pytest.raises(WriteConflictError):
            second.commit()
        rows = dict((a, b) for a, b in db.query("SELECT a, b FROM t").rows)
        # nothing of the aborted transaction reached any partition
        assert rows == {0: 1, 1: 1, 2: 0, 3: 0}


class TestWALTruncation:
    def test_truncate_keeps_head_lsn_stable(self):
        db = _make_db(1)
        _load_points(db, n=32)  # install + replicate truncates
        wal = db.storage.wals[0]
        assert wal.head_lsn == 32
        assert len(wal) == 0  # fully compacted
        assert db.replication_lag() == 0
        with pytest.raises(ValueError):
            wal.read_from(0)  # the applied prefix is gone

    def test_piecemeal_replication_truncates_incrementally(self):
        db = _make_db(4)
        db.execute_ddl("CREATE TABLE p (id INT PRIMARY KEY, grp INT, v FLOAT)")
        db.bulk_load("p", [(i, i % 4, float(i)) for i in range(40)])
        assert db.replication_lag() == 40
        assert db.replicate(limit=10) == 10
        assert db.replication_lag() == 30
        retained = sum(len(w) for w in db.storage.wals)
        assert retained == 30  # the applied prefix was reclaimed
        assert db.replicate() == 30
        assert sum(len(w) for w in db.storage.wals) == 0
        assert db.storage.wal_head == 40  # stable across truncation

    def test_appends_after_truncation_keep_dense_lsns(self):
        db = _make_db(1)
        _load_points(db, n=8)
        db.query("INSERT INTO p (id, grp, v) VALUES (?, ?, ?)", (100, 0, 1.0))
        wal = db.storage.wals[0]
        assert wal.head_lsn == 9
        assert [r.lsn for r in wal.read_from(8)] == [8]
        assert db.replicate() == 1


def _install(workload_name: str, partitions: int, seed: int = 7):
    db = Database(with_columnar=True, columnar_segment_rows=256,
                  partitions=partitions)
    workload = make_workload(workload_name)
    workload.install(db, Random(seed), 0.05, with_foreign_keys=False)
    return db, workload


def _mutate(db: Database, workload, rounds: int = 2, seed: int = 13):
    rng = Random(seed)
    with db.connect() as conn:
        for profile in workload.oltp_transactions() * rounds:
            run_transaction(conn, "oltp", profile.name, profile.program, rng)


def _analytical_outputs(db: Database, workload, seed: int = 17):
    """Run the full analytical set routed columnar; returns raw results."""
    with db.connect() as conn:
        return query_results(Session(conn, True),
                             workload.analytical_queries(), seed)


@pytest.mark.parametrize("workload_name", [
    "subenchmark", "fibenchmark", "tabenchmark",
])
class TestAnalyticalParityAcrossPartitionCounts:
    """The full analytical sets must be byte-identical for any partition
    count, both fully replicated and mid-replication (same applied prefix)."""

    def test_parity_full_and_under_replication_lag(self, workload_name):
        builds = [_install(workload_name, p) for p in (1, 2, 8)]
        for db, workload in builds:
            _mutate(db, workload)
        lags = [db.replication_lag() for db, _ in builds]
        assert lags[0] == lags[1] == lags[2]

        if lags[0] > 1:
            # apply the same partial prefix everywhere: the seq-merge makes
            # the replica state identical to the single-stream apply order
            for db, _ in builds:
                db.replicate(limit=lags[0] // 2)
            partial = [_analytical_outputs(db, w) for db, w in builds]
            assert partial[1] == partial[0]
            assert partial[2] == partial[0]

        for db, _ in builds:
            db.replicate()
            assert db.replication_lag() == 0
        full = [_analytical_outputs(db, w) for db, w in builds]
        assert full[1] == full[0]
        assert full[2] == full[0]

    def test_row_pipeline_parity(self, workload_name):
        builds = [_install(workload_name, p) for p in (1, 8)]
        for db, _ in builds:
            db.replicate()
            db.executor.use_vectorized = False
        outputs = [_analytical_outputs(db, w) for db, w in builds]
        assert outputs[1] == outputs[0]


class TestEnginePartitioning:
    def test_engine_defaults_one_partition_per_node(self):
        engine = make_engine("tidb", nodes=8)
        assert engine.partitions == 8
        assert engine.db.partitions == 8
        assert {engine.partition_node(pid)
                for pid in range(engine.partitions)} <= \
            set(range(engine.oltp_nodes()))

    def test_partition_count_override(self):
        engine = make_engine("oceanbase", nodes=4, partitions=16)
        assert engine.db.partitions == 16
        # 16 partitions round-robin over the 4 observer nodes
        assert engine.partition_node(5) == 1

    def test_multi_partition_commit_pays_coordination_hops(self):
        from repro.sim.work import WorkResult

        engine = make_engine("oceanbase", nodes=4)
        local = WorkResult(kind="oltp", name="x", n_statements=1,
                           commit_partitions=(0,))
        distributed = WorkResult(kind="oltp", name="x", n_statements=1,
                                 commit_partitions=(0, 1, 2))
        assert engine.commit_participant_nodes(local) == 1
        assert engine.commit_participant_nodes(distributed) == 3
        assert engine._network_hops(distributed, False) == \
            engine._network_hops(local, False) + 2

    def test_scatter_gather_divides_columnar_demand(self):
        from repro.sim.work import WorkResult
        from repro.sql.result import ExecStats

        engine = make_engine("tidb", nodes=16)
        stats = ExecStats()
        # big enough that scan time rivals the fixed TiSpark dispatch cost
        stats.rows_columnar["ORDER_LINE"] = 1_000_000
        stats.agg_input_rows = 1_000_000
        stats.used_columnar = True
        stats.scatter_partitions = 16
        work = WorkResult(kind="olap", name="q", stats=stats, n_statements=1)
        parallel = engine._columnar_parallelism(work, columnar=True)
        assert parallel == engine.groups["columnar"].nodes  # node-bounded
        serial_cost = engine.cost.transaction_cost(stats, 1).cpu
        parallel_cost = engine.cost.transaction_cost(
            stats, 1, columnar_parallelism=parallel).cpu
        assert parallel_cost < serial_cost
        speedup = serial_cost / parallel_cost
        assert speedup > 1.5  # measurable scatter-gather win
