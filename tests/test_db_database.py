"""Database facade: DDL, connections, autocommit, FK enforcement, replication."""

from unittest import mock

import pytest

from repro.db import Database, database
from repro.errors import (
    CatalogError,
    ConnectionStateError,
    IntegrityError,
    SQLError,
    UnsupportedFeatureError,
)
from repro.txn import IsolationLevel


class TestDDL:
    def test_create_table_registers_everywhere(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        assert db.catalog.table("t").name == "t"
        assert db.storage.store("t") is not None
        assert len(db.columnar.table_partitions("t")) == db.partitions

    def test_drop_table(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        db.execute_ddl("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.catalog.table("t")

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_drop_and_recreate_leaves_no_replica_state(self, partitions,
                                                        routed):
        """DROP applies the table's pending WAL records and then removes
        the table from the replica, so a re-created table of the same name
        (a string column where an INT was) starts empty there too."""
        db = Database(with_columnar=True, partitions=partitions)
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT, "
                       "s VARCHAR(8))")
        for a in range(8):
            db.query("INSERT INTO t (a, b, s) VALUES (?, ?, ?)",
                     (a, a * 10, f"s{a}"))
        db.replicate()
        db.query("UPDATE t SET b = 0 WHERE a = 3")
        db.query("INSERT INTO t (a, b) VALUES (8, 80)")   # pending at DROP
        db.execute_ddl("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.columnar.table_partitions("t")
        assert db.columnar.encoding_stats()["shared_dicts_total"] == 0
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
        for a in (1, 8, 20):
            db.query("INSERT INTO t (a, b) VALUES (?, ?)", (a, f"v{a}"))
        db.replicate()
        sql = "SELECT a, b FROM t ORDER BY a"
        expected = [(1, "v1"), (8, "v8"), (20, "v20")]
        assert db.query(sql).rows == expected
        result = routed(db, sql)
        assert result.stats.vectorized and result.rows == expected
        assert routed(db, sql, vectorized=False).rows == expected
        # reset() rebuilds from the registrations: only the re-created table
        db.columnar.reset()
        part = db.columnar.table_partitions("t")[0]
        assert part.table is db.catalog.table("t")

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_recover_after_drop_and_recreate_replays_only_the_new_table(
            self, partitions, routed):
        """``recover()`` re-replicates the retained WAL from LSN 0: the
        dropped table's records are still in it under the same name, and
        the re-created table must not receive them."""
        db = Database(with_columnar=True, partitions=partitions,
                      retain_wal=True)
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        for a in range(5):
            db.query("INSERT INTO t (a, b) VALUES (?, ?)", (a, a * 10))
        db.replicate()
        db.execute_ddl("DROP TABLE t")
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8))")
        db.query("INSERT INTO t (a, b) VALUES (1, 'x')")
        db.recover()
        sql = "SELECT a, b FROM t ORDER BY a"
        expected = [(1, "x")]
        assert db.query(sql).rows == expected
        result = routed(db, sql)
        assert result.stats.vectorized and result.rows == expected
        assert routed(db, sql, vectorized=False).rows == expected

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_fk_table_keeps_its_own_dictionary_across_drops(self, partitions,
                                                            routed):
        """An FK string column encodes through its own dictionary, not the
        referenced column's: dropping and re-creating the referenced table
        leaves the FK table's sealed segments answering as before, and the
        replica counts the live tables' dictionaries only."""
        db = Database(with_columnar=True, partitions=partitions,
                      columnar_segment_rows=4)
        parent = "CREATE TABLE p (name VARCHAR(8) PRIMARY KEY)"
        db.run_script(parent + ";"
                      "CREATE TABLE c (id INT PRIMARY KEY, pname VARCHAR(8),"
                      " FOREIGN KEY (pname) REFERENCES p (name))")
        for name in ("x", "y", "z"):
            db.query("INSERT INTO p (name) VALUES (?)", (name,))
        for i in range(24):
            db.query("INSERT INTO c (id, pname) VALUES (?, ?)",
                     (i, "xyz"[i % 3]))
        db.replicate()
        db.columnar.compact(force=True)
        stats = db.columnar.encoding_stats
        assert stats()["shared_dicts_total"] == 2
        sql = "SELECT pname, COUNT(*) FROM c GROUP BY pname ORDER BY pname"
        expected = [("x", 8), ("y", 8), ("z", 8)]

        def answers():
            got = routed(db, sql)
            assert got.stats.vectorized and got.stats.segments_encoded > 0
            return got.rows == routed(db, sql, vectorized=False).rows \
                == expected

        assert answers()
        db.execute_ddl("DROP TABLE p")
        assert stats()["shared_dicts_total"] == 1
        assert answers()
        db.execute_ddl(parent)
        db.query("INSERT INTO p (name) VALUES ('w')")
        db.replicate()
        assert stats()["shared_dicts_total"] == 2
        assert answers()
        db.execute_ddl("DROP TABLE p")
        db.execute_ddl(parent)
        assert stats()["shared_dicts_total"] == 2
        assert answers()

    def test_create_index_backfills(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.query("INSERT INTO t (a, b) VALUES (1, 5)")
        db.execute_ddl("CREATE INDEX ib ON t (b)")
        result = db.query("SELECT a FROM t WHERE b = 5")
        assert result.rows == [(1,)]
        assert result.stats.index_lookups == 1

    def test_non_ddl_rejected(self, db):
        with pytest.raises(SQLError):
            db.execute_ddl("SELECT 1")

    def test_fk_rejected_when_unsupported(self):
        memsql_like = Database(supports_foreign_keys=False)
        memsql_like.execute_ddl("CREATE TABLE p (a INT PRIMARY KEY)")
        with pytest.raises(UnsupportedFeatureError):
            memsql_like.execute_ddl(
                "CREATE TABLE c (a INT PRIMARY KEY, "
                "FOREIGN KEY (a) REFERENCES p (a))")

    def test_run_script_splits_statements(self, db):
        db.run_script("""
        CREATE TABLE a (x INT PRIMARY KEY);
        CREATE TABLE b (y INT PRIMARY KEY);
        """)
        assert [t.name for t in db.catalog.tables()] == ["a", "b"]


class TestForeignKeyEnforcement:
    @pytest.fixture
    def fk_db(self):
        database = Database(enforce_foreign_keys=True)
        database.run_script("""
        CREATE TABLE parent (id INT PRIMARY KEY, v INT);
        CREATE TABLE child (
            id INT PRIMARY KEY, pid INT,
            FOREIGN KEY (pid) REFERENCES parent (id)
        )
        """)
        database.query("INSERT INTO parent (id, v) VALUES (1, 10)")
        return database

    def test_valid_reference_accepted(self, fk_db):
        fk_db.query("INSERT INTO child (id, pid) VALUES (1, 1)")

    def test_dangling_reference_rejected(self, fk_db):
        with pytest.raises(IntegrityError):
            fk_db.query("INSERT INTO child (id, pid) VALUES (2, 99)")

    def test_null_fk_allowed(self, fk_db):
        fk_db.query("INSERT INTO child (id, pid) VALUES (3, NULL)")


class TestConnections:
    def test_autocommit_per_statement(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        with db.connect() as conn:
            conn.execute("INSERT INTO t (a) VALUES (1)")
            assert not conn.in_transaction  # autocommitted
        assert db.query("SELECT COUNT(*) FROM t").scalar() == 1

    def test_explicit_transaction_rollback(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        with db.connect() as conn:
            conn.begin()
            conn.execute("INSERT INTO t (a) VALUES (1)")
            conn.rollback()
        assert db.query("SELECT COUNT(*) FROM t").scalar() == 0

    def test_context_manager_rolls_back_on_error(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        with pytest.raises(RuntimeError):
            with db.connect() as conn:
                conn.begin()
                conn.execute("INSERT INTO t (a) VALUES (1)")
                raise RuntimeError("boom")
        assert db.query("SELECT COUNT(*) FROM t").scalar() == 0

    def test_double_begin_rejected(self, db):
        with db.connect() as conn:
            conn.begin()
            with pytest.raises(ConnectionStateError):
                conn.begin()

    def test_closed_connection_rejects_execute(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        conn = db.connect()
        conn.close()
        with pytest.raises(ConnectionStateError):
            conn.execute("SELECT 1")

    def test_autocommit_rolls_back_failed_statement(self, db):
        db.execute_ddl("CREATE TABLE t (a INT NOT NULL PRIMARY KEY)")
        with db.connect() as conn:
            with pytest.raises(IntegrityError):
                conn.execute("INSERT INTO t (a) VALUES (NULL)")
            assert not conn.in_transaction

    def test_isolation_override(self, db):
        conn = db.connect(isolation=IsolationLevel.READ_COMMITTED)
        assert conn.isolation is IsolationLevel.READ_COMMITTED


class TestBulkLoadAndReplication:
    def test_bulk_load_round_trip(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        loaded = db.bulk_load("t", ((i, i * 2) for i in range(100)))
        assert loaded == 100
        assert db.query("SELECT COUNT(*), SUM(b) FROM t").first() == (100, 9900)

    def test_bulk_load_width_mismatch(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        with pytest.raises(SQLError):
            db.bulk_load("t", [(1,)])

    def test_replication_lag_and_catchup(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        db.bulk_load("t", ((i,) for i in range(10)))
        assert db.replication_lag() == 10
        assert db.replicate() == 10
        assert db.replication_lag() == 0

    def test_columnar_scan_serves_routed_queries(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.bulk_load("t", ((i, i) for i in range(50)))
        db.replicate()
        with db.connect() as conn:
            result = conn.execute("SELECT SUM(b) FROM t",
                                  route_columnar=True)
            assert result.scalar() == 1225
            assert result.stats.used_columnar
            assert result.stats.rows_columnar["t"] == 50

    def test_columnar_freshness_is_replication_bound(self, db):
        """Rows not yet replicated are invisible to columnar scans."""
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        db.bulk_load("t", ((i,) for i in range(10)))
        db.replicate()
        db.bulk_load("t", ((i,) for i in range(10, 20)))  # not replicated
        with db.connect() as conn:
            stale = conn.execute("SELECT COUNT(*) FROM t",
                                 route_columnar=True).scalar()
            fresh = conn.execute("SELECT COUNT(*) FROM t").scalar()
        assert stale == 10
        assert fresh == 20

    def test_plan_cache_reused(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        p1 = db.prepare("SELECT a FROM t WHERE a = ?")
        p2 = db.prepare("SELECT a FROM t WHERE a = ?")
        assert p1 is p2

    def test_plan_cache_cleared_on_ddl(self, db):
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        p1 = db.prepare("SELECT a FROM t WHERE a = ?")
        db.execute_ddl("CREATE TABLE u (b INT PRIMARY KEY)")
        p2 = db.prepare("SELECT a FROM t WHERE a = ?")
        assert p1 is not p2


class TestPlanCacheLRU:
    @mock.patch.object(database, "PLAN_CACHE_SIZE", 4)
    def test_capacity_bound_evicts_lru(self):
        db = Database()
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        statements = [f"SELECT a FROM t WHERE a = {i}" for i in range(6)]
        plans = [db.prepare(sql) for sql in statements]
        # cache holds the last 4 only
        assert len(db._plan_cache) == 4
        assert statements[0] not in db._plan_cache
        assert statements[1] not in db._plan_cache
        # re-preparing an evicted statement is a miss (new plan object)
        assert db.prepare(statements[0]) is not plans[0]
        # a cached statement is a hit (same plan object)
        assert db.prepare(statements[5]) is plans[5]

    @mock.patch.object(database, "PLAN_CACHE_SIZE", 2)
    def test_hit_refreshes_recency(self):
        db = Database()
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        first = db.prepare("SELECT a FROM t WHERE a = 1")
        db.prepare("SELECT a FROM t WHERE a = 2")
        # touch the first again, then insert a third: the second evicts
        assert db.prepare("SELECT a FROM t WHERE a = 1") is first
        db.prepare("SELECT a FROM t WHERE a = 3")
        assert db.prepare("SELECT a FROM t WHERE a = 1") is first
        assert "SELECT a FROM t WHERE a = 2" not in db._plan_cache

    def test_capacity_is_the_module_constant(self):
        # no constructor option sizes the cache: the LRU holds
        # PLAN_CACHE_SIZE plans, and the next statement evicts the oldest
        with pytest.raises(TypeError):
            Database(plan_cache_size=4)
        db = Database()
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        statements = [f"SELECT a FROM t WHERE a = {i}"
                      for i in range(database.PLAN_CACHE_SIZE + 1)]
        for sql in statements:
            db.prepare(sql)
        assert len(db._plan_cache) == database.PLAN_CACHE_SIZE
        assert statements[0] not in db._plan_cache
        assert db.plan_cache_evictions == 1

    def test_hit_miss_counters_database_and_stats(self):
        db = Database()
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        with db.connect() as conn:
            miss = conn.execute("SELECT COUNT(*) FROM t")
            hit = conn.execute("SELECT COUNT(*) FROM t")
        assert miss.stats.plan_cache_misses == 1
        assert miss.stats.plan_cache_hits == 0
        assert hit.stats.plan_cache_hits == 1
        assert hit.stats.plan_cache_misses == 0
        assert db.plan_cache_misses >= 1
        assert db.plan_cache_hits >= 1

    def test_one_engine_so_plans_are_cached_under_their_sql(self):
        # there is one columnar engine: no constructor switch selects
        # another, so nothing but the statement text can key a plan
        for flag in ("columnar_encoding", "sorted_compaction",
                     "shared_dicts", "segment_sketches"):
            with pytest.raises(TypeError):
                Database(with_columnar=True, **{flag: False})
        db = Database(with_columnar=True)
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        sql = "SELECT a FROM t ORDER BY a"
        plan = db.prepare(sql)
        assert list(db._plan_cache) == [sql]
        assert db._plan_cache[sql] is plan
