"""Deterministic fault injection: failpoint mechanics, crash-consistent
recovery (WAL torn tails, replica rebuild, atomic compaction, 2PC prepare
aborts), absorbed compaction faults, and graceful query degradation —
capped by a crash-at-every-failpoint sweep asserting byte parity against
an uncrashed run across three workloads and partition counts {1, 2, 8}."""

from random import Random

import pytest

from repro.catalog.types import FloatType, IntegerType
from repro.core.session import run_transaction
from repro.db import Database
from repro.errors import (
    InjectedFaultError,
    ReplicaUnavailableError,
    TransientError,
    WALBoundsError,
    WALCorruptionError,
)
from repro.fault import FAILPOINT_NAMES, CircuitBreaker, FailpointRegistry
from repro.storage.wal import LogOp, WriteAheadLog
from repro.workloads import make_workload


# -- registry mechanics ------------------------------------------------------


class TestFailpointRegistry:
    def test_unknown_name_rejected(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError):
            registry.arm("wal.appendix", always=True)

    def test_unarmed_is_a_no_op(self):
        registry = FailpointRegistry()
        assert registry.evaluate("wal.append") is False
        registry.fire("wal.append")  # must not raise
        # unarmed seams do not even record hits (fast path)
        assert registry.stats("wal.append").hits == 0

    def test_count_based_fires_on_exact_hits(self):
        registry = FailpointRegistry()
        registry.arm("replica.apply", on_hits=(2, 4))
        fired = [registry.evaluate("replica.apply") for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert registry.stats("replica.apply").hits == 5
        assert registry.stats("replica.apply").triggers == 2

    def test_always_with_max_triggers(self):
        registry = FailpointRegistry()
        registry.arm("compact.merge", always=True, max_triggers=2)
        fired = [registry.evaluate("compact.merge") for _ in range(4)]
        assert fired == [True, True, False, False]

    def test_probability_is_seed_deterministic(self):
        draws = []
        for _ in range(2):
            registry = FailpointRegistry(seed=42)
            registry.arm("replica.scan", probability=0.3)
            draws.append(
                [registry.evaluate("replica.scan") for _ in range(64)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])
        # a different seed gives a different (but equally fixed) pattern
        other = FailpointRegistry(seed=43)
        other.arm("replica.scan", probability=0.3)
        assert [other.evaluate("replica.scan") for _ in range(64)] != draws[0]

    def test_fire_raises_injected_fault_with_name(self):
        registry = FailpointRegistry()
        registry.arm("txn.prepare", always=True)
        with pytest.raises(InjectedFaultError) as info:
            registry.fire("txn.prepare")
        assert info.value.failpoint == "txn.prepare"
        assert isinstance(info.value, TransientError)

    def test_fire_with_custom_error(self):
        registry = FailpointRegistry()
        registry.arm("replica.scan", always=True,
                     error=ReplicaUnavailableError)
        with pytest.raises(ReplicaUnavailableError):
            registry.fire("replica.scan")

    def test_scope_disarms_on_exit(self):
        registry = FailpointRegistry()
        with registry.arm("wal.read", always=True):
            with pytest.raises(InjectedFaultError):
                registry.fire("wal.read")
        registry.fire("wal.read")  # disarmed: no-op

    def test_snapshot_and_totals(self):
        registry = FailpointRegistry()
        registry.arm("wal.append", always=True, max_triggers=1)
        with pytest.raises(InjectedFaultError):
            registry.fire("wal.append")
        registry.record_recovery("wal.append")
        snap = registry.snapshot()
        assert snap["wal.append"] == {
            "hits": 1, "triggers": 1, "recoveries": 1}
        assert registry.triggers_total() == 1
        assert registry.recoveries_total() == 1

    def test_catalogue_is_complete(self):
        assert set(FAILPOINT_NAMES) == {
            "wal.append", "wal.read", "replica.apply", "compact.merge",
            "txn.prepare", "replica.scan",
        }


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_statements=2)
        for _ in range(2):
            breaker.record_failure()
        assert not breaker.is_open
        breaker.record_success()  # success resets the consecutive count
        for _ in range(3):
            breaker.record_failure()
        assert breaker.is_open
        assert breaker.trips == 1

    def test_cooldown_then_probe_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_statements=2)
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.allow() is False  # cooldown slot 1
        assert breaker.allow() is False  # cooldown slot 2
        assert breaker.allow() is True   # half-open probe
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.resets == 1

    def test_failed_probe_restarts_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_statements=2)
        breaker.record_failure()
        assert breaker.allow() is False
        assert breaker.allow() is False
        assert breaker.allow() is True  # probe...
        breaker.record_failure()        # ...fails
        assert breaker.is_open
        assert breaker.allow() is False  # cooldown restarted


# -- WAL checksums, torn tails, bounds ---------------------------------------


def _fill_wal(wal: WriteAheadLog, n: int = 6):
    for i in range(n):
        wal.append(100 + i, "t", (i,), LogOp.INSERT, (i, i * 2), seq=i)


class TestWALIntegrity:
    def test_records_carry_valid_checksums(self):
        wal = WriteAheadLog()
        _fill_wal(wal)
        assert all(r.verify() for r in wal.read_from(0))

    def test_recover_truncates_torn_tail(self):
        wal = WriteAheadLog()
        _fill_wal(wal, n=4)
        torn = wal.read_from(3)[0]
        object.__setattr__(torn, "checksum", torn.checksum ^ 0xBAD)
        dropped = wal.recover()
        assert [r.lsn for r in dropped] == [3]
        assert wal.head_lsn == 3
        assert all(r.verify() for r in wal.read_from(0))
        # appends after recovery continue with dense LSNs
        record = wal.append(200, "t", (9,), LogOp.INSERT, (9, 9), seq=9)
        assert record.lsn == 3

    def test_mid_log_corruption_is_fatal(self):
        wal = WriteAheadLog()
        _fill_wal(wal, n=4)
        middle = wal.read_from(1)[0]
        object.__setattr__(middle, "checksum", middle.checksum ^ 0xBAD)
        with pytest.raises(WALCorruptionError):
            wal.recover()

    def test_drop_tail_commits_removes_matching_suffix(self):
        wal = WriteAheadLog()
        _fill_wal(wal, n=3)          # commits 100..102
        wal.append(102, "t", (7,), LogOp.INSERT, (7, 7), seq=7)
        dropped = wal.drop_tail_commits({102})
        assert sorted(r.lsn for r in dropped) == [2, 3]
        assert wal.head_lsn == 2
        # commit 100 is not at the tail: untouched
        assert wal.drop_tail_commits({100}) == []

    @pytest.mark.parametrize("lsn", [-1, 99])
    def test_read_from_bounds(self, lsn):
        wal = WriteAheadLog()
        _fill_wal(wal, n=2)
        with pytest.raises(WALBoundsError):
            wal.read_from(lsn)

    def test_read_below_base_after_truncation(self):
        wal = WriteAheadLog()
        _fill_wal(wal, n=4)
        wal.truncate_upto(2)
        with pytest.raises(WALBoundsError):
            wal.read_from(1)
        assert [r.lsn for r in wal.read_from(2)] == [2, 3]

    def test_read_at_head_is_empty_poll(self):
        wal = WriteAheadLog()
        _fill_wal(wal, n=2)
        assert wal.read_from(2) == []

    @pytest.mark.parametrize("lsn", [-1, 99])
    def test_truncate_bounds(self, lsn):
        wal = WriteAheadLog()
        _fill_wal(wal, n=2)
        with pytest.raises(WALBoundsError):
            wal.truncate_upto(lsn)

    def test_bounds_error_is_a_value_error(self):
        # pre-existing callers catch ValueError; the typed error must stay
        # compatible
        assert issubclass(WALBoundsError, ValueError)


# -- WAL-first commits: no partial commit survives a torn write --------------


class TestTornCommitAtomicity:
    def _db(self, partitions: int = 2) -> Database:
        db = Database(with_columnar=True, partitions=partitions,
                      retain_wal=True)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.bulk_load("t", [(i, 0) for i in range(8)])
        db.replicate()
        return db

    def test_torn_write_leaves_no_partial_commit(self):
        db = self._db()
        base = db.failpoints.stats("wal.append").hits
        db.failpoints.arm("wal.append", on_hits=(base + 3,), max_triggers=1)
        with pytest.raises(InjectedFaultError), db.connect() as conn:
            conn.begin()
            for i in range(4):
                conn.execute("UPDATE t SET v = 1 WHERE id = ?", (i,))
            conn.commit()
        db.failpoints.disarm_all()
        # the crash hit the 3rd of 4 records: the torn record plus the two
        # valid siblings already appended must all be dropped
        info = db.recover()
        assert info["records_dropped"] == 3
        assert len(info["torn_commits"]) == 1
        # the row store never installed (WAL-first) and the replica was
        # rebuilt from the repaired log: both still show the old values
        assert db.query("SELECT SUM(v) FROM t").rows[0][0] == 0
        with db.connect() as conn:
            result = conn.execute(
                "SELECT SUM(v) FROM t", (), route_columnar=True)
            assert result.rows[0][0] == 0
        # the retried commit goes through cleanly
        with db.connect() as conn:
            conn.begin()
            for i in range(4):
                conn.execute("UPDATE t SET v = 1 WHERE id = ?", (i,))
            conn.commit()
        assert db.query("SELECT SUM(v) FROM t").rows[0][0] == 4

    def test_rebuild_without_retained_wal_is_refused(self):
        from repro.errors import ConfigError

        db = Database(with_columnar=True, partitions=1)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.bulk_load("t", [(1, 1)])
        db.replicate()  # truncates the applied prefix
        with pytest.raises(ConfigError):
            db.recover()


# -- 2PC prepare faults ------------------------------------------------------


class TestPrepareFaults:
    def _db(self) -> Database:
        db = Database(with_columnar=False, partitions=4)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.bulk_load("t", [(i, 0) for i in range(8)])
        return db

    def test_injected_prepare_failure_aborts_cleanly(self):
        db = self._db()
        db.failpoints.arm("txn.prepare", always=True, max_triggers=1)
        before = db.txn_manager.aborts
        with pytest.raises(InjectedFaultError), db.connect() as conn:
            conn.begin()
            conn.execute("UPDATE t SET v = 1 WHERE id = ?", (0,))
            conn.execute("UPDATE t SET v = 1 WHERE id = ?", (1,))
            conn.commit()
        db.failpoints.disarm_all()
        assert db.txn_manager.prepare_aborts == 1
        assert db.txn_manager.aborts == before + 1
        assert db.query("SELECT SUM(v) FROM t").rows[0][0] == 0
        # a retry without the fault commits
        with db.connect() as conn:
            conn.begin()
            conn.execute("UPDATE t SET v = 1 WHERE id = ?", (0,))
            conn.execute("UPDATE t SET v = 1 WHERE id = ?", (1,))
            conn.commit()
        assert db.query("SELECT SUM(v) FROM t").rows[0][0] == 2

    def test_single_partition_commits_skip_prepare(self):
        db = self._db()
        db.failpoints.arm("txn.prepare", always=True)
        db.query("UPDATE t SET v = 5 WHERE id = ?", (0,))  # one participant
        db.failpoints.disarm_all()
        assert db.query("SELECT v FROM t WHERE id = ?", (0,)).rows[0][0] == 5

    def test_run_transaction_retries_past_prepare_fault(self):
        db = self._db()
        db.failpoints.arm("txn.prepare", always=True, max_triggers=1)

        def program(session, rng):
            session.execute("UPDATE t SET v = 2 WHERE id = ?", (2,))
            session.execute("UPDATE t SET v = 2 WHERE id = ?", (3,))

        with db.connect() as conn:
            run_transaction(conn, "oltp", "pay", program, Random(1))
        db.failpoints.disarm_all()
        assert db.txn_manager.prepare_aborts == 1
        assert db.query("SELECT SUM(v) FROM t").rows[0][0] == 4


# -- graceful degradation of columnar statements -----------------------------


class TestGracefulDegradation:
    def _db(self) -> Database:
        db = Database(with_columnar=True, partitions=2,
                      columnar_segment_rows=64)
        db.execute_ddl("CREATE TABLE d (id INT PRIMARY KEY, g INT, v INT)")
        db.bulk_load("d", [(i, i % 3, i) for i in range(90)])
        db.replicate()
        return db

    SQL = "SELECT g, SUM(v) FROM d GROUP BY g ORDER BY g"

    def test_degraded_statement_answers_identically(self):
        db = self._db()
        with db.connect() as conn:
            expected = conn.execute(self.SQL, (), route_columnar=True)
            assert expected.stats.used_columnar
            db.failpoints.arm("replica.scan", always=True, max_triggers=1)
            degraded = conn.execute(self.SQL, (), route_columnar=True)
            db.failpoints.disarm_all()
        assert degraded.rows == expected.rows
        assert degraded.columns == expected.columns
        assert not degraded.stats.used_columnar
        assert degraded.stats.degraded_statements == 1
        assert degraded.stats.faults_injected == 1
        assert degraded.stats.faults_recovered == 1
        assert db.degraded_statements_total == 1

    def test_breaker_opens_then_recovers(self):
        db = self._db()
        breaker = db.replica_breaker
        db.failpoints.arm("replica.scan", always=True)
        with db.connect() as conn:
            for _ in range(breaker.failure_threshold):
                conn.execute(self.SQL, (), route_columnar=True)
            assert breaker.is_open
            hits_at_trip = db.failpoints.stats("replica.scan").hits
            # while open, statements skip the columnar attempt entirely:
            # the failpoint sees no further hits but answers stay correct
            open_result = conn.execute(self.SQL, (), route_columnar=True)
            assert db.failpoints.stats("replica.scan").hits == hits_at_trip
            assert open_result.stats.degraded_statements == 1
            db.failpoints.disarm_all()
            # drain the cooldown; the half-open probe then succeeds
            for _ in range(breaker.cooldown_statements + 1):
                result = conn.execute(self.SQL, (), route_columnar=True)
            assert not breaker.is_open
            assert result.stats.used_columnar
        assert breaker.trips == 1
        assert breaker.resets == 1

    def test_replica_faults_do_not_disturb_oltp(self):
        db = self._db()
        db.failpoints.arm("replica.scan", always=True)
        db.query("UPDATE d SET v = 1000 WHERE id = ?", (0,))
        db.failpoints.disarm_all()
        row = db.query("SELECT v FROM d WHERE id = ?", (0,)).rows[0]
        assert row[0] == 1000


# -- the crash-at-every-failpoint sweep --------------------------------------


def _install(workload_name: str, partitions: int, seed: int = 7, **kwargs):
    db = Database(with_columnar=True, columnar_segment_rows=256,
                  partitions=partitions, **kwargs)
    workload = make_workload(workload_name)
    workload.install(db, Random(seed), 0.05, with_foreign_keys=False)
    return db, workload


def _mutate(db: Database, workload, rounds: int = 1, seed: int = 13):
    rng = Random(seed)
    with db.connect() as conn:
        for profile in workload.oltp_transactions() * rounds:
            run_transaction(conn, "oltp", profile.name, profile.program, rng)


def _analytical_outputs(db: Database, workload, seed: int = 17):
    """Run the full analytical set routed columnar; returns raw results."""
    outputs = []
    for profile in workload.analytical_queries():
        rng = Random(f"{profile.name}:{seed}")
        captured = []

        class _Session:
            def execute(self, sql, params=()):
                result = conn.execute(sql, params, route_columnar=True)
                captured.append((result.columns, result.rows))
                return result

            def query_scalar(self, sql, params=()):
                return self.execute(sql, params).scalar()

        with db.connect() as conn:
            profile.program(_Session(), rng)
            conn.commit()
        outputs.append(captured)
    return outputs


def _bump_target(db: Database):
    """Pick a deterministic DML target: the first table (by name) with a
    numeric non-key column and at least 8 rows; returns its first 8 keys."""
    for table in sorted(db.catalog.tables(), key=lambda t: t.name):
        pk_upper = {c.upper() for c in table.primary_key}
        numeric = next(
            (c.name for c in table.columns
             if c.name.upper() not in pk_upper
             and isinstance(c.col_type, (IntegerType, FloatType))),
            None)
        if numeric is None:
            continue
        pk_cols = ", ".join(table.primary_key)
        keys = db.query(
            f"SELECT {pk_cols} FROM {table.name} ORDER BY {pk_cols}"
        ).rows[:8]
        if len(keys) == 8:
            return table, numeric, [tuple(k) for k in keys]
    raise AssertionError("no table suitable for deterministic DML")


def _bump(db: Database, table, column: str, keys):
    """One multi-row (usually multi-partition) commit: bump the numeric
    column by 1 on each key.  Fully deterministic — safe to re-run after a
    crash because both sides of the parity comparison run it once."""
    where = " AND ".join(f"{c} = ?" for c in table.primary_key)
    sql = f"UPDATE {table.name} SET {column} = {column} + 1 WHERE {where}"
    with db.connect() as conn:
        conn.begin()
        for key in keys:
            conn.execute(sql, key)
        conn.commit()


def _dump_tables(db: Database):
    """Sorted full contents of every table, from the row store AND the
    columnar replica — sensitive to any lost or phantom commit."""
    dumps = {}
    with db.connect() as conn:
        for table in sorted(db.catalog.tables(), key=lambda t: t.name):
            cols = ", ".join(c.name for c in table.columns)
            sql = f"SELECT {cols} FROM {table.name}"
            row_side = sorted(conn.execute(sql).rows)
            col_side = sorted(
                conn.execute(sql, (), route_columnar=True).rows)
            assert row_side == col_side, \
                f"row/columnar divergence in {table.name}"
            dumps[table.name] = row_side
    return dumps


@pytest.mark.parametrize("workload_name", [
    "subenchmark", "fibenchmark", "tabenchmark",
])
class TestCrashRecoverySweep:
    """Crash at every registered failpoint during load + replicate +
    compact, recover, and require byte parity with an uncrashed run."""

    @pytest.mark.parametrize("partitions", [1, 2, 8])
    def test_crash_everywhere_then_byte_parity(self, workload_name,
                                               partitions):
        crash, workload = _install(workload_name, partitions,
                                   retain_wal=True)
        # the ref gets its own workload instance: profiles carry a
        # monotone clock, so sharing one would skew the reference run
        ref, ref_workload = _install(workload_name, partitions)
        _mutate(crash, workload)
        _mutate(ref, ref_workload)
        table, column, keys = _bump_target(crash)
        ref_target = _bump_target(ref)
        assert (ref_target[0].name, ref_target[1], ref_target[2]) == \
            (table.name, column, keys)
        fp = crash.failpoints

        # 1. torn write: crash mid-commit at wal.append, recover, retry
        base = fp.stats("wal.append").hits
        fp.arm("wal.append", on_hits=(base + 5,), max_triggers=1)
        with pytest.raises(InjectedFaultError):
            _bump(crash, table, column, keys)
        fp.disarm_all()
        info = crash.recover()
        assert info["records_dropped"] == 5  # torn record + 4 siblings
        assert len(info["torn_commits"]) == 1
        _bump(crash, table, column, keys)

        # 2. participant failure at 2PC prepare: clean abort, retry
        spans = {crash.storage.pmap.partition_of_pk(k) for k in keys}
        if len(spans) > 1:
            before = crash.txn_manager.prepare_aborts
            fp.arm("txn.prepare", always=True, max_triggers=1)
            with pytest.raises(InjectedFaultError):
                _bump(crash, table, column, keys)
            fp.disarm_all()
            assert crash.txn_manager.prepare_aborts == before + 1
        _bump(crash, table, column, keys)

        # 3. crash mid-apply on the replica: rebuild from the WAL
        base = fp.stats("replica.apply").hits
        fp.arm("replica.apply", on_hits=(base + 3,), max_triggers=1)
        with pytest.raises(InjectedFaultError):
            crash.replicate()
        fp.disarm_all()
        crash.recover()
        assert crash.replication_lag() == 0

        # 4. transient failure on the replication feed
        fp.arm("wal.read", always=True, max_triggers=1)
        with pytest.raises(InjectedFaultError):
            crash.replicate()
        fp.disarm_all()
        crash.recover()

        # 5. crash mid-compaction: nothing published, recover and re-merge
        _bump(crash, table, column, keys)
        fp.arm("compact.merge", always=True, max_triggers=1)
        crash.replicate()          # 8 rows: below the inline merge threshold
        with pytest.raises(InjectedFaultError):
            crash.columnar.compact(force=True)  # the forced merge: trigger 1
        fp.disarm_all()
        crash.recover()
        crash.columnar.compact(force=True)

        # bring the reference to the same logical state, fault-free
        for _ in range(3):
            _bump(ref, table, column, keys)
        ref.replicate()
        ref.columnar.compact(force=True)
        expected = _analytical_outputs(ref, ref_workload)

        # 6. replica scans degrade to the row pipeline, answers unchanged
        fp.arm("replica.scan", always=True)
        degraded = _analytical_outputs(crash, workload)
        fp.disarm_all()
        assert degraded == expected
        assert crash.degraded_statements_total > 0
        # heal: the breaker closes once a probe statement succeeds
        with crash.connect() as conn:
            for _ in range(crash.replica_breaker.cooldown_statements + 4):
                if not crash.replica_breaker.is_open:
                    break
                conn.execute(f"SELECT COUNT(*) FROM {table.name}", (),
                             route_columnar=True)
        assert not crash.replica_breaker.is_open
        assert _analytical_outputs(crash, workload) == expected

        # full-table byte parity, row store and columnar replica alike
        assert _dump_tables(crash) == _dump_tables(ref)
        assert fp.triggers_total() >= 7
        assert fp.recoveries_total() >= 1


# -- the merge builds aside: old snapshots stay readable, a fault publishes
# -- nothing ------------------------------------------------------------------


class TestMergeBuildsAside:
    def _db(self) -> Database:
        db = Database(with_columnar=True, columnar_segment_rows=16,
                      retain_wal=True)
        db.execute_ddl(
            "CREATE TABLE m (id INT PRIMARY KEY, g INT, tag VARCHAR(4), "
            "v DOUBLE)")
        db.bulk_load("m", [(i, i % 3, f"t{i % 3}", i * 0.5)
                           for i in range(0, 120, 2)])
        db.replicate()
        db.columnar.compact(force=True)
        return db

    @staticmethod
    def _insert(db: Database, ids):
        with db.connect() as conn:
            conn.begin()
            for i in ids:
                conn.execute(
                    "INSERT INTO m (id, g, tag, v) VALUES (?, ?, ?, ?)",
                    (i, i % 3, f"t{i % 3}", i * 0.5))
            conn.commit()

    @staticmethod
    def _read(snapshot, delta_sizes):
        """Every live row reachable from one ``read_snapshot``: main
        segments to the end, delta segments up to their snapshot-time
        sizes (a delta tail may only grow past them)."""
        main, delta = snapshot
        sized = [(s, s.size) for s in main] + list(zip(delta, delta_sizes))
        rows = [tuple(col[i] for col in segment.columns)
                for segment, size in sized
                for i in range(size) if segment.live[i]]
        return rows, [id(s) for s in main]

    def test_old_snapshot_reads_to_the_end_across_a_merge(self):
        db = self._db()
        table = db.columnar.table_partitions("m")[0]
        self._insert(db, (201, 203))            # a delta tail to snapshot
        db.columnar.apply_from_partitions(db.storage.wals)
        snapshot = table.read_snapshot()
        delta_sizes = [s.size for s in snapshot[1]]
        before = self._read(snapshot, delta_sizes)
        assert len(before[0]) == 62 and len(before[1]) == 4
        # new keys between, before and after every main key
        self._insert(db, range(1, 121, 8))
        db.columnar.apply_from_partitions(db.storage.wals)
        assert table.compact(force=True) > 0
        assert table.delta_live_rows() == 0
        # the table moved on ...
        assert table.row_count == 77
        assert all(new is not old for new in table.read_snapshot()[0]
                   for old in snapshot[0])
        # ... the old snapshot did not
        assert self._read(snapshot, delta_sizes) == before

    def test_fault_before_publish_leaves_main_and_delta_untouched(self):
        db = self._db()
        table = db.columnar.table_partitions("m")[0]
        # the delta brings no new string, so a merge that builds aside and
        # is thrown away leaves even the shared dictionaries as they were
        self._insert(db, range(1, 41, 2))
        with db.connect() as conn:
            conn.execute("UPDATE m SET v = -1.0 WHERE id = 100")
            conn.execute("DELETE FROM m WHERE id = 50")
            conn.commit()
        db.columnar.apply_from_partitions(db.storage.wals)
        stats = db.columnar.encoding_stats()
        main, delta = map(list, table.read_snapshot())
        slots = dict(table._main_pk_to_slot)
        dump = _dump_tables(db)
        db.failpoints.arm("compact.merge", always=True)
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                db.columnar.compact(force=True)
        db.failpoints.disarm_all()
        # no half-built segment is reachable: same objects, same slots
        now_main, now_delta = table.read_snapshot()
        assert [id(s) for s in now_main] == [id(s) for s in main]
        assert [id(s) for s in now_delta] == [id(s) for s in delta]
        assert table._main_pk_to_slot == slots
        assert all(s.encoded for s in now_main)
        assert not any(s.encoded for s in now_delta)
        assert db.columnar.encoding_stats() == stats
        assert _dump_tables(db) == dump         # main + delta queryable
        assert table.delta_live_rows() == 21 and table.row_count == 79
        # the inline path (replicate -> compact) absorbs the same fault
        db.failpoints.arm("compact.merge", always=True)
        self._insert(db, (41,))
        db.replicate()
        db.failpoints.disarm_all()
        assert db.compaction_failures == 1
        assert [id(s) for s in table.read_snapshot()[0]] == \
            [id(s) for s in main]
        assert table.delta_live_rows() == 22
        dump = _dump_tables(db)
        assert (41, 2, "t2", 20.5) in dump["m"]
        # recovery is idempotent; its re-replication merges, fault-free
        first = db.recover()
        state = (_dump_tables(db), db.columnar.encoding_stats())
        assert db.recover() == first
        assert (_dump_tables(db), db.columnar.encoding_stats()) == state
        assert state[0] == dump
        assert all(part.delta_live_rows() == 0
                   for part in db.columnar.table_partitions("m"))
        assert db.columnar.table_partitions("m")[0].row_count == 80
