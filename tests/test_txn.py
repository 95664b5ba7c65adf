"""Transactions: isolation levels, write conflicts, FOR UPDATE validation,
visibility."""

import sys
import threading

import pytest

from repro.catalog import INT, VARCHAR, Column, Table
from repro.db import Database
from repro.errors import (
    ConnectionStateError,
    InjectedFaultError,
    IntegrityError,
    WriteConflictError,
)
from repro.storage import RowStorage
from repro.txn import (
    IsolationLevel,
    TransactionManager,
    TxnStatus,
)


@pytest.fixture
def manager():
    storage = RowStorage()
    storage.register_table(Table(
        "t", [Column("id", INT, nullable=False), Column("v", VARCHAR(32))],
        primary_key=("id",),
    ))
    return TransactionManager(storage)


def committed_insert(manager, pk, value):
    txn = manager.begin()
    txn.insert("t", (pk,), (pk, value))
    txn.commit()


class TestLifecycle:
    def test_commit_installs_writes(self, manager):
        committed_insert(manager, 1, "a")
        reader = manager.begin()
        assert reader.get("t", (1,)) == (1, "a")

    def test_rollback_discards_writes(self, manager):
        txn = manager.begin()
        txn.insert("t", (1,), (1, "a"))
        txn.rollback()
        assert manager.begin().get("t", (1,)) is None
        assert manager.aborts == 1

    def test_operations_after_commit_rejected(self, manager):
        txn = manager.begin()
        txn.commit()
        with pytest.raises(ConnectionStateError):
            txn.get("t", (1,))

    def test_read_only_commit_needs_no_timestamp(self, manager):
        before = manager.current_ts()
        txn = manager.begin()
        txn.get("t", (1,))
        txn.commit()
        assert manager.current_ts() == before
        assert txn.status is TxnStatus.COMMITTED

    def test_write_set_order_preserved(self, manager):
        txn = manager.begin()
        txn.insert("t", (2,), (2, "b"))
        txn.insert("t", (1,), (1, "a"))
        assert [pk for _t, pk, _v, _op in txn.write_set] == [(2,), (1,)]


class TestVisibility:
    def test_own_writes_visible(self, manager):
        txn = manager.begin()
        txn.insert("t", (1,), (1, "a"))
        assert txn.get("t", (1,)) == (1, "a")
        assert dict(txn.scan("t")) == {(1,): (1, "a")}

    def test_own_delete_hides_row(self, manager):
        committed_insert(manager, 1, "a")
        txn = manager.begin()
        txn.delete("t", (1,))
        assert txn.get("t", (1,)) is None
        assert dict(txn.scan("t")) == {}

    def test_snapshot_isolation_ignores_later_commits(self, manager):
        committed_insert(manager, 1, "a")
        reader = manager.begin(IsolationLevel.SNAPSHOT)
        reader.statement_begin()
        assert reader.get("t", (1,)) == (1, "a")
        writer = manager.begin()
        writer.update("t", (1,), (1, "b"))
        writer.commit()
        reader.statement_begin()
        assert reader.get("t", (1,)) == (1, "a")  # snapshot stays put

    def test_read_committed_sees_new_commits_per_statement(self, manager):
        committed_insert(manager, 1, "a")
        reader = manager.begin(IsolationLevel.READ_COMMITTED)
        reader.statement_begin()
        assert reader.get("t", (1,)) == (1, "a")
        writer = manager.begin()
        writer.update("t", (1,), (1, "b"))
        writer.commit()
        reader.statement_begin()  # RC refreshes the snapshot here
        assert reader.get("t", (1,)) == (1, "b")

    def test_local_rows_exposes_buffered_writes(self, manager):
        txn = manager.begin()
        txn.insert("t", (1,), (1, "a"))
        txn.insert("t", (2,), (2, "b"))
        txn.delete("t", (1,))
        local = dict(txn.local_rows("t"))
        assert local == {(1,): None, (2,): (2, "b")}


class TestConflicts:
    def test_first_committer_wins(self, manager):
        committed_insert(manager, 1, "a")
        t1 = manager.begin(IsolationLevel.SNAPSHOT)
        t2 = manager.begin(IsolationLevel.SNAPSHOT)
        t1.update("t", (1,), (1, "t1"))
        t2.update("t", (1,), (1, "t2"))
        t1.commit()
        with pytest.raises(WriteConflictError):
            t2.commit()
        assert t2.status is TxnStatus.ABORTED

    def test_read_committed_skips_validation(self, manager):
        committed_insert(manager, 1, "a")
        t1 = manager.begin(IsolationLevel.READ_COMMITTED)
        t2 = manager.begin(IsolationLevel.READ_COMMITTED)
        t1.update("t", (1,), (1, "t1"))
        t2.update("t", (1,), (1, "t2"))
        t1.commit()
        t2.commit()  # last writer wins under RC
        assert manager.begin().get("t", (1,)) == (1, "t2")

    def test_non_overlapping_writes_both_commit(self, manager):
        committed_insert(manager, 1, "a")
        committed_insert(manager, 2, "b")
        t1 = manager.begin()
        t2 = manager.begin()
        t1.update("t", (1,), (1, "x"))
        t2.update("t", (2,), (2, "y"))
        t1.commit()
        t2.commit()

    def test_duplicate_insert_rejected(self, manager):
        committed_insert(manager, 1, "a")
        txn = manager.begin()
        with pytest.raises(IntegrityError):
            txn.insert("t", (1,), (1, "dup"))

    def test_update_missing_row_rejected(self, manager):
        txn = manager.begin()
        with pytest.raises(IntegrityError):
            txn.update("t", (9,), (9, "x"))


@pytest.fixture
def accounts():
    db = Database(partitions=4)
    db.execute_ddl("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
    db.bulk_load("acct", [(i, 10 * i) for i in range(1, 9)])
    return db


def select_for_update(db, isolation, where):
    """Open a transaction whose only statement is ``SELECT … FOR UPDATE``."""
    conn = db.connect(isolation=isolation)
    txn = conn.begin()
    conn.execute(f"SELECT id FROM acct WHERE {where} FOR UPDATE")
    return conn, txn


# concurrent autocommit statements that each leave row 1 with a committed
# version newer than the FOR UPDATE transaction's snapshot
CONCURRENT_CHANGES = {
    "update": ["UPDATE acct SET bal = bal + 1 WHERE id = 1"],
    "delete": ["DELETE FROM acct WHERE id = 1"],
    "reinsert": ["DELETE FROM acct WHERE id = 1",
                 "INSERT INTO acct (id, bal) VALUES (1, 10)"],
}


class TestForUpdateValidation:
    """``SELECT … FOR UPDATE`` takes no lock (TiDB's optimistic mode): its
    rows join first-committer-wins validation at commit."""

    @pytest.mark.parametrize("change", sorted(CONCURRENT_CHANGES))
    def test_snapshot_concurrent_write_aborts_commit(self, accounts, change):
        conn, txn = select_for_update(accounts, IsolationLevel.SNAPSHOT,
                                      "id = 1")
        assert txn.for_update_keys == {("ACCT", (1,))}
        for sql in CONCURRENT_CHANGES[change]:
            accounts.query(sql)
        aborts = accounts.txn_manager.aborts
        with pytest.raises(WriteConflictError):
            conn.commit()
        assert txn.status is TxnStatus.ABORTED
        assert accounts.txn_manager.aborts == aborts + 1

    def test_read_committed_validates_nothing(self, accounts):
        conn, txn = select_for_update(
            accounts, IsolationLevel.READ_COMMITTED, "id = 1")
        assert txn.for_update_keys == {("ACCT", (1,))}
        accounts.query("UPDATE acct SET bal = bal + 1 WHERE id = 1")
        conn.commit()
        assert txn.status is TxnStatus.COMMITTED

    def test_write_to_unselected_row_does_not_abort(self, accounts):
        conn, txn = select_for_update(accounts, IsolationLevel.SNAPSHOT,
                                      "id = 1")
        accounts.query("UPDATE acct SET bal = bal + 1 WHERE id = 2")
        accounts.query("INSERT INTO acct (id, bal) VALUES (9, 90)")
        conn.commit()
        assert txn.status is TxnStatus.COMMITTED
        assert txn.for_update_keys == {("ACCT", (1,))}

    def test_for_update_only_commit_is_read_only(self, accounts):
        manager = accounts.txn_manager
        counts = (manager.single_partition_commits,
                  manager.multi_partition_commits, manager.current_ts())
        conn, txn = select_for_update(accounts, IsolationLevel.SNAPSHOT,
                                      "id <= 4")
        assert txn.for_update_keys == {("ACCT", (i,)) for i in range(1, 5)}
        conn.commit()
        assert txn.status is TxnStatus.COMMITTED
        assert txn.commit_partitions == ()
        assert (manager.single_partition_commits,
                manager.multi_partition_commits,
                manager.current_ts()) == counts

    def test_written_key_checked_once_by_the_write_rule(self, accounts):
        """Row 1 is selected FOR UPDATE and then deleted and re-inserted:
        a concurrent delete is the write rule's one exception, so the
        FOR UPDATE does not turn it into a conflict."""
        conn, txn = select_for_update(accounts, IsolationLevel.SNAPSHOT,
                                      "id = 1")
        conn.execute("DELETE FROM acct WHERE id = 1")
        conn.execute("INSERT INTO acct (id, bal) VALUES (1, 11)")
        accounts.query("DELETE FROM acct WHERE id = 1")
        conn.commit()
        assert txn.status is TxnStatus.COMMITTED
        assert txn.for_update_keys <= txn.written_keys()
        assert accounts.query(
            "SELECT bal FROM acct WHERE id = 1").rows == [(11,)]


class TestCommitSection:
    @pytest.mark.parametrize("partitions", [1, 4])
    @pytest.mark.parametrize("writers", [2, 4])
    def test_concurrent_writers_lose_no_committed_update(self, partitions,
                                                         writers):
        """Writer threads each run read-increment-commit on one counter
        row with the interpreter switching threads every microsecond.  One
        section validates, installs and then publishes each commit, so
        every commit lands exactly one increment and no snapshot misses
        the row."""
        db = Database(partitions=partitions)
        db.execute_ddl("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
        db.query("INSERT INTO c (id, n) VALUES (1, 0)")
        commits = [0] * writers
        empty_reads = [0] * writers
        errors = []

        def writer(i):
            try:
                for _ in range(300):
                    conn = db.connect()
                    conn.begin()
                    rows = conn.execute("SELECT n FROM c WHERE id = 1").rows
                    if not rows:
                        empty_reads[i] += 1
                        conn.rollback()
                        continue
                    conn.execute("UPDATE c SET n = ? WHERE id = 1",
                                 (rows[0][0] + 1,))
                    try:
                        conn.commit()
                    except WriteConflictError:
                        continue
                    commits[i] += 1
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(i,))
                       for i in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(empty_reads) == 0
        final = db.query("SELECT n FROM c WHERE id = 1").rows
        assert final == [(sum(commits),)]

    def test_failed_install_publishes_nothing(self):
        db = Database()
        db.execute_ddl("CREATE TABLE c (id INT PRIMARY KEY, n INT)")
        db.query("INSERT INTO c (id, n) VALUES (1, 0)")
        manager = db.txn_manager
        before = manager.current_ts()
        with db.failpoints.arm("wal.append", always=True):
            with pytest.raises(InjectedFaultError):
                db.query("UPDATE c SET n = 1 WHERE id = 1")
        assert manager.current_ts() == before
        assert manager.begin().start_ts == before
        db.query("UPDATE c SET n = 2 WHERE id = 1")
        assert manager.current_ts() > before
        assert db.query("SELECT n FROM c").rows == [(2,)]
