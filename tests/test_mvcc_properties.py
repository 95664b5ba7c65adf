"""Property-based MVCC tests: randomly interleaved transactions.

Hypothesis drives random schedules of concurrent transactions over a tiny
bank schema and checks the invariants snapshot isolation must provide:

* committed money is conserved by transfer transactions;
* a snapshot transaction's reads are repeatable regardless of interleaved
  commits;
* first-committer-wins: overlapping writers never both commit;
* aborted transactions leave no trace.
"""

from __future__ import annotations

import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.errors import TransactionAborted
from repro.storage import rowstore
from repro.txn import IsolationLevel

N_ACCOUNTS = 6
INITIAL = 100


def make_bank() -> Database:
    db = Database()
    db.run_script("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
    db.bulk_load("acct", ((i, INITIAL) for i in range(N_ACCOUNTS)))
    return db


def total(db: Database) -> int:
    return db.query("SELECT SUM(bal) FROM acct").scalar()


# an operation is (source, destination, amount) for one transfer txn
transfers = st.lists(
    st.tuples(st.integers(0, N_ACCOUNTS - 1),
              st.integers(0, N_ACCOUNTS - 1),
              st.integers(1, 30)),
    min_size=1, max_size=25,
)


@given(transfers)
@settings(max_examples=50, deadline=None)
def test_serial_transfers_conserve_money(ops):
    db = make_bank()
    for source, dest, amount in ops:
        with db.connect() as conn:
            conn.begin()
            balance = conn.execute(
                "SELECT bal FROM acct WHERE id = ?", (source,)).scalar()
            if balance >= amount:
                conn.execute(
                    "UPDATE acct SET bal = bal - ? WHERE id = ?",
                    (amount, source))
                conn.execute(
                    "UPDATE acct SET bal = bal + ? WHERE id = ?",
                    (amount, dest))
            conn.commit()
    assert total(db) == N_ACCOUNTS * INITIAL
    assert db.query("SELECT MIN(bal) FROM acct").scalar() >= 0


@given(transfers, st.integers(0, N_ACCOUNTS - 1))
@settings(max_examples=40, deadline=None)
def test_snapshot_reads_repeatable_under_interleaving(ops, watched):
    """A long-running snapshot reader sees the same balance every time, no
    matter how many transfers commit meanwhile."""
    db = make_bank()
    reader = db.connect(isolation=IsolationLevel.SNAPSHOT)
    reader.begin()
    first = reader.execute(
        "SELECT bal FROM acct WHERE id = ?", (watched,)).scalar()
    first_total = reader.execute("SELECT SUM(bal) FROM acct").scalar()
    for source, dest, amount in ops:
        with db.connect() as conn:
            conn.begin()
            conn.execute("UPDATE acct SET bal = bal - ? WHERE id = ?",
                         (amount, source))
            conn.execute("UPDATE acct SET bal = bal + ? WHERE id = ?",
                         (amount, dest))
            conn.commit()
        again = reader.execute(
            "SELECT bal FROM acct WHERE id = ?", (watched,)).scalar()
        assert again == first
        assert reader.execute(
            "SELECT SUM(bal) FROM acct").scalar() == first_total
    reader.rollback()


@given(st.lists(st.integers(0, N_ACCOUNTS - 1), min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_first_committer_wins_over_any_overlap(targets):
    """Two snapshot transactions writing overlapping rows: exactly one of
    any conflicting pair commits."""
    db = make_bank()
    t1 = db.connect(isolation=IsolationLevel.SNAPSHOT)
    t2 = db.connect(isolation=IsolationLevel.SNAPSHOT)
    t1.begin()
    t2.begin()
    half = max(1, len(targets) // 2)
    set1, set2 = set(targets[:half]), set(targets[half:])
    for acct in set1:
        t1.execute("UPDATE acct SET bal = bal + 1 WHERE id = ?", (acct,))
    for acct in set2:
        t2.execute("UPDATE acct SET bal = bal + 2 WHERE id = ?", (acct,))
    t1.commit()
    overlapping = bool(set1 & set2)
    if overlapping:
        with pytest.raises(TransactionAborted):
            t2.commit()
    else:
        t2.commit()
    # sum must reflect exactly the committed increments
    expected = N_ACCOUNTS * INITIAL + len(set1) + \
        (0 if overlapping else 2 * len(set2))
    assert total(db) == expected


@given(transfers)
@settings(max_examples=30, deadline=None)
def test_rollback_leaves_no_trace(ops):
    db = make_bank()
    before = [tuple(r) for r in db.query(
        "SELECT id, bal FROM acct ORDER BY id").rows]
    conn = db.connect()
    conn.begin()
    for source, dest, amount in ops:
        conn.execute("UPDATE acct SET bal = bal - ? WHERE id = ?",
                     (amount, source))
        conn.execute("UPDATE acct SET bal = bal + ? WHERE id = ?",
                     (amount, dest))
    conn.rollback()
    after = [tuple(r) for r in db.query(
        "SELECT id, bal FROM acct ORDER BY id").rows]
    assert before == after


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)),
                min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_read_committed_always_sees_latest_commit(pairs):
    """Under RC, a reader's per-statement snapshot equals the last commit."""
    db = make_bank()
    db.run_script("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    reader = db.connect(isolation=IsolationLevel.READ_COMMITTED)
    reader.begin()
    current = {}
    for key, value in pairs:
        with db.connect() as writer:
            writer.begin()
            if key in current:
                writer.execute("UPDATE kv SET v = ? WHERE k = ?",
                               (value, key))
            else:
                writer.execute("INSERT INTO kv (k, v) VALUES (?, ?)",
                               (key, value))
            writer.commit()
        current[key] = value
        seen = reader.execute("SELECT v FROM kv WHERE k = ?",
                              (key,)).scalar()
        assert seen == value
    reader.rollback()


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_columnar_replica_converges_to_row_store(data):
    """After arbitrary committed mutations plus full replication, columnar
    scans agree exactly with row-store scans."""
    db = Database(with_columnar=True)
    db.run_script("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    live = {}
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["put", "delete"]),
                  st.integers(0, 10), st.integers(0, 99)),
        max_size=40))
    for op, key, value in ops:
        with db.connect() as conn:
            conn.begin()
            if op == "put":
                if key in live:
                    conn.execute("UPDATE kv SET v = ? WHERE k = ?",
                                 (value, key))
                else:
                    conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)",
                                 (key, value))
                live[key] = value
            elif key in live:
                conn.execute("DELETE FROM kv WHERE k = ?", (key,))
                del live[key]
            conn.commit()
    db.replicate()
    with db.connect() as conn:
        row_side = sorted(conn.execute("SELECT k, v FROM kv").rows)
        col_side = sorted(conn.execute("SELECT k, v FROM kv",
                                       route_columnar=True).rows)
    assert row_side == col_side == sorted(live.items())


@given(st.lists(st.tuples(st.sampled_from(["put", "delete"]),
                          st.integers(0, 9), st.integers(0, 99)),
                max_size=40),
       st.sampled_from([1, 2, 8]), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_batch_scan_equals_point_reads_at_every_snapshot(ops, partitions,
                                                         batch_rows):
    """For any sequence of committed writes and any read timestamp, the
    flattened batch scan is ``[(pk, get(pk, ts))]`` over the keys live at
    that timestamp, in first-install order — also after a garbage collection
    for every snapshot at or above its watermark."""
    db = Database(partitions=partitions)
    db.run_script("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    store = db.storage.store("kv")
    installed: list[tuple] = []           # first-install order
    live: set[tuple] = set()
    commit_ts = 0
    for op, key, value in ops:
        pk = (key,)
        if op == "delete" and pk not in live:
            continue
        commit_ts += 1
        if op == "put":
            store.install(pk, (key, value), commit_ts)
            if pk not in installed:
                installed.append(pk)
            live.add(pk)
        else:
            store.install(pk, None, commit_ts)
            live.discard(pk)

    def check(snapshots):
        for ts in snapshots:
            expected = [(pk, values) for pk in installed
                        if (values := store.get(pk, ts)) is not None]
            flattened = [pair for pks, rows in
                         store.scan_batches(ts, batch_rows)
                         for pair in zip(pks, rows)]
            assert flattened == expected
            assert list(store.scan(ts)) == expected

    check(range(commit_ts + 2))
    watermark = commit_ts // 2
    store.garbage_collect(watermark)
    check(range(watermark, commit_ts + 2))


def _sized(elements, largest):
    # the size first, uniformly: left to itself hypothesis keeps the history
    # -- and so the table -- nearly empty
    return st.integers(0, largest).flatmap(
        lambda size: st.lists(elements, min_size=size, max_size=size))


HISTORY = _sized(st.one_of(
    st.tuples(st.sampled_from(["put", "put", "delete"]),
              st.tuples(st.integers(0, 3), st.integers(0, 3)),
              st.integers(0, 99)),
    st.tuples(st.just("gc"), st.none(), st.integers(0, 40))), 40)


def _flattened(batches) -> list[tuple]:
    return [pair for pks, rows in batches for pair in zip(pks, rows)]


@given(HISTORY, st.sampled_from([1, 2, 8]), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_newest_map_and_chain_walk_equal_point_reads(history, partitions,
                                                     batch_rows):
    """Puts, deletes, re-inserts and garbage collections over a composite-key
    table.  After every step, full and PK-prefix scans below, at and above
    the last commit are ``[(pk, get(pk, ts))]`` over the keys live at
    ``ts``: first-install order for a full scan, key order for a prefix
    scan.  The chain walk runs exactly for snapshots older than the table's
    last commit, for either scan; every newer one is sliced from the newest
    map."""
    db = Database(partitions=partitions)
    db.run_script("CREATE TABLE kv (a INT, b INT, v INT, PRIMARY KEY (a, b))")
    store = db.storage.store("kv")
    installed: list[tuple] = []           # first-install order
    live: set[tuple] = set()
    commit_ts = floor = 0

    def check(ts, walk):
        expected = [(pk, values) for pk in installed
                    if (values := store.get(pk, ts)) is not None]
        walk.reset_mock()
        assert _flattened(store.scan_batches(ts, batch_rows)) == expected
        assert walk.called == (ts < commit_ts)
        for a in range(4):
            walk.reset_mock()
            assert _flattened(store.pk_prefix_scan_batches(
                (a,), ts, batch_rows)) == sorted(
                    pair for pair in expected if pair[0][0] == a)
            assert walk.called == (ts < commit_ts)

    with mock.patch.object(rowstore, "_scan_chain_batches",
                           wraps=rowstore._scan_chain_batches) as walk:
        for op, pk, value in history:
            if op == "gc":
                watermark = min(value, commit_ts)
                store.garbage_collect(watermark)
                floor = max(floor, watermark)
            elif op == "put" or pk in live:
                commit_ts += 1
                if op == "put":
                    store.install(pk, (*pk, value), commit_ts)
                    if pk not in installed:
                        installed.append(pk)
                    live.add(pk)
                else:
                    store.install(pk, None, commit_ts)
                    live.discard(pk)
            assert store.row_count == len(live)
            for ts in range(max(floor, commit_ts - 1), commit_ts + 2):
                check(ts, walk)
        for ts in range(floor, commit_ts + 2):
            check(ts, walk)


@pytest.mark.parametrize("partitions", [1, 4])
def test_newest_map_copy_racing_a_commit_is_discarded(partitions):
    """A writer thread rewrites every row in each commit while this thread
    scans at the newest fully installed commit.  A newest-map copy that a
    commit lands in must be thrown away (the invalidation rule), so every
    row scanned carries the snapshot's own commit number."""
    db = Database(partitions=partitions)
    db.run_script("CREATE TABLE kv (a INT, b INT, v INT, PRIMARY KEY (a, b))")
    store = db.storage.store("kv")
    keys = [(a, b) for a in range(4) for b in range(8)]
    for pk in keys:
        store.install(pk, (*pk, 1), 1)
    published = [1]                       # newest commit fully installed
    stop = threading.Event()

    def writer():
        for ts in range(2, 3000):
            if stop.is_set():
                return
            for pk in keys:
                store.install(pk, (*pk, ts), ts)
            published[0] = ts
            # hand over the interpreter: a scan at ts starts before the next
            # commit does, which then lands at a random point inside it
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.monotonic() + 5.0
        while thread.is_alive() and time.monotonic() < deadline:
            ts = published[0]
            full = _flattened(store.scan_batches(ts, 8))
            prefix = _flattened(store.pk_prefix_scan_batches((1,), ts, 8))
            assert [pk for pk, _row in full] == keys
            assert {row[2] for _pk, row in full} == {ts}
            assert [row[2] for _pk, row in prefix] == [ts] * 8
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()


@pytest.mark.parametrize("partitions", [1, 4])
def test_index_join_probe_racing_a_commit(partitions):
    """A writer thread commits rows under the probed secondary-index key
    while this thread runs an index nested-loop join through that key.  The
    probe takes its pk set when it is called, so a commit landing while the
    join still yields neither raises nor adds a row to the count."""
    db = Database(partitions=partitions)
    db.run_script("CREATE TABLE u (id INT PRIMARY KEY, k INT);"
                  "CREATE TABLE t (id INT PRIMARY KEY, b INT);"
                  "CREATE INDEX ib ON t (b)")
    db.bulk_load("u", [(1, 7)])
    db.bulk_load("t", [(i, 7) for i in range(5000)])
    store = db.storage.store("t")
    sql = "SELECT COUNT(*) FROM u JOIN t ON t.b = u.k WHERE u.id = 1"
    stats = db.query(sql).stats
    assert (stats.join_ops, stats.index_lookups) == (1, 1)  # IndexJoin
    stop = threading.Event()

    def writer():
        for pk in range(5000, 1_000_000):
            if stop.is_set():
                return
            # committed after every snapshot the joins read at
            store.install((pk,), (pk, 7), 10**9 + pk)
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.monotonic() + 5.0
        joins = 0
        while joins < 50 and time.monotonic() < deadline:
            assert db.query(sql).rows == [(5000,)]
            joins += 1
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()


@pytest.mark.parametrize("partitions", [1, 4])
def test_secondary_index_reads_at_an_older_snapshot(partitions):
    """A commit that moves a row off an index key, or deletes it, removes
    the row's index entry.  A transaction whose snapshot predates that
    commit still sees the row through the index — by equality, by key
    prefix and through an index join — as its sequential scan does, and
    still sees its own buffered insert."""
    db = Database(partitions=partitions)
    db.run_script("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT);"
                  "CREATE INDEX idx_k ON t (k);"
                  "CREATE TABLE p (id INT PRIMARY KEY, k INT, v INT);"
                  "CREATE INDEX idx_kv ON p (k, v);"
                  "CREATE TABLE u (id INT PRIMARY KEY, k INT)")
    for name in ("t", "p"):
        db.bulk_load(name, [(i, i % 2, i) for i in range(5)])
    db.bulk_load("u", [(1, 1)])
    index_reads = {
        "SELECT id FROM t WHERE k = 1": "SELECT id FROM t WHERE k + 0 = 1",
        "SELECT id FROM p WHERE k = 1": "SELECT id FROM p WHERE k + 0 = 1",
        "SELECT t.id FROM u JOIN t ON t.k = u.k WHERE u.id = 1":
            "SELECT id FROM t WHERE k + 0 = 1",
    }
    for sql in index_reads:
        assert db.query(sql).stats.index_lookups == 1, sql

    def ids(conn, sql):
        return sorted(conn.execute(sql).rows)

    old = db.connect()
    old.begin()
    with db.connect() as conn:
        for name in ("t", "p"):
            conn.execute(f"UPDATE {name} SET k = 7 WHERE id = 1")
            conn.execute(f"DELETE FROM {name} WHERE id = 3")
        conn.commit()
    for sql, scan in index_reads.items():
        assert ids(old, sql) == ids(old, scan) == [(1,), (3,)], sql
    old.execute("INSERT INTO t (id, k, v) VALUES (9, 1, 9)")
    assert ids(old, "SELECT id FROM t WHERE k = 1") == [(1,), (3,), (9,)]
    old.rollback()
    for sql, scan in index_reads.items():
        assert db.query(sql).rows == db.query(scan).rows == [], sql
    # a current snapshot reads the index: its own insert is the one row
    with db.connect() as conn:
        conn.execute("INSERT INTO t (id, k, v) VALUES (9, 1, 9)")
        result = conn.execute("SELECT id FROM t WHERE k = 1")
        assert result.rows == [(9,)]
        assert dict(result.stats.rows_row_store) == {"t": 1}
        conn.rollback()


@pytest.mark.parametrize("partitions", [1, 4])
def test_index_prefix_scan_racing_a_commit_that_empties_a_key(partitions):
    """A writer thread moves one row to a new key of a two-column index per
    commit while this thread reads through the index by key prefix, so
    commits empty keys the prefix scan has listed but not yet reached.
    Each read's snapshot is the visible watermark, so it never starts
    inside an install; the commits after it land during the read.  The
    scan skips an emptied key and a candidate copy a commit landed in is
    discarded, so no read raises and every read counts every row."""
    db = Database(partitions=partitions)
    db.run_script("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);"
                  "CREATE INDEX idx_ab ON t (a, b)")
    n = 2000
    db.bulk_load("t", [(i, 1, i) for i in range(n)])
    sql = "SELECT COUNT(*) FROM t WHERE a = 1"
    assert db.query(sql).stats.index_lookups == 1
    stop = threading.Event()

    def writer():
        with db.connect() as conn:
            for step in range(1_000_000):
                if stop.is_set():
                    return
                # a row at a spread-out position: the key it empties is
                # as often ahead of the prefix scan as behind it
                conn.execute("UPDATE t SET b = ? WHERE id = ?",
                             (n + step, step * 7919 % n))
                conn.commit()
                time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.monotonic() + 5.0
        reads = 0
        with db.connect() as conn:
            while reads < 50 and time.monotonic() < deadline:
                conn.begin()
                assert conn.execute(sql).rows == [(n,)]
                conn.commit()
                reads += 1
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
