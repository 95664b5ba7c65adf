"""The batch-at-a-time row pipeline: own-writes overlay, MVCC visibility
under batch scans, pinned cost-model counters and consumer laziness."""

from random import Random

import pytest

from repro.core.session import run_transaction
from repro.db import Database
from repro.storage.rowstore import SCAN_BATCH_ROWS
from repro.workloads import make_workload

PARTITIONS = (1, 2, 8)
N_ROWS = 2 * SCAN_BATCH_ROWS + 500      # three scan batches


def _bank(partitions: int) -> Database:
    db = Database(partitions=partitions)
    db.run_script("""
    CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT);
    CREATE TABLE grp_info (grp INT PRIMARY KEY, name VARCHAR(8))
    """)
    db.bulk_load("acct", ((i, i % 7, (i * 37) % 1000) for i in range(N_ROWS)))
    db.bulk_load("grp_info", ((g, f"g{g}") for g in range(7)))
    return db


# -- (a) a hybrid transaction's real-time query sees its own writes ----------

def _write_then_query(db: Database):
    """Insert, update and delete on ``acct``, then query it, all in one
    transaction; returns the results and the rows ``txn.get`` predicts."""
    last = N_ROWS - 1
    with db.connect() as conn:
        txn = conn.begin()
        conn.execute("UPDATE acct SET bal = bal + 5000 WHERE id = 10")
        conn.execute("UPDATE acct SET bal = 1, grp = 99 WHERE id = ?",
                     (SCAN_BATCH_ROWS + 7,))
        conn.execute("UPDATE acct SET bal = bal + 1 WHERE id = 10")
        conn.execute("DELETE FROM acct WHERE id = 20")
        conn.execute("DELETE FROM acct WHERE id = ?", (last,))
        conn.execute("INSERT INTO acct VALUES (?, 3, 777)", (N_ROWS + 50,))
        conn.execute("INSERT INTO acct VALUES (?, 99, 778)", (N_ROWS + 9,))
        conn.execute("DELETE FROM acct WHERE id = 30")
        conn.execute("INSERT INTO acct VALUES (30, 5, 30)")   # back in place
        # first-install order, then this transaction's inserts in write order
        keys = [*range(N_ROWS), N_ROWS + 50, N_ROWS + 9]
        expected = [row for key in keys
                    if (row := txn.get("acct", (key,))) is not None]
        results = {
            "rows": conn.execute("SELECT id, grp, bal FROM acct").rows,
            "global": conn.execute(
                "SELECT COUNT(*), SUM(bal), MIN(bal), MAX(bal), AVG(bal) "
                "FROM acct").rows,
            "grouped": conn.execute(
                "SELECT grp, COUNT(*), SUM(bal), MAX(id) FROM acct "
                "GROUP BY grp").rows,
            "filtered": conn.execute(
                "SELECT id FROM acct WHERE bal > 990 OR grp = 99").rows,
            "joined": conn.execute(
                "SELECT a.id, g.name FROM acct a "
                "JOIN grp_info g ON g.grp = a.grp").rows,
        }
        conn.rollback()
    return results, expected


@pytest.fixture(scope="module")
def overlay_runs():
    return {p: _write_then_query(_bank(p)) for p in PARTITIONS}


@pytest.mark.parametrize("partitions", PARTITIONS)
def test_queries_see_own_writes(overlay_runs, partitions):
    results, expected = overlay_runs[partitions]
    assert len(expected) == N_ROWS        # 2 deleted, 2 inserted
    assert results["rows"] == expected
    bals = [bal for _id, _grp, bal in expected]
    assert results["global"] == [(len(bals), sum(bals), min(bals), max(bals),
                                  sum(bals) / len(bals))]
    groups: dict = {}
    for key, grp, bal in expected:
        count, total, top = groups.get(grp, (0, 0, key))
        groups[grp] = (count + 1, total + bal, max(top, key))
    # group emission follows first appearance in scan order
    assert results["grouped"] == [(grp, *acc) for grp, acc in groups.items()]
    assert results["filtered"] == [(key,) for key, grp, bal in expected
                                   if bal > 990 or grp == 99]
    assert results["joined"] == [(key, f"g{grp}") for key, grp, _bal
                                 in expected if grp < 7]


def test_own_writes_order_is_partition_independent(overlay_runs):
    baseline, _expected = overlay_runs[1]
    for partitions in PARTITIONS[1:]:
        assert overlay_runs[partitions][0] == baseline


# -- (b) snapshots, tombstones and garbage collection under batch scans ------

@pytest.mark.parametrize("partitions", PARTITIONS)
def test_old_snapshot_tombstones_and_gc(partitions):
    db = _bank(partitions)
    full = "SELECT COUNT(*), SUM(bal) FROM acct"
    before = db.query(full).rows
    reader = db.connect()
    reader.begin()                        # snapshot older than what follows
    with db.connect() as writer:
        writer.begin()
        writer.execute("UPDATE acct SET bal = bal + 1")      # every chain
        writer.execute("DELETE FROM acct WHERE id < 100")    # tombstones
        writer.execute("INSERT INTO acct VALUES (?, 0, 5)", (N_ROWS,))
        writer.commit()
    after = db.query(full).rows
    total = before[0][1] + N_ROWS
    total -= sum((i * 37) % 1000 + 1 for i in range(100))
    assert after == [(N_ROWS - 100 + 1, total + 5)]
    # the old snapshot walks every chain past its newest version
    assert reader.execute(full).rows == before
    assert reader.execute("SELECT id FROM acct WHERE id < 3").rows == \
        [(0,), (1,), (2,)]
    reader.rollback()

    store = db.storage.store("acct")
    versions = store.version_count()
    watermark = db.txn_manager.current_ts()
    assert store.garbage_collect(watermark) == N_ROWS   # the superseded ones
    assert store.version_count() == versions - N_ROWS
    assert db.query(full).rows == after
    # chains were trimmed in place: a commit after the GC is still scanned
    with db.connect() as writer:
        writer.execute("UPDATE acct SET bal = 0 WHERE id = 100")
        writer.execute("UPDATE acct SET bal = 0 WHERE id = ?", (N_ROWS - 1,))
    pairs = dict(store.scan(db.txn_manager.current_ts()))
    assert pairs[(100,)][2] == 0 and pairs[(N_ROWS - 1,)][2] == 0
    assert list(pairs)[:2] == [(100,), (101,)]
    assert all(pairs[pk] == store.get(pk, db.txn_manager.current_ts())
               for pk in pairs)


@pytest.mark.parametrize("partitions", PARTITIONS)
@pytest.mark.parametrize("older", (False, True),
                         ids=("at_last_commit", "below_last_commit"))
def test_scan_outlives_a_commit(partitions, older):
    """A store scan partly consumed when a commit updates a row it has not
    reached yet and inserts a new key finishes its own snapshot: no
    ``dictionary changed size during iteration``, no row of the commit."""
    db = _bank(partitions)
    store = db.storage.store("acct")
    ts = db.txn_manager.current_ts()
    if older:
        with db.connect() as writer:          # a commit the snapshot predates
            writer.execute("UPDATE acct SET bal = -1 WHERE id = ?",
                           (N_ROWS - 2,))
    expected = [((i,), store.get((i,), ts)) for i in range(N_ROWS)]
    batches = store.scan_batches(ts)
    pks, rows = next(batches)
    with db.connect() as writer:
        writer.execute("UPDATE acct SET bal = -2 WHERE id = ?", (N_ROWS - 1,))
        writer.execute("INSERT INTO acct VALUES (?, 0, 0)", (N_ROWS,))
    flattened = [*zip(pks, rows),
                 *(pair for pks, rows in batches for pair in zip(pks, rows))]
    assert flattened == expected


# -- (c) the cost model's inputs are unchanged --------------------------------

_PINNED = ("rows_row_store", "full_scans", "partitions_scanned",
           "agg_input_rows", "groups", "rows_joined", "sort_rows")

# ExecStats of each hybrid program's real-time query at the commit before
# the batch pipeline (scale 0.05, 4 partitions, load seed 7, program seed 13)
_REALTIME_STATS = {
    "fibenchmark/X1": ({"checking": 1500}, {"checking": 1}, 4, 1500, 1, 0, 0),
    "fibenchmark/X2": ({"saving": 1500}, {"saving": 1}, 4, 1500, 1, 0, 0),
    "fibenchmark/X3": ({"checking": 1500}, {"checking": 1}, 4, 0, 1, 0, 0),
    "fibenchmark/X4": ({"saving": 1500}, {"saving": 1}, 4, 1500, 1, 0, 0),
    "fibenchmark/X5": ({"checking": 1500}, {"checking": 1}, 4, 1500, 1, 0, 0),
    "fibenchmark/X6": ({"saving": 1500}, {"saving": 1}, 4, 1500, 1, 0, 0),
    "subenchmark/X1": ({"item": 15000}, {"item": 1}, 4, 15000, 1, 0, 0),
    "subenchmark/X2": ({"history": 3000}, {"history": 1}, 4, 3000, 1, 0, 0),
    "subenchmark/X3": ({"order_line": 29845}, {}, 1, 29845, 1, 0, 0),
    "subenchmark/X4": ({"stock": 15000}, {}, 1, 15000, 1, 0, 0),
    "subenchmark/X5": ({"item": 15000}, {"item": 1}, 4, 15000, 1, 0, 0),
}


def _realtime_stats(name: str) -> dict:
    db = Database(partitions=4)
    workload = make_workload(name)
    workload.install(db, Random(7), scale=0.05)
    pinned = {}
    for profile in workload.profiles("hybrid"):
        with db.connect() as conn:
            work = run_transaction(conn, "hybrid", profile.name,
                                   profile.program, Random(13))
        assert not work.aborted
        pinned[f"{name}/{profile.name}"] = tuple(
            dict(value) if isinstance(value, dict) else value
            for value in (getattr(work.realtime_stats, field)
                          for field in _PINNED))
    return pinned


@pytest.mark.parametrize("workload", ("fibenchmark", "subenchmark"))
def test_realtime_query_stats_are_pinned(workload):
    measured = _realtime_stats(workload)
    assert measured == {name: stats for name, stats in _REALTIME_STATS.items()
                        if name.startswith(workload)}


# -- (d) lazy consumers still pull row by row ---------------------------------

@pytest.mark.parametrize("partitions", (1, 4))
def test_limit_reads_a_constant_number_of_rows(partitions):
    db = Database(partitions=partitions)
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.bulk_load("t", ((i, i * 2) for i in range(10_000)))
    store = db.storage.store("t")
    handed_out = []
    scan_batches = store.scan_batches

    def spy(ts, size=SCAN_BATCH_ROWS):
        for pks, rows in scan_batches(ts, size):
            handed_out.append(len(rows))
            yield pks, rows

    store.scan_batches = spy
    result = db.query("SELECT v FROM t LIMIT 1")
    assert result.rows == [(0,)]
    assert result.stats.rows_row_store == {"t": 1}
    assert handed_out == [1]              # the store itself read one row
    handed_out.clear()
    result = db.query("SELECT v FROM t WHERE v >= 10 LIMIT 2")
    assert result.rows == [(10,), (12,)]
    assert result.stats.rows_row_store == {"t": 7}
    assert sum(handed_out) == 7
    handed_out.clear()
    result = db.query("SELECT COUNT(*) FROM t")      # a drain: full batches
    assert result.stats.rows_row_store == {"t": 10_000}
    assert max(handed_out) == SCAN_BATCH_ROWS
