"""Fig. 10 addendum — pooled scatter-gather vs the sequential engine.

The worker pool changes the wall-clock shape of the partitioned replica
two ways, and this bench measures their combined effect on the paper's
partition-parallel OLAP path (the scatter-gather half of Fig. 10):

* **background ordered compaction**: every ``replicate()`` on a pooled
  database schedules a forced delta->main merge on a pool worker, so by
  query time each partition is one sort-key-ordered, *encoded* run and
  the grouped full-scan aggregate takes the run-grouped encoded fold
  (one group lookup per RLE run, C-speed typed-slice folds).  The
  ``workers=0`` baseline only merges a partition once its delta crosses
  the segment threshold, so the same query pays the plain-delta per-row
  fold every round.
* **scatter-gather**: partition scans fold on pool workers and the
  partials merge in partition order.

Both arms answer byte-identically — parity is asserted every round
before any timing — so the recorded speedup is pure wall-clock.  The
measured ratio lands in ``BENCH_fig10.json`` under ``"pool"`` and CI
floor-checks it via ``record.py check BENCH_fig10.json
--min-pool-speedup 1.4``.
"""

import json
import time

from record import bench_path, record_bench

from repro.db import Database

PARTITIONS = 8
WORKERS = 4
ROWS = 16_000
CHUNK = 2_000            # incremental write chunk per round
ROUNDS = 2               # write->replicate->query rounds after the load
REPS = 15                # timed repetitions per arm per round
# grp forms ~1024-row runs in (grp, id) order — long enough that merged
# segments RLE-encode the key (RLE_MIN_AVG_RUN) even split 8 ways
GRP_WIDTH = 1_024
# one open delta segment per partition: the sequential arm's pending
# delta stays below this threshold for the whole bench, so it never
# merges and keeps paying the plain-row fold
SEGMENT_ROWS = 4_096

QUERY = "SELECT grp, COUNT(*), SUM(v), AVG(w) FROM t GROUP BY grp"


def _build(workers: int):
    # a zero sketch budget on both arms (nothing is ever cached): the
    # grouped full-scan aggregate is sketch-eligible, and warm cached
    # partials would otherwise stand in for the scatter-gather fold this
    # bench isolates (the sketch lever has its own fig05 arm and floor)
    db = Database(partitions=PARTITIONS, workers=workers,
                  with_columnar=True, columnar_segment_rows=SEGMENT_ROWS,
                  sort_keys={"t": ("grp", "id")},
                  sketch_budget_bytes=0)
    db.execute_ddl(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v DOUBLE, w INT)")
    conn = db.connect()
    _insert(conn, 0, ROWS)
    return db, conn


def _insert(conn, start: int, stop: int):
    for i in range(start, stop):
        conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                     (i, i // GRP_WIDTH, i * 0.25, i % 97))
    conn.commit()


def _advance(db, conn, round_no: int):
    """One ingest round: write a chunk, replicate, settle background work.

    ``replicate()`` is where the two arms diverge: the pooled database
    schedules the forced ordered merge on a worker (and ``quiesce``
    waits for it, keeping the merge *outside* the timed window — on the
    query path it would be off-thread anyway), while the sequential
    database leaves the delta unmerged below the segment threshold.
    """
    if round_no:
        start = ROWS + (round_no - 1) * CHUNK
        _insert(conn, start, start + CHUNK)
    db.replicate()
    db.quiesce()


def _timed_reps(conn) -> list[float]:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        list(conn.execute(QUERY, route_columnar=True))
        times.append(time.perf_counter() - t0)
    return times


def _trimmed_mean_ms(times: list[float]) -> float:
    """Mean of the faster half — robust against 1-core scheduler noise."""
    times = sorted(times)[:max(1, len(times) // 2)]
    return sum(times) / len(times) * 1000.0


def measure() -> dict:
    seq_db, seq_conn = _build(0)
    pool_db, pool_conn = _build(WORKERS)
    seq_ms = pool_ms = 0.0
    groups_coded = 0
    pool_workers_seen = 0
    for round_no in range(ROUNDS + 1):
        _advance(seq_db, seq_conn, round_no)
        _advance(pool_db, pool_conn, round_no)
        seq_result = seq_conn.execute(QUERY, route_columnar=True)
        pool_result = pool_conn.execute(QUERY, route_columnar=True)
        assert list(seq_result) == list(pool_result), \
            f"pooled result diverged from workers=0 in round {round_no}"
        groups_coded += pool_result.stats.groups_coded
        pool_workers_seen = max(pool_workers_seen,
                                pool_result.stats.pool_workers)
        seq_ms += _trimmed_mean_ms(_timed_reps(seq_conn))
        pool_ms += _trimmed_mean_ms(_timed_reps(pool_conn))
    return {
        "partitions": PARTITIONS,
        "workers": WORKERS,
        "rows": ROWS + ROUNDS * CHUNK,
        "rounds": ROUNDS + 1,
        "query": QUERY,
        "seq_ms": round(seq_ms, 3),
        "pool_ms": round(pool_ms, 3),
        "speedup": round(seq_ms / pool_ms, 3),
        "parity": True,
        "groups_coded": groups_coded,
        "bg_compactions": pool_db.bg_compactions_total,
    }


def test_fig10_pool():
    pool = measure()
    print(f"\npooled grouped full-scan aggregate "
          f"({pool['partitions']} partitions / {pool['workers']} workers): "
          f"{pool['pool_ms']:.1f} ms vs workers=0 {pool['seq_ms']:.1f} ms "
          f"-> {pool['speedup']:.2f}x")
    # shape criteria: the levers actually engaged (the wall-clock floor
    # itself is CI's record.py check, kept out of the pytest run so a
    # loaded laptop doesn't flake the suite)
    assert pool["parity"]
    assert pool["groups_coded"], \
        "merged segments never took the run-grouped encoded fold"
    assert pool["bg_compactions"], \
        "replicate() scheduled no background compactions"
    assert pool["speedup"] > 1.0

    # merge into the canonical record: the scalability bench owns the
    # other fig10 sections and preserves this one symmetrically
    path = bench_path("fig10")
    payload = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {"figure": "10", "workload": "subenchmark"}
    payload["pool"] = pool
    record_bench("fig10", payload)


if __name__ == "__main__":
    test_fig10_pool()
