"""Segment sketches: the cached aggregate states of runs of sealed segments.

Covers the storage-level cache (build/hit/epoch invalidation/LRU
eviction), the run rule and its invalidation cases, planner eligibility,
kill -> correction-overlay -> compaction re-seal correctness (cold and
warm answers checked against the row oracle on the same replica),
circuit-breaker bypass (degraded statements never serve a stale sketch),
counter plumbing to reports, and this layer's view of the three-workload
parity matrix.
"""

from itertools import chain
from random import Random
from unittest import mock

import pytest

from repro.core.config import BenchConfig
from repro.core.report import render_csv, render_text
from repro.core.runner import RunReport
from repro.db import Database
from repro.sql import vectorized
from repro.storage import columnstore
from repro.workloads import make_workload

NATIONS = ["FRANCE", "GERMANY", "BRAZIL", "JAPAN", "INDIA", "KENYA",
           "CANADA"]

GROUPED_SQL = ("SELECT nation, COUNT(*) AS n, SUM(amount) AS s, "
               "AVG(qty) AS a, MIN(amount) AS mn, MAX(amount) AS mx "
               "FROM cust GROUP BY nation ORDER BY nation")
NOT_NULL_SQL = ("SELECT qty, COUNT(*) AS n, SUM(amount) AS s FROM cust "
                "WHERE d IS NOT NULL GROUP BY qty ORDER BY qty")
GLOBAL_SQL = "SELECT COUNT(*) AS n, SUM(qty) AS s FROM cust"


def _make_db(segment_rows=64, partitions=1,
             sketch_budget_bytes=columnstore.SKETCH_BUDGET_BYTES):
    # the sketch cache reads its budget when the replica builds it
    with mock.patch.object(columnstore, "SKETCH_BUDGET_BYTES",
                           sketch_budget_bytes):
        db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                      partitions=partitions)
    db.execute_ddl(
        "CREATE TABLE cust ("
        "  id INT PRIMARY KEY,"
        "  nation VARCHAR,"
        "  qty INT,"
        "  amount DOUBLE,"
        "  d VARCHAR"
        ")")
    return db


def _fill(db, n=640, seed=11):
    rng = Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    with db.connect() as conn:
        for i in ids:
            d = None if i % 9 == 4 else f"2026-{(i % 12) + 1:02d}"
            conn.execute(
                "INSERT INTO cust (id, nation, qty, amount, d) "
                "VALUES (?, ?, ?, ?, ?)",
                (i, NATIONS[i % 7], i % 13, float(i) * 0.25, d))
        conn.commit()
    db.replicate()
    db.columnar.compact(force=True)
    return db


# subenchmark's Q1 (an IS NOT NULL filter) and Q5 (a groupjoin), as the
# fig05 benchmark runs them
SUBENCH_Q1 = ("SELECT ol_number, SUM(ol_quantity) AS total_qty, "
              "SUM(ol_amount) AS total_amount, AVG(ol_quantity) AS avg_qty, "
              "AVG(ol_amount) AS avg_amount, COUNT(*) AS line_count "
              "FROM order_line WHERE ol_delivery_d IS NOT NULL "
              "GROUP BY ol_number ORDER BY ol_number")
SUBENCH_Q5 = ("SELECT ol.ol_i_id, i.i_name, SUM(ol.ol_amount) AS revenue, "
              "SUM(ol.ol_quantity) AS units "
              "FROM order_line ol JOIN item i ON i.i_id = ol.ol_i_id "
              "GROUP BY ol.ol_i_id, i.i_name ORDER BY revenue DESC LIMIT 10")


@pytest.fixture(scope="module")
def subenchmark_db():
    db = Database(with_columnar=True, columnar_segment_rows=64)
    make_workload("subenchmark").install(db, Random(2), 0.05,
                                         with_foreign_keys=False)
    db.replicate()
    db.columnar.compact(force=True)
    return db


# ---------------------------------------------------------------------------
# cache level: build, hit, elision, budget
# ---------------------------------------------------------------------------

class TestSketchCache:
    def test_cold_build_then_warm_hit(self, routed):
        db = _fill(_make_db())
        cold = routed(db, GROUPED_SQL)
        assert cold.stats.sketches_built > 0
        assert cold.stats.sketches_hit == 0
        warm = routed(db, GROUPED_SQL)
        assert warm.stats.sketches_built == 0
        assert warm.stats.sketches_hit == cold.stats.sketches_built
        assert warm.stats.sketch_rows_elided >= 640 - 640 % 64
        assert warm.rows == cold.rows

    def test_warm_rows_match_sketches_off(self, routed):
        on = _fill(_make_db())
        for sql in (GROUPED_SQL, NOT_NULL_SQL, GLOBAL_SQL):
            baseline = routed(on, sql, vectorized=False)
            assert baseline.stats.sketches_built == 0
            assert baseline.stats.sketches_hit == 0
            cold = routed(on, sql)
            warm = routed(on, sql)
            assert cold.stats.sketches_built > 0
            assert warm.stats.sketches_hit > 0
            assert cold.rows == baseline.rows
            assert warm.rows == baseline.rows

    def test_not_null_pushdown_keeps_sketch_eligibility(self, routed):
        # the null-free qty/amount segments still serve whole-segment
        # sketches under WHERE d IS NOT NULL: only segments that actually
        # contain a NULL d fall back to the row fold
        db = _fill(_make_db())
        routed(db, NOT_NULL_SQL)
        warm = routed(db, NOT_NULL_SQL)
        assert warm.stats.sketches_hit > 0

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_warm_not_null_hit_builds_no_selection(self, routed,
                                                   monkeypatch, partitions):
        """A warm hit over segments holding NULLs needs their surviving
        row count, not their offsets: the IS NOT NULL selection is built
        by the cold fold alone, and both answer alike."""
        db = _fill(_make_db(partitions=partitions))
        built = []
        selection = vectorized._not_null_selection

        def spy(column):
            built.append(len(column))
            return selection(column)
        monkeypatch.setattr(vectorized, "_not_null_selection", spy)
        cold = routed(db, NOT_NULL_SQL)
        assert built and cold.stats.sketches_built > 0
        built.clear()
        warm = routed(db, NOT_NULL_SQL)
        assert built == []
        assert warm.stats.sketches_hit == cold.stats.sketches_built
        assert warm.rows == cold.rows \
            == routed(db, NOT_NULL_SQL, vectorized=False).rows

    def test_encoding_stats_report_sketch_memory(self, routed):
        db = _fill(_make_db())
        before = db.columnar.encoding_stats()
        assert before["sketches_cached"] == 0
        assert before["sketch_bytes"] == 0
        routed(db, GROUPED_SQL)
        stats = db.columnar.encoding_stats()
        assert stats["sketches_cached"] > 0
        assert stats["sketch_bytes"] > 0
        assert stats["sketch_evictions"] == 0

    def test_lru_eviction_under_tiny_budget(self, routed):
        # room for any one shape's run state (GROUPED_SQL's is the largest,
        # ~5 kB), not for GROUPED_SQL's and NOT_NULL_SQL's together
        db = _fill(_make_db(sketch_budget_bytes=6144))
        for sql in (GROUPED_SQL, NOT_NULL_SQL, GLOBAL_SQL):
            routed(db, sql)
        cache = db.columnar.sketches
        assert cache.evicted > 0
        assert cache.total_bytes <= 6144
        # evicted entries rebuild on demand and stay correct
        for sql in (GROUPED_SQL, NOT_NULL_SQL, GLOBAL_SQL):
            assert routed(db, sql).rows == \
                routed(db, sql, vectorized=False).rows

    def test_budget_is_read_when_the_replica_builds_its_cache(self):
        # no constructor option sizes the cache: it takes
        # SKETCH_BUDGET_BYTES as it stands when the replica is built
        with pytest.raises(TypeError):
            Database(with_columnar=True, sketch_budget_bytes=64)
        assert _make_db().columnar.sketches.budget_bytes \
            == columnstore.SKETCH_BUDGET_BYTES
        db = _make_db(sketch_budget_bytes=64)
        assert columnstore.SKETCH_BUDGET_BYTES != 64
        assert db.columnar.sketches.budget_bytes == 64

    def test_oversized_entry_is_never_cached(self, routed):
        db = _fill(_make_db(sketch_budget_bytes=64))
        routed(db, GROUPED_SQL)
        cache = db.columnar.sketches
        assert len(cache) == 0
        assert cache.total_bytes == 0


# ---------------------------------------------------------------------------
# invalidation: kill -> correction overlay -> compaction re-seal
# ---------------------------------------------------------------------------

class TestSketchInvalidation:
    @staticmethod
    def _warm(routed, db):
        routed(db, GROUPED_SQL)
        warm = routed(db, GROUPED_SQL)
        assert warm.stats.sketches_hit > 0
        return warm

    def test_update_of_main_row_invalidates_and_corrects(self, routed):
        db = _fill(_make_db())
        stale = self._warm(routed, db)
        invalidated_before = db.columnar.sketches.invalidated
        with db.connect() as conn:
            conn.execute("UPDATE cust SET amount = ?, qty = ? WHERE id = ?",
                         (99999.5, 12, 17))
            conn.commit()
        db.replicate()
        # the kill eagerly dropped the run over the victim segment
        assert db.columnar.sketches.invalidated > invalidated_before
        corrected = routed(db, GROUPED_SQL)
        assert corrected.rows != stale.rows
        assert corrected.rows == \
            routed(db, GROUPED_SQL, vectorized=False).rows
        # the killed segment row-folds (partially-live segments are not
        # cached until compaction re-seals them) and the 9 untouched ones
        # are a new run: built once, then served
        assert corrected.stats.sketches_hit == 0
        assert corrected.stats.sketches_built == 9
        assert routed(db, GROUPED_SQL).stats.sketches_hit == 9
        db.columnar.compact(force=True)
        resealed = routed(db, GROUPED_SQL)
        assert resealed.rows == corrected.rows
        assert resealed.stats.sketches_built >= 1
        warm = routed(db, GROUPED_SQL)
        assert warm.stats.sketches_built == 0
        assert warm.rows == resealed.rows

    def test_delete_of_main_rows_invalidates_and_corrects(self, routed):
        db = _fill(_make_db())
        stale = self._warm(routed, db)
        routed(db, NOT_NULL_SQL)
        with db.connect() as conn:
            conn.execute("DELETE FROM cust WHERE id < ?", (40,))
            conn.commit()
        db.replicate()
        for sql in (GROUPED_SQL, NOT_NULL_SQL):
            # the runs over the victim segment are gone: the surviving
            # whole segments are new runs, built once, then served
            corrected = routed(db, sql)
            assert corrected.stats.sketches_built > 0
            assert corrected.rows == routed(db, sql, vectorized=False).rows
            warm = routed(db, sql)
            assert warm.stats.sketches_hit > 0
            assert warm.rows == corrected.rows
        assert routed(db, GROUPED_SQL).rows != stale.rows

    def test_compaction_reseal_drops_merged_partials(self, routed):
        db = _fill(_make_db())
        stale = self._warm(routed, db)
        with db.connect() as conn:
            conn.execute("UPDATE cust SET amount = ? WHERE id = ?",
                         (-1.5, 100))
            conn.execute("DELETE FROM cust WHERE id = ?", (101,))
            conn.commit()
        db.replicate()
        db.columnar.compact(force=True)
        rebuilt = routed(db, GROUPED_SQL)
        assert rebuilt.stats.sketches_built >= 1
        assert rebuilt.rows != stale.rows
        assert rebuilt.rows == routed(db, GROUPED_SQL, vectorized=False).rows
        warm = routed(db, GROUPED_SQL)
        assert warm.rows == rebuilt.rows
        assert warm.stats.sketches_built == 0
        assert warm.stats.sketches_hit > 0

    def test_disjoint_delta_merges_into_a_non_empty_main(self, routed):
        # a delta keyed past every main row still rewrites the whole main:
        # no partial of an old main segment outlives the merge, and the
        # answers are the row store's
        db = _fill(_make_db())
        self._warm(routed, db)
        main = db.columnar.table_partitions("cust")[0].read_snapshot()[0]
        assert len(main) == 10 and len(db.columnar.sketches) > 0
        with db.connect() as conn:
            for i in range(1000, 1010):
                conn.execute(
                    "INSERT INTO cust (id, nation, qty, amount, d) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (i, NATIONS[i % 7], i % 13, float(i) * 0.25, None))
            conn.commit()
        db.replicate()
        merged_before = db.columnar.segments_merged_total()
        db.columnar.compact(force=True)
        assert db.columnar.segments_merged_total() == merged_before + 11
        assert len(db.columnar.sketches) == 0
        with db.connect() as conn:
            expected = conn.execute(GROUPED_SQL).rows
            conn.commit()
        rebuilt = routed(db, GROUPED_SQL)
        assert rebuilt.rows == expected
        assert rebuilt.stats.sketches_hit == 0
        assert rebuilt.stats.sketches_built > 0
        assert routed(db, GROUPED_SQL).rows == expected


# ---------------------------------------------------------------------------
# planner: eligibility
# ---------------------------------------------------------------------------

class TestSketchPlanning:
    def test_residual_predicate_disables_sketches(self, routed):
        db = _fill(_make_db())
        sql = ("SELECT nation, COUNT(*) AS n FROM cust "
               "WHERE qty + 1 > 3 GROUP BY nation ORDER BY nation")
        routed(db, sql)
        warm = routed(db, sql)
        assert warm.stats.sketches_built == 0
        assert warm.stats.sketches_hit == 0
        assert warm.rows == routed(db, sql, vectorized=False).rows

    def test_distinct_aggregate_disables_sketches(self, routed):
        db = _fill(_make_db())
        sql = ("SELECT nation, COUNT(DISTINCT qty) AS n FROM cust "
               "GROUP BY nation ORDER BY nation")
        routed(db, sql)
        warm = routed(db, sql)
        assert warm.stats.sketches_built == 0
        assert warm.stats.sketches_hit == 0

    def test_projection_variants_share_cached_partials(self, routed):
        # sketch keys are expressed in table positions, so a different
        # projection of the same aggregate reuses the warm partials
        db = _fill(_make_db())
        routed(db, "SELECT nation, SUM(amount) AS s FROM cust "
                    "GROUP BY nation ORDER BY nation")
        warm = routed(db, "SELECT SUM(amount) AS s, nation FROM cust "
                           "GROUP BY nation ORDER BY nation")
        assert warm.stats.sketches_hit > 0
        assert warm.stats.sketches_built == 0


    @pytest.mark.parametrize("sql", [SUBENCH_Q1, SUBENCH_Q5],
                             ids=["Q1", "Q5"])
    def test_the_row_tree_never_reads_the_cache(self, routed,
                                                subenchmark_db, sql):
        # both trees plan one aggregate operator; only the vector tree's
        # gets a sketch key, so the oracle folds every row, warm or cold
        db = subenchmark_db
        engine = routed(db, sql)
        assert engine.stats.sketches_built > 0
        cached = len(db.columnar.sketches)
        assert cached > 0
        for _ in range(2):
            oracle = routed(db, sql, vectorized=False)
            assert oracle.stats.sketches_built == 0
            assert oracle.stats.sketches_hit == 0
            assert len(db.columnar.sketches) == cached
            assert oracle.rows == engine.rows


# ---------------------------------------------------------------------------
# circuit breaker: degraded statements bypass (never poison) the cache
# ---------------------------------------------------------------------------

class TestBreakerBypass:
    def test_degraded_statements_never_serve_a_stale_sketch(self, routed):
        db = _fill(_make_db())
        stale = routed(db, GROUPED_SQL)
        assert routed(db, GROUPED_SQL).stats.sketches_hit > 0
        # mutate the row store but let the replica lag: every cached
        # partial is now stale relative to the primary
        with db.connect() as conn:
            conn.execute("UPDATE cust SET amount = ? WHERE id = ?",
                         (123456.0, 5))
            conn.commit()
        assert db.replication_lag() > 0
        cached = len(db.columnar.sketches)
        db.failpoints.arm("replica.scan", always=True, max_triggers=64)
        try:
            for _ in range(4):
                degraded = routed(db, GROUPED_SQL)
                assert degraded.stats.degraded_statements == 1
                # the row pipeline never consults the sketch cache
                assert degraded.stats.sketches_hit == 0
                assert degraded.stats.sketches_built == 0
                # and it sees the fresh primary data the replica lacks
                assert degraded.rows != stale.rows
                assert any(row[2] > 123000.0 for row in degraded.rows)
        finally:
            db.failpoints.disarm_all()
        # degradation bypassed the cache without poisoning it: the warm
        # entries are untouched ...
        assert len(db.columnar.sketches) == cached
        # ... and once the breaker heals and the replica catches up, the
        # columnar path serves the fresh answer (the kill invalidates the
        # stale partial; epoch checks backstop it)
        db.replicate()
        while db.replica_breaker.is_open:
            routed(db, GLOBAL_SQL)
        healed = routed(db, GROUPED_SQL)
        assert healed.stats.degraded_statements == 0
        assert healed.rows == degraded.rows


# ---------------------------------------------------------------------------
# counter plumbing: ExecStats -> RunReport -> text/CSV
# ---------------------------------------------------------------------------

class TestCounterPlumbing:
    def _report(self):
        report = RunReport(
            config=BenchConfig(workload="subenchmark"),
            engine="test", window_ms=1000.0)
        report.sketches_built = 12
        report.sketches_hit = 340
        report.sketch_rows_elided = 56789
        report.sketch_invalidations = 4
        return report

    def test_summary_and_text_show_sketch_counters(self):
        text = render_text(self._report())
        assert "built=12" in text
        assert "hit=340" in text
        assert "rows_elided=56789" in text
        assert "invalidations=4" in text
        assert "sketches:" in self._report().summary_text()

    def test_csv_carries_sketch_counters(self):
        import csv as csv_mod
        import io

        report = self._report()
        report.classes["olap"] = report.metrics("olap")
        rows = list(csv_mod.DictReader(io.StringIO(render_csv([report]))))
        assert rows[0]["sketches_built"] == "12"
        assert rows[0]["sketches_hit"] == "340"
        assert rows[0]["sketch_rows_elided"] == "56789"
        assert rows[0]["sketch_invalidations"] == "4"


# ---------------------------------------------------------------------------
# groupjoin: an aggregate over an FK -> PK join folds its probe side through
# the sketch cache, then probes the build side once per group
# ---------------------------------------------------------------------------

# items 0..29 exist; line keys run to 44 (orphans) and every 11th is NULL
ITEM_IDS = range(30)
LINE_KEYS = 45

GROUPJOIN_SQL = (
    "SELECT l.l_i_id, i.i_name, SUM(l.l_amount) AS revenue, "
    "SUM(l.l_qty) AS units, COUNT(*) AS n "
    "FROM line l JOIN item i ON i.i_id = l.l_i_id "
    "GROUP BY l.l_i_id, i.i_name")
RANKED_GROUPJOIN = GROUPJOIN_SQL + " ORDER BY revenue DESC LIMIT 4"
UNRANKED_GROUPJOIN = GROUPJOIN_SQL + " ORDER BY l.l_i_id"
FILTERED_GROUPJOIN = GROUPJOIN_SQL.replace(
    "GROUP BY", "WHERE i.i_price > 12 GROUP BY") + \
    " ORDER BY revenue DESC LIMIT 4"


def _groupjoin_db(partitions, amount=lambda i: float(i % 17) * 0.5):
    """``line`` (probe side, sealed in 16-row segments) over ``item``
    (build side, PK ``i_id``): orphan and NULL probe keys included."""
    db = Database(with_columnar=True, columnar_segment_rows=16,
                  partitions=partitions)
    db.execute_ddl("CREATE TABLE item (i_id INT PRIMARY KEY, "
                   "i_name VARCHAR, i_price DOUBLE)")
    db.execute_ddl("CREATE TABLE line (l_id INT PRIMARY KEY, l_i_id INT, "
                   "l_amount DOUBLE, l_qty INT)")
    db.bulk_load("item", [(i, f"item{i:02d}", float(i)) for i in ITEM_IDS])
    db.bulk_load("line", [
        (i, None if i % 11 == 3 else (i * 7) % LINE_KEYS, amount(i), i % 5)
        for i in range(400)])
    db.replicate()
    db.columnar.compact(force=True)
    return db


def _groupjoin_nodes(db, sql):
    """The vector tree's aggregate nodes that run as a groupjoin."""
    nodes, found = [db.prepare(sql).vectorized_root], []
    while nodes:
        node = nodes.pop()
        if getattr(node, "groupjoin", None) is not None:
            found.append(node)
        nodes += node.children()
    return found


@pytest.mark.parametrize("partitions", [1, 4])
class TestGroupjoin:
    def _cold_then_warm(self, routed, db, sql):
        """Both runs byte-identical to the row oracle; the cold one built
        partials (a join-then-fold never can), the warm one hit them."""
        assert _groupjoin_nodes(db, sql)
        expected = routed(db, sql, vectorized=False).rows
        db.columnar.sketches.clear()
        cold = routed(db, sql)
        warm = routed(db, sql)
        assert cold.rows == warm.rows == expected
        assert cold.stats.sketches_built > 0
        assert warm.stats.sketches_hit > 0 and not warm.stats.sketches_built
        return warm

    @pytest.mark.parametrize("sql", [RANKED_GROUPJOIN, UNRANKED_GROUPJOIN,
                                     FILTERED_GROUPJOIN])
    def test_orphan_and_null_probe_keys(self, routed, partitions, sql):
        db = _groupjoin_db(partitions)
        warm = self._cold_then_warm(routed, db, sql)
        keys = [row[0] for row in routed(db, UNRANKED_GROUPJOIN).rows]
        # orphans and the NULL key were folded but never emitted
        assert keys == sorted(ITEM_IDS)
        assert warm.rows

    def test_kth_tie_among_candidates_with_an_unmatched_group(
            self, routed, partitions):
        # matched revenues tie at the 4th rank, and the orphan keys carry
        # the largest totals: ranking them before the join drops would
        # push the cut above the tie
        def amount(i):
            key = (i * 7) % LINE_KEYS
            return 1000.0 if key >= 30 else float(key % 3)
        db = _groupjoin_db(partitions, amount)
        warm = self._cold_then_warm(routed, db, RANKED_GROUPJOIN)
        assert len(warm.rows) == 4
        assert all(row[2] < 1000.0 for row in warm.rows)

    def test_build_side_changes_between_warm_statements(
            self, routed, partitions):
        db = _groupjoin_db(partitions)
        before = self._cold_then_warm(routed, db, UNRANKED_GROUPJOIN)
        with db.connect() as conn:
            conn.execute("UPDATE item SET i_name = ? WHERE i_id = ?",
                         ("renamed", 7))
            conn.execute("DELETE FROM item WHERE i_id = ?", (8,))
            conn.commit()
        db.replicate()
        after = routed(db, UNRANKED_GROUPJOIN)
        assert after.rows == \
            routed(db, UNRANKED_GROUPJOIN, vectorized=False).rows
        # the probe side is untouched: its cached partials still serve,
        # and they never held a build-side value
        assert after.stats.sketches_hit > 0 and not after.stats.sketches_built
        names = {row[0]: row[1] for row in after.rows}
        assert names[7] == "renamed" and 8 not in names
        assert {row[0]: row[1] for row in before.rows}[8] == "item08"

    def test_repeated_build_key_folds_the_join(self, routed, partitions):
        # no dependent column: eligible, but the build key repeats, so the
        # data sends the statement down the join-then-fold path
        db = _groupjoin_db(partitions)
        db.execute_ddl("CREATE TABLE tag (t_id INT PRIMARY KEY, t_i_id INT)")
        db.bulk_load("tag", [(t, t % 10) for t in range(25)])
        db.replicate()
        sql = ("SELECT l.l_i_id, SUM(l.l_qty) AS units, COUNT(*) AS n "
               "FROM line l JOIN tag t ON t.t_i_id = l.l_i_id "
               "GROUP BY l.l_i_id ORDER BY units DESC LIMIT 3")
        assert _groupjoin_nodes(db, sql)
        joined = routed(db, sql)
        assert joined.rows == routed(db, sql, vectorized=False).rows
        assert not joined.stats.sketches_built
        assert joined.stats.join_ops == 1


# ---------------------------------------------------------------------------
# the run rule: one cached state per run of consecutive whole sealed segments
# ---------------------------------------------------------------------------

def _sketch_key(db, sql):
    """The sketch key of the statement's sketch-eligible aggregate (the
    probe-side one under a groupjoin)."""
    nodes = [db.prepare(sql).vectorized_root]
    while nodes:
        node = nodes.pop()
        if getattr(node, "groupjoin", None) is not None:
            return node.groupjoin[0].sketch_key
        if getattr(node, "sketch_key", None) is not None:
            return node.sketch_key
        nodes += node.children()
    raise AssertionError("no sketch-eligible aggregate")


def _runs(db, table):
    """The runs of whole sealed segments a full scan of ``table`` emits:
    maximal stretches in stream order, ended by any other segment."""
    runs, run = [], []
    for part in db.columnar.table_partitions(table):
        main, delta = part.read_snapshot()
        for segment in chain(main, delta):
            if not segment.live_count:
                continue
            if segment.encoded and segment.live_count == segment.size:
                run.append(segment)
            elif run:
                runs.append(run)
                run = []
    return runs + [run] if run else runs


def _run_rule(db, table, key):
    """``(sketches_built, sketches_hit)`` a statement earns under the run
    rule: every segment of a run whose state is cached under the run's
    current identities and epochs hits, every other whole segment builds."""
    cache = db.columnar.sketches
    built = hit = 0
    for run in _runs(db, table):
        if cache.run_key(run, key) in cache._entries:
            hit += len(run)
        else:
            built += len(run)
    return built, hit


def _cached(db, key) -> int:
    """Entries cached for the sketch key ``key``, current or not."""
    return sum(1 for run_key in db.columnar.sketches._entries
               if run_key[1] == key)


@pytest.mark.parametrize("partitions", [1, 4])
class TestSketchRuns:
    """The run rule (``SegmentSketchCache``): a run's state is keyed by
    its segments' identities and epochs, dropped with any of its segments
    — and never handed out for a statement to fold or attach into.  Each
    statement is checked against the row oracle and against the counters
    the run rule gives."""

    def _check(self, routed, db, sql, table="cust"):
        """Run ``sql`` three times on the engine; each byte-identical to
        the oracle with the run rule's counters, the last two served from
        the cache (a statement that folded into a cached state spoils the
        next), and every run cached once with no stale entry left over."""
        key = _sketch_key(db, sql)
        expected = routed(db, sql, vectorized=False).rows
        for _ in range(3):
            built, hit = _run_rule(db, table, key)
            result = routed(db, sql)
            assert result.rows == expected
            assert (result.stats.sketches_built,
                    result.stats.sketches_hit) == (built, hit)
            runs = _runs(db, table)
            assert _cached(db, key) == len(runs)
            assert _run_rule(db, table, key) == (0, sum(map(len, runs)))
        assert not result.stats.sketches_built
        return result

    def test_kill_in_one_segment_between_warm_statements(
            self, routed, partitions):
        db = _fill(_make_db(partitions=partitions))
        assert sum(map(len, _runs(db, "cust"))) >= 3
        warm = self._check(routed, db, GROUPED_SQL)
        invalidated = db.columnar.sketches.invalidated
        with db.connect() as conn:
            conn.execute("DELETE FROM cust WHERE id = ?", (300,))
            conn.commit()
        db.replicate()
        # the one run over the victim segment dropped, and counted
        assert db.columnar.sketches.invalidated == invalidated + 1
        assert _cached(db, _sketch_key(db, GROUPED_SQL)) == 0
        assert self._check(routed, db, GROUPED_SQL).rows != warm.rows

    def test_update_moves_a_main_row_to_the_delta(self, routed, partitions):
        db = _fill(_make_db(partitions=partitions))
        warm = self._check(routed, db, GROUPED_SQL)
        with db.connect() as conn:
            conn.execute("UPDATE cust SET amount = ? WHERE id = ?",
                         (-7.25, 200))
            conn.commit()
        db.replicate()
        assert self._check(routed, db, GROUPED_SQL).rows != warm.rows

    def test_forced_merge_swap(self, routed, partitions):
        db = _fill(_make_db(partitions=partitions))
        stale = self._check(routed, db, GROUPED_SQL)
        with db.connect() as conn:
            conn.execute("UPDATE cust SET qty = ? WHERE id = ?", (12, 9))
            conn.execute("INSERT INTO cust (id, nation, qty, amount, d) "
                         "VALUES (?, ?, ?, ?, ?)",
                         (2000, "PERU", 1, 2.5, None))
            conn.commit()
        db.replicate()
        db.columnar.compact(force=True)
        # the swapped-out segments took the cached runs over them along
        assert _cached(db, _sketch_key(db, GROUPED_SQL)) == 0
        assert self._check(routed, db, GROUPED_SQL).rows != stale.rows

    def test_drop_and_recreate_the_table(self, routed, partitions):
        db = _fill(_make_db(partitions=partitions))
        stale = self._check(routed, db, GROUPED_SQL)
        db.execute_ddl("DROP TABLE cust")
        assert not db.columnar.sketches._entries
        db.execute_ddl(
            "CREATE TABLE cust (id INT PRIMARY KEY, nation VARCHAR, "
            "qty INT, amount DOUBLE, d VARCHAR)")
        _fill(db, n=480, seed=5)
        assert self._check(routed, db, GROUPED_SQL).rows != stale.rows

    def test_eviction_under_a_budget_holding_one_shape(
            self, routed, partitions):
        # room for one shape's run state, not for two shapes'
        probe = _fill(_make_db(partitions=partitions))
        routed(probe, GROUPED_SQL)
        budget = probe.columnar.sketches.total_bytes + 512
        db = _fill(_make_db(partitions=partitions,
                            sketch_budget_bytes=budget))
        other = ("SELECT qty, COUNT(*) AS n, SUM(amount) AS s FROM cust "
                 "GROUP BY qty ORDER BY qty")
        key = _sketch_key(db, GROUPED_SQL)
        self._check(routed, db, GROUPED_SQL)
        assert _cached(db, key) == 1
        # the other shape's state evicts GROUPED_SQL's, which is then
        # rebuilt whole (and evicts the other shape's in turn)
        routed(db, other)
        cache = db.columnar.sketches
        assert cache.evicted > 0 and cache.total_bytes <= budget
        assert _cached(db, key) == 0
        assert _cached(db, _sketch_key(db, other)) == 1
        self._check(routed, db, GROUPED_SQL)
        assert _cached(db, _sketch_key(db, other)) == 0
        assert routed(db, other).rows == \
            routed(db, other, vectorized=False).rows

    def test_groupjoin_build_side_changes(self, routed, partitions):
        db = _groupjoin_db(partitions)
        probe_only = ("SELECT l.l_i_id, SUM(l.l_amount) AS revenue, "
                      "SUM(l.l_qty) AS units, COUNT(*) AS n FROM line l "
                      "GROUP BY l.l_i_id ORDER BY l.l_i_id")
        # the probe side's cached state is the single-table aggregate's
        assert _sketch_key(db, probe_only) == \
            _sketch_key(db, UNRANKED_GROUPJOIN)
        before = self._check(routed, db, UNRANKED_GROUPJOIN, "line")
        with db.connect() as conn:
            conn.execute("UPDATE item SET i_name = ? WHERE i_id = ?",
                         ("renamed", 3))
            conn.commit()
        db.replicate()
        after = self._check(routed, db, UNRANKED_GROUPJOIN, "line")
        assert after.rows != before.rows
        # the groupjoin attached build-side columns to its own state,
        # never to the cached state the plain aggregate now copies
        self._check(routed, db, probe_only, "line")

    def test_non_empty_state_at_a_run_start(self, routed, partitions):
        db = _fill(_make_db(partitions=partitions))
        pmap = db.columnar.pmap
        first = min(i for i in range(640) if pmap.partition_of_value(i) == 0)
        new = next(i for i in range(640, 2000)
                   if pmap.partition_of_value(i) == 0)
        with db.connect() as conn:
            # partition 0's first segment row-folds, and a new row sits
            # in its delta, ahead of the next partition's main
            conn.execute("DELETE FROM cust WHERE id = ?", (first,))
            conn.execute("INSERT INTO cust (id, nation, qty, amount, d) "
                         "VALUES (?, ?, ?, ?, ?)",
                         (new, "PERU", 3, 1.5, "2026-01"))
            conn.commit()
        db.replicate()
        runs = _runs(db, "cust")
        assert len(runs) == min(partitions, 2)
        assert all(len(run) > 1 for run in runs)
        self._check(routed, db, GROUPED_SQL)

    def test_a_stale_key_never_matches(self, partitions):
        # content mutated with the eager invalidation bypassed (the
        # epoch bumps, no hook runs): the state folded from the old
        # content is not servable under the run's new key
        db = _fill(_make_db(partitions=partitions))
        segments = [s for run in _runs(db, "cust") for s in run][:3]
        cache = db.columnar.sketches
        cache.store(cache.run_key(segments, "k"), segments, "state", 8)
        assert cache.lookup(cache.run_key(segments, "k")) == "state"
        segments[1].kill(0)
        segments[1].revive(0)
        assert cache.lookup(cache.run_key(segments, "k")) is None
        cache.store(cache.run_key(segments, "k"), segments, "rebuilt", 8)
        assert cache.lookup(cache.run_key(segments, "k")) == "rebuilt"


# ---------------------------------------------------------------------------
# workload level: this layer's view of the parity matrix
# ---------------------------------------------------------------------------

# fibenchmark's four analytical statements are all ineligible (a computed
# group key, parameterised range predicates, joins)
SKETCH_ELIGIBLE = {"subenchmark", "tabenchmark"}


@pytest.mark.parametrize("workload_name", ["subenchmark", "fibenchmark",
                                           "tabenchmark"])
@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestWorkloadParity:
    """Byte parity with the row oracle is asserted inside the shared
    ``workload_parity`` cell (tests/conftest.py) on a cold and on a warm
    pass; what this suite adds is that the warm pass was served from
    cached partials — in the mid-lag cells, partials built before the
    mutation stream invalidated some of them."""

    def test_fully_replicated_byte_identical(self, workload_parity,
                                             workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=False)
        if workload_name in SKETCH_ELIGIBLE:
            assert cell.stats.sketches_hit > 0
            assert cell.stats.sketch_rows_elided > 0

    def test_mid_replication_byte_identical(self, workload_parity,
                                            workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=True)
        if workload_name in SKETCH_ELIGIBLE:
            assert cell.stats.sketches_hit > 0
            assert cell.stats.sketch_rows_elided > 0
