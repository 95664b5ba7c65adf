"""Shared table-level dictionaries: compaction-time builds, FK domain
aliasing, code-space joins/group-bys/predicates checked against the row
oracle on the same replica, cardinality-overflow demotion, counter
plumbing, and this layer's view of the three-workload parity matrix."""

from random import Random

import pytest

from repro.core.config import BenchConfig
from repro.core.report import render_csv, render_text
from repro.core.runner import RunReport
from repro.db import Database
from repro.storage.columnstore import (
    DictColumn,
    SharedDictColumn,
    TableDictionary,
)

# 7 nations: coprime with the partition counts under test, so the nation
# column never collapses to a constant (RLE) inside one hash partition
NATIONS = [f"n{i}" for i in range(7)]
TIERS = ["GC", "BC"]


def _make_db(segment_rows=64, partitions=1, cardinality=None):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  shared_dict_cardinality=cardinality,
                  partitions=partitions)
    db.execute_ddl(
        "CREATE TABLE nation (name VARCHAR(16) PRIMARY KEY, "
        "region VARCHAR(8))")
    db.execute_ddl(
        "CREATE TABLE cust (id INT PRIMARY KEY, nation VARCHAR(16), "
        "tier VARCHAR(4), note VARCHAR(64), amount DOUBLE, "
        "FOREIGN KEY (nation) REFERENCES nation (name))")
    return db


def _fill(db, n=256, seed=11, null_every=0):
    """Shuffled inserts so the sorted layout differs from arrival order."""
    rng = Random(seed)
    with db.connect() as conn:
        for i, name in enumerate(NATIONS):
            conn.execute(
                "INSERT INTO nation (name, region) VALUES (?, ?)",
                (name, "GC" if i % 2 else f"r{i % 3}"))
        ids = list(range(n))
        rng.shuffle(ids)
        for i in ids:
            tier = None if null_every and i % null_every == 0 \
                else TIERS[i % 2]
            conn.execute(
                "INSERT INTO cust (id, nation, tier, note, amount) "
                "VALUES (?, ?, ?, ?, ?)",
                (i, NATIONS[i % 7], tier, f"note-{i}", float(i) * 0.25))
        conn.commit()
    db.replicate()
    return db


# ---------------------------------------------------------------------------
# storage level: shared seals, FK aliasing, demotion
# ---------------------------------------------------------------------------

class TestSharedDictStorage:
    def test_compaction_seals_into_shared_code_space(self):
        db = _fill(_make_db())
        table = db.columnar.table_partitions("cust")[0]
        nation_dict = db.columnar.shared_dict("cust", 1)
        assert isinstance(nation_dict, TableDictionary)
        shared_cols = [seg.columns[1] for seg in table.read_snapshot()[0]]
        assert len(shared_cols) >= 2
        assert all(isinstance(c, SharedDictColumn) for c in shared_cols)
        # every segment's codes index the SAME table-level dictionary
        assert all(c.shared is nation_dict for c in shared_cols)

    def test_fk_column_aliases_referenced_domain(self):
        db = _make_db()
        assert db.columnar.shared_dict("cust", 1) \
            is db.columnar.shared_dict("nation", 0)
        # non-FK string columns get their own domain
        assert db.columnar.shared_dict("cust", 2) \
            is not db.columnar.shared_dict("nation", 1)
        # INT / DOUBLE columns are not DICT-eligible
        assert db.columnar.shared_dict("cust", 0) is None
        assert db.columnar.shared_dict("cust", 4) is None

    def test_encoding_stats_split_dictionary_bytes(self):
        db = _fill(_make_db())
        stats = db.columnar.encoding_stats()
        assert stats["dicts_shared"] > 0
        assert stats["dicts_per_segment"] == 0
        assert stats["shared_dict_bytes"] > 0
        assert stats["dict_code_bytes"] > 0
        assert stats["shared_dicts_total"] >= 3
        # the unique note column blows its cap: those segments carry
        # their own dictionaries, whose value bytes are counted per segment
        demoted = _fill(_make_db(cardinality=8)).columnar.encoding_stats()
        assert demoted["dicts_per_segment"] > 0
        assert demoted["dict_value_bytes"] > 0

    def test_cardinality_overflow_demotes_to_per_segment(self, routed):
        # cap of 8 holds the nations but not the 256 distinct notes
        db = _fill(_make_db(cardinality=8))
        stats = db.columnar.encoding_stats()
        assert stats["shared_dicts_demoted"] >= 1
        # nation column stays shared; note column fell back
        table = db.columnar.table_partitions("cust")[0]
        assert any(isinstance(seg.columns[1], SharedDictColumn)
                   for seg in table.read_snapshot()[0])
        note_cols = [seg.columns[3] for seg in table.read_snapshot()[0]]
        assert all(type(c) is DictColumn for c in note_cols)
        # demoted domains still answer queries correctly; a GROUP BY on
        # the demoted column takes the generic assign + scatter fold
        for sql in [
            "SELECT note FROM cust WHERE note = 'note-77'",
            "SELECT nation, COUNT(*) FROM cust GROUP BY nation "
            "ORDER BY nation",
            "SELECT COUNT(*) FROM cust WHERE note IN "
            "('note-1', 'note-2', 'nope')",
            "SELECT note, COUNT(*), SUM(amount) FROM cust GROUP BY note",
        ]:
            got = routed(db, sql)
            assert got.stats.vectorized, sql
            assert got.rows == routed(db, sql, vectorized=False).rows, sql
        assert got.stats.groups_global_coded == 0
        assert len(got.rows) == 256

    def test_demoted_unreferenced_dictionary_frees_values(self):
        dictionary = TableDictionary(cap=4)
        assert dictionary.encode([f"v{i}" for i in range(10)]) is None
        assert not dictionary.active
        assert len(dictionary.values) == 0 and len(dictionary.code_of) == 0
        # once referenced, demotion must keep the values alive
        kept = TableDictionary(cap=4)
        assert kept.encode(["a", "b"]) is not None
        assert kept.encode([f"v{i}" for i in range(10)]) is None
        assert not kept.active
        assert kept.values[:2] == ["a", "b"]


# ---------------------------------------------------------------------------
# execution level: code-space group-bys, predicates, joins
# ---------------------------------------------------------------------------

class TestGlobalCodeGroupBy:
    def test_group_by_matches_per_segment_engine(self, routed):
        shared = _fill(_make_db())
        sql = ("SELECT tier, COUNT(*), SUM(amount), AVG(amount) FROM cust "
               "GROUP BY tier ORDER BY tier")
        a = routed(shared, sql)
        b = routed(shared, sql, vectorized=False)
        assert a.rows == b.rows
        assert a.stats.groups_global_coded > 0
        assert b.stats.groups_global_coded == 0

    def test_group_by_with_null_keys(self, routed):
        shared = _fill(_make_db(), null_every=5)
        sql = "SELECT tier, COUNT(*) FROM cust GROUP BY tier ORDER BY tier"
        a = routed(shared, sql)
        assert a.rows == routed(shared, sql, vectorized=False).rows
        assert a.rows[0][0] is None
        assert a.stats.groups_global_coded > 0

    def test_emission_order_matches_without_order_by(self, routed):
        shared = _fill(_make_db())
        sql = "SELECT nation, COUNT(*), SUM(amount) FROM cust GROUP BY nation"
        a = routed(shared, sql)
        assert a.stats.groups_global_coded > 0
        assert a.rows == routed(shared, sql, vectorized=False).rows

    @pytest.mark.parametrize("partitions", [2, 8])
    def test_partitioned_group_by_single_accumulator(self, routed,
                                                     partitions):
        shared = _fill(_make_db(partitions=partitions))
        shared.columnar.compact(force=True)
        sql = ("SELECT nation, COUNT(*), SUM(amount) FROM cust "
               "GROUP BY nation ORDER BY nation")
        a = routed(shared, sql)
        assert a.rows == routed(shared, sql, vectorized=False).rows
        assert a.stats.groups_global_coded > 0


class TestOneStreamFold:
    """The aggregate folds every partition's batches through one code ->
    group-id slot array: a shared-dictionary key spread over every
    partition, NULL among its values, groups the same way at every
    partition count, on the engine, its row oracle and the sketch cache."""

    # the always-true filter keeps the plan off the sketch cache, so every
    # batch folds through the slot array
    FILTERED = ("SELECT nation, COUNT(*), SUM(amount), MIN(note) FROM cust "
                "WHERE amount >= ? GROUP BY nation")
    WHOLE = ("SELECT nation, COUNT(*), SUM(amount), MIN(note) FROM cust "
             "GROUP BY nation")

    def test_every_partition_count_folds_alike(self, routed):
        ordered = []
        for partitions in (1, 2, 8):
            db = _fill(_make_db(partitions=partitions))
            with db.connect() as conn:
                conn.execute("UPDATE cust SET nation = NULL WHERE id < 40")
                conn.commit()
            db.replicate()
            db.columnar.compact(force=True)
            for part in db.columnar.table_partitions("cust"):
                assert {row[1] for _pk, row in part.scan()} \
                    == {None, *NATIONS}, partitions
            got = routed(db, self.FILTERED, (0.0,))
            oracle = routed(db, self.FILTERED, (0.0,), vectorized=False)
            # rows and emission order (first encounter, no ORDER BY)
            assert got.rows == oracle.rows, partitions
            assert got.stats.sketches_hit == got.stats.sketches_built == 0
            assert got.stats.groups_global_coded \
                == got.stats.batches_scanned > 0, partitions
            assert oracle.stats.groups_global_coded == 0
            cold = routed(db, self.WHOLE)
            warm = routed(db, self.WHOLE)
            assert cold.stats.sketches_built > 0
            assert warm.stats.sketches_hit == warm.stats.batches_scanned > 0
            assert cold.rows == warm.rows == got.rows, partitions
            ordered.append(routed(db, self.FILTERED + " ORDER BY nation",
                                  (0.0,)).rows)
        assert len(ordered[0]) == len(NATIONS) + 1
        assert ordered[0] == ordered[1] == ordered[2]


class TestCodeSpacePredicates:
    def test_eq_and_in_match_per_segment_engine(self, routed):
        shared = _fill(_make_db())
        for sql, params in [
            ("SELECT id FROM cust WHERE tier = ? ORDER BY id", ("GC",)),
            ("SELECT COUNT(*) FROM cust WHERE nation IN (?, ?, ?)",
             ("n1", "n5", "zz")),
            ("SELECT COUNT(*) FROM cust WHERE tier = ? AND nation = ?",
             ("BC", "n3")),
        ]:
            got = routed(shared, sql, params)
            assert got.stats.segments_encoded > 0, sql
            assert got.rows \
                == routed(shared, sql, params, vectorized=False).rows, sql

    def test_absent_literal_prunes_every_segment(self, routed):
        shared = _fill(_make_db())
        result = routed(shared,
                         "SELECT COUNT(*) FROM cust WHERE tier = 'XX'")
        assert result.rows == [(0,)]
        assert result.stats.batches_scanned == 0


class TestCodeSpaceJoin:
    JOIN_SQL = ("SELECT c.id, n.region FROM cust c JOIN nation n "
                "ON c.nation = n.name ORDER BY c.id")

    def test_fk_join_probes_codes(self, routed):
        shared = _fill(_make_db())
        a = routed(shared, self.JOIN_SQL)
        b = routed(shared, self.JOIN_SQL, vectorized=False)
        assert a.rows == b.rows and len(a.rows) == 256
        assert a.stats.join_code_probes > 0
        assert b.stats.join_code_probes == 0

    def test_join_without_shared_domain(self, routed):
        # tier and region live in DIFFERENT dictionary domains (no FK):
        # the build side falls back to per-value translation against the
        # probe side's dictionary, results stay identical
        shared = _fill(_make_db())
        sql = ("SELECT c.id, n.name FROM cust c JOIN nation n "
               "ON c.tier = n.region ORDER BY c.id, n.name")
        a = routed(shared, sql)
        b = routed(shared, sql, vectorized=False)
        assert a.stats.join_code_probes > 0
        assert a.rows == b.rows and len(a.rows) > 0

    def test_left_join_matches(self, routed):
        shared = _fill(_make_db())
        with shared.connect() as conn:
            conn.execute("INSERT INTO cust (id, nation, tier, note, amount) "
                         "VALUES (999, NULL, 'GC', 'x', 1.0)")
            conn.commit()
        shared.replicate()
        sql = ("SELECT c.id, n.region FROM cust c LEFT JOIN nation n "
               "ON c.nation = n.name ORDER BY c.id")
        a = routed(shared, sql)
        b = routed(shared, sql, vectorized=False)
        assert a.stats.join_code_probes > 0
        assert a.rows == b.rows
        assert a.rows[-1] == (999, None)

    @pytest.mark.parametrize("partitions", [2, 8])
    def test_partitioned_join(self, routed, partitions):
        shared = _fill(_make_db(partitions=partitions))
        shared.columnar.compact(force=True)
        a = routed(shared, self.JOIN_SQL)
        assert a.rows == routed(shared, self.JOIN_SQL, vectorized=False).rows
        assert a.stats.join_code_probes > 0


# ---------------------------------------------------------------------------
# counter plumbing: ExecStats -> RunReport -> text/CSV
# ---------------------------------------------------------------------------

class TestCounterPlumbing:
    def _report(self):
        report = RunReport(
            config=BenchConfig(workload="subenchmark"),
            engine="test", window_ms=1000.0)
        report.join_code_probes = 123
        report.groups_global_coded = 45
        return report

    def test_summary_and_text_show_shared_dict_counters(self):
        text = render_text(self._report())
        assert "join_code_probes=123" in text
        assert "groups_global_coded=45" in text
        assert "join_code_probes=123" in self._report().summary_text()

    def test_csv_carries_shared_dict_counters(self):
        import csv as csv_mod
        import io

        report = self._report()
        report.classes["oltp"] = report.metrics("oltp")
        rows = list(csv_mod.DictReader(io.StringIO(render_csv([report]))))
        assert rows[0]["join_code_probes"] == "123"
        assert rows[0]["groups_global_coded"] == "45"


# ---------------------------------------------------------------------------
# workload level: this layer's view of the parity matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload_name", ["subenchmark", "fibenchmark",
                                           "tabenchmark"])
@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestWorkloadParity:
    """Byte parity with the row oracle is asserted inside the shared
    ``workload_parity`` cell (tests/conftest.py); what this suite adds is
    that string columns were sealed into table-level dictionaries."""

    def test_fully_replicated_byte_identical(self, workload_parity,
                                             workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=False)
        assert cell.encoding["dicts_shared"] > 0, \
            "shared dictionaries never engaged"

    def test_mid_replication_byte_identical(self, workload_parity,
                                            workload_name, partitions):
        cell = workload_parity(workload_name, partitions, lagged=True)
        assert cell.encoding["dicts_shared"] > 0
