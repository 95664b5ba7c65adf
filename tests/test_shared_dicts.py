"""Shared table-level dictionaries: compaction-time builds, one
dictionary per string column, cardinality-overflow demotion, string
group-bys / predicates / joins over dictionary-sealed columns checked
against the row oracle on the same replica, and this layer's view of the
three-workload parity matrix.  A dictionary code is a storage detail: the
operators above the scan read values."""

from random import Random
from unittest import mock

import pytest

from repro.db import Database
from repro.storage import columnstore
from repro.storage.columnstore import (
    DictColumn,
    TableDictionary,
)

# 7 nations: coprime with the partition counts under test, so the nation
# column never collapses to a constant (RLE) inside one hash partition
NATIONS = [f"n{i}" for i in range(7)]
TIERS = ["GC", "BC"]


def _dictionary_cap(cardinality):
    """Table dictionaries built inside the block demote past
    ``cardinality`` distinct values."""
    return mock.patch.object(columnstore, "SHARED_DICT_MAX_CARDINALITY",
                             cardinality)


def _make_db(segment_rows=64, partitions=1,
             cardinality=columnstore.SHARED_DICT_MAX_CARDINALITY):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  partitions=partitions)
    with _dictionary_cap(cardinality):
        db.execute_ddl(
            "CREATE TABLE nation (name VARCHAR(16) PRIMARY KEY, "
            "region VARCHAR(8))")
        db.execute_ddl(
            "CREATE TABLE cust (id INT PRIMARY KEY, nation VARCHAR(16), "
            "tier VARCHAR(4), note VARCHAR(64), amount DOUBLE, "
            "FOREIGN KEY (nation) REFERENCES nation (name))")
    return db


def _dictionaries(db, table):
    """``column position -> TableDictionary`` of one replicated table."""
    return db.columnar.table_partitions(table)[0].shared_dicts


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
# storage level: shared seals, one dictionary per column, demotion
# ---------------------------------------------------------------------------

class TestSharedDictStorage:
    def test_compaction_seals_into_shared_code_space(self):
        db = _fill(_make_db())
        table = db.columnar.table_partitions("cust")[0]
        nation_dict = _dictionaries(db, "cust")[1]
        assert isinstance(nation_dict, TableDictionary)
        shared_cols = [seg.columns[1] for seg in table.read_snapshot()[0]]
        assert len(shared_cols) >= 2
        assert all(isinstance(c, DictColumn) for c in shared_cols)
        # every segment's codes index the SAME table-level value list
        assert all(c.values is nation_dict.values for c in shared_cols)

    def test_fk_column_gets_its_own_dictionary(self):
        db = _make_db(partitions=2)
        cust, nation = _dictionaries(db, "cust"), _dictionaries(db, "nation")
        # the FK column cust.nation does not alias nation.name's
        # dictionary: every string column owns one
        assert sorted(cust) == [1, 2, 3] and sorted(nation) == [0, 1]
        assert len({id(d) for d in (*cust.values(), *nation.values())}) == 5
        # a table's partitions share its dictionaries
        assert all(part.shared_dicts is cust
                   for part in db.columnar.table_partitions("cust"))
        assert db.columnar.encoding_stats()["shared_dicts_total"] == 5

    def test_encoding_stats_split_dictionary_bytes(self):
        db = _fill(_make_db())
        stats = db.columnar.encoding_stats()
        assert stats["dicts_shared"] > 0
        assert stats["shared_dict_bytes"] > 0
        assert stats["dict_code_bytes"] > 0
        assert stats["shared_dicts_total"] >= 3
        # the unique note column blows its cap: its segments seal without
        # a dictionary, so they add neither codes nor dictionary columns
        demoted = _fill(_make_db(cardinality=8)).columnar.encoding_stats()
        assert demoted["shared_dicts_demoted"] == 1
        assert demoted["dicts_shared"] < stats["dicts_shared"]
        assert demoted["dict_code_bytes"] < stats["dict_code_bytes"]
        assert demoted["shared_dict_bytes"] < stats["shared_dict_bytes"]

    def test_cardinality_overflow_demotes_to_per_segment(self, routed):
        # cap of 8 holds the nations but not the 256 distinct notes
        db = _fill(_make_db(cardinality=8))
        stats = db.columnar.encoding_stats()
        assert stats["shared_dicts_demoted"] >= 1
        # nation column stays a dictionary; the demoted note column seals
        # RLE or PLAIN (one distinct note per row: PLAIN)
        table = db.columnar.table_partitions("cust")[0]
        assert any(isinstance(seg.columns[1], DictColumn)
                   for seg in table.read_snapshot()[0])
        note_cols = [seg.columns[3] for seg in table.read_snapshot()[0]]
        assert note_cols and all(type(c) is list for c in note_cols)
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
        assert len(got.rows) == 256

    def test_demoted_unreferenced_dictionary_frees_values(self):
        with _dictionary_cap(4):
            dictionary = TableDictionary()
            kept = TableDictionary()
        assert dictionary.cap == kept.cap == 4
        assert TableDictionary().cap == columnstore.SHARED_DICT_MAX_CARDINALITY
        assert dictionary.encode([f"v{i}" for i in range(10)]) is None
        assert not dictionary.active
        assert len(dictionary.values) == 0 and len(dictionary.code_of) == 0
        # once referenced, demotion must keep the values alive
        assert kept.encode(["a", "b"]) is not None
        assert kept.encode([f"v{i}" for i in range(10)]) is None
        assert not kept.active
        assert kept.values[:2] == ["a", "b"]


# ---------------------------------------------------------------------------
# execution level: group-bys, predicates, joins over dictionary columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestStringGroupBy:
    """A string GROUP BY key sealed into a table dictionary groups by its
    values, as the row oracle does."""

    def test_group_by_matches_row_oracle(self, routed, partitions):
        shared = _fill(_make_db(partitions=partitions))
        sql = ("SELECT tier, COUNT(*), SUM(amount), AVG(amount) FROM cust "
               "GROUP BY tier ORDER BY tier")
        a = routed(shared, sql)
        b = routed(shared, sql, vectorized=False)
        assert a.rows == b.rows

    def test_group_by_with_null_keys(self, routed, partitions):
        shared = _fill(_make_db(partitions=partitions), null_every=5)
        sql = "SELECT tier, COUNT(*) FROM cust GROUP BY tier ORDER BY tier"
        a = routed(shared, sql)
        assert a.rows == routed(shared, sql, vectorized=False).rows
        assert a.rows[0][0] is None

    def test_emission_order_matches_without_order_by(self, routed,
                                                     partitions):
        shared = _fill(_make_db(partitions=partitions))
        sql = "SELECT nation, COUNT(*), SUM(amount) FROM cust GROUP BY nation"
        a = routed(shared, sql)
        assert a.rows == routed(shared, sql, vectorized=False).rows

    def test_compacted_group_by(self, routed, partitions):
        shared = _fill(_make_db(partitions=partitions))
        shared.columnar.compact(force=True)
        sql = ("SELECT nation, COUNT(*), SUM(amount) FROM cust "
               "GROUP BY nation ORDER BY nation")
        a = routed(shared, sql)
        assert a.stats.segments_encoded > 0
        assert a.rows == routed(shared, sql, vectorized=False).rows


class TestOneStreamFold:
    """The aggregate folds every partition's batches into one state: a
    dictionary-sealed key spread over every partition, NULL among its
    values, groups the same way at every partition count, on the engine,
    its row oracle and the sketch cache."""

    # the always-true filter keeps the plan off the sketch cache, so every
    # batch folds into the statement's state directly
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
            assert got.stats.batches_scanned > 0, partitions
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


@pytest.mark.parametrize("partitions", [1, 2, 8])
class TestStringKeyJoin:
    """String join keys sealed into table dictionaries join by value, as
    the row oracle does."""

    JOIN_SQL = ("SELECT c.id, n.region FROM cust c JOIN nation n "
                "ON c.nation = n.name ORDER BY c.id")

    def test_fk_join(self, routed, partitions):
        shared = _fill(_make_db(partitions=partitions))
        a = routed(shared, self.JOIN_SQL)
        b = routed(shared, self.JOIN_SQL, vectorized=False)
        assert a.rows == b.rows and len(a.rows) == 256

    def test_join_across_columns(self, routed, partitions):
        # tier and region are two columns with two dictionaries
        shared = _fill(_make_db(partitions=partitions))
        sql = ("SELECT c.id, n.name FROM cust c JOIN nation n "
               "ON c.tier = n.region ORDER BY c.id, n.name")
        a = routed(shared, sql)
        b = routed(shared, sql, vectorized=False)
        assert a.rows == b.rows and len(a.rows) > 0

    def test_left_join_matches(self, routed, partitions):
        shared = _fill(_make_db(partitions=partitions))
        with shared.connect() as conn:
            conn.execute("INSERT INTO cust (id, nation, tier, note, amount) "
                         "VALUES (999, NULL, 'GC', 'x', 1.0)")
            conn.commit()
        shared.replicate()
        sql = ("SELECT c.id, n.region FROM cust c LEFT JOIN nation n "
               "ON c.nation = n.name ORDER BY c.id")
        a = routed(shared, sql)
        b = routed(shared, sql, vectorized=False)
        assert a.rows == b.rows
        assert a.rows[-1] == (999, None)

    def test_compacted_join(self, routed, partitions):
        shared = _fill(_make_db(partitions=partitions))
        shared.columnar.compact(force=True)
        a = routed(shared, self.JOIN_SQL)
        assert a.stats.segments_encoded > 0
        assert a.rows == routed(shared, self.JOIN_SQL, vectorized=False).rows

    def test_build_side_spans_demoted_dictionary_and_delta(self, routed,
                                                           partitions):
        """The build side's key column reads from segments sealed into
        the table dictionary, segments sealed after it demoted (PLAIN) and
        a plain delta, all in one join."""
        db = _make_db(segment_rows=4, partitions=partitions, cardinality=8)
        names = [f"n{i}" for i in range(24)]
        with db.connect() as conn:
            for i, name in enumerate(names[:20]):
                conn.execute(
                    "INSERT INTO nation (name, region) VALUES (?, ?)",
                    (name, f"r{i % 3}"))
            for i in range(60):
                conn.execute(
                    "INSERT INTO cust (id, nation, tier, note, amount) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (i, None if i % 11 == 0 else names[i % 24],
                     TIERS[i % 2], f"note-{i}", float(i)))
            conn.commit()
        db.replicate()
        db.columnar.compact(force=True)
        with db.connect() as conn:
            # fewer rows than a segment: they stay in the plain delta
            for name in names[20:23]:
                conn.execute(
                    "INSERT INTO nation (name, region) VALUES (?, 'late')",
                    (name,))
            conn.commit()
        db.replicate()
        build = db.columnar.table_partitions("nation")
        assert not _dictionaries(db, "nation")[0].active
        kinds = {type(segment.columns[0])
                 for part in build for segment in part.read_snapshot()[0]}
        assert kinds == {DictColumn, list}
        assert sum(segment.live_count for part in build
                   for segment in part.read_snapshot()[1]) == 3
        for join in ("JOIN", "LEFT JOIN"):
            sql = (f"SELECT c.id, c.nation, n.region FROM cust c {join} "
                   "nation n ON c.nation = n.name")
            got = routed(db, sql)
            assert got.stats.vectorized
            assert got.rows == routed(db, sql, vectorized=False).rows, sql
            assert {row[2] for row in got.rows} >= {"late", "r0"}


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
