"""Catalog: column types, tables, schema registry."""

import pytest

from repro.catalog import (
    BIGINT,
    CHAR,
    DECIMAL,
    FLOAT,
    INT,
    TIMESTAMP,
    VARCHAR,
    Catalog,
    Column,
    ForeignKey,
    IndexDef,
    Table,
    type_from_name,
)
from repro.errors import CatalogError, ExecutionError


class TestTypes:
    def test_int_accepts_int(self):
        assert INT.validate(5) == 5

    def test_int_coerces_integral_float(self):
        assert INT.validate(5.0) == 5

    def test_int_rejects_fractional_float(self):
        with pytest.raises(ExecutionError):
            INT.validate(5.5)

    def test_int_coerces_numeric_string(self):
        assert INT.validate("42") == 42

    def test_int_rejects_garbage_string(self):
        with pytest.raises(ExecutionError):
            INT.validate("forty-two")

    def test_int_bool_becomes_int(self):
        assert INT.validate(True) == 1

    def test_null_passes_every_type(self):
        for t in (INT, BIGINT, FLOAT, TIMESTAMP, VARCHAR(5), CHAR(2),
                  DECIMAL()):
            assert t.validate(None) is None

    def test_float_coerces_int(self):
        assert FLOAT.validate(3) == 3.0
        assert isinstance(FLOAT.validate(3), float)

    def test_varchar_length_enforced(self):
        vc = VARCHAR(3)
        assert vc.validate("abc") == "abc"
        with pytest.raises(ExecutionError):
            vc.validate("abcd")

    def test_varchar_stringifies(self):
        assert VARCHAR(10).validate(123) == "123"

    def test_timestamp_accepts_numbers_only(self):
        assert TIMESTAMP.validate(1.5) == 1.5
        with pytest.raises(ExecutionError):
            TIMESTAMP.validate("2024-01-01")

    def test_type_from_name(self):
        assert type_from_name("INT") is INT
        assert type_from_name("varchar", (7,)).length == 7
        assert type_from_name("DECIMAL", (10, 4)).precision == 10

    def test_type_from_name_unknown(self):
        with pytest.raises(ExecutionError):
            type_from_name("GEOMETRY")


def make_table(name="t"):
    return Table(
        name,
        [Column("a", INT, nullable=False), Column("b", VARCHAR(10)),
         Column("c", FLOAT)],
        primary_key=("a",),
    )


class TestTable:
    def test_positions_case_insensitive(self):
        table = make_table()
        assert table.position("a") == 0
        assert table.position("A") == 0
        assert table.position("B") == 1

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            make_table().position("zz")

    def test_pk_of_extracts_key(self):
        table = make_table()
        assert table.pk_of((7, "x", 1.0)) == (7,)

    def test_composite_pk_detection(self):
        table = Table("t2", [Column("a", INT), Column("b", INT)],
                      primary_key=("a", "b"))
        assert table.pk_positions == (0, 1)
        assert make_table().pk_positions == (0,)
        assert table.pk_of((1, 2)) == (1, 2)

    def test_pk_positions_are_computed_once(self):
        single = make_table()
        assert single.pk_positions == (0,)
        assert single.pk_positions is single.pk_positions
        # key columns out of declaration order, named in another case
        composite = Table(
            "t3", [Column("a", INT), Column("b", INT), Column("c", INT)],
            primary_key=("C", "a"))
        assert composite.pk_positions == (2, 0)
        assert composite.pk_positions is composite.pk_positions
        assert composite.pk_of((1, 2, 3)) == (3, 1)
        assert composite.pk_of([1, 2, 3]) == (3, 1)
        # a single-column key is still a 1-tuple
        assert single.pk_of([7, "x", 1.0]) == (7,)

    def test_requires_primary_key(self):
        with pytest.raises(CatalogError):
            Table("bad", [Column("a", INT)], primary_key=())

    def test_pk_must_reference_existing_column(self):
        with pytest.raises(CatalogError):
            Table("bad", [Column("a", INT)], primary_key=("zz",))

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            Table("bad", [Column("a", INT), Column("A", INT)],
                  primary_key=("a",))

    def test_add_index_validates_columns(self):
        table = make_table()
        table.add_index(IndexDef("i1", "t", ("b",)))
        with pytest.raises(CatalogError):
            table.add_index(IndexDef("i1", "t", ("b",)))  # duplicate name
        with pytest.raises(CatalogError):
            table.add_index(IndexDef("i2", "t", ("zz",)))

    def test_foreign_key_arity_checked(self):
        with pytest.raises(CatalogError):
            ForeignKey(("a", "b"), "parent", ("x",))


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        assert catalog.table("t").name == "t"
        assert catalog.table("T").name == "t"

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        with pytest.raises(CatalogError):
            catalog.create_table(make_table())

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        catalog.drop_table("t")
        with pytest.raises(CatalogError):
            catalog.table("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_summary_counts(self):
        catalog = Catalog()
        table = make_table()
        table.add_index(IndexDef("i1", "t", ("b",)))
        catalog.create_table(table)
        summary = catalog.summary()
        assert summary == {"tables": 1, "columns": 3, "indexes": 1}
