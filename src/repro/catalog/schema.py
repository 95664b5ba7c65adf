"""Table and schema metadata.

A ``Table`` describes columns, the (possibly composite) primary key,
secondary indexes and foreign keys.  A ``Catalog`` is the registry the SQL
binder resolves names against.  The catalog is purely metadata — rows live
in ``repro.storage``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.catalog.types import SQLType
from repro.errors import CatalogError


@dataclass(frozen=True)
class Column:
    """A single column definition."""

    name: str
    col_type: SQLType
    nullable: bool = True

    def __str__(self):
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.col_type}{null}"


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint: ``columns`` reference ``ref_table.ref_columns``."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.ref_columns):
            raise CatalogError(
                f"foreign key column count mismatch: {self.columns} vs {self.ref_columns}"
            )


@dataclass(frozen=True)
class IndexDef:
    """A secondary index definition.  ``unique`` records ``CREATE UNIQUE
    INDEX`` as parsed; nothing enforces it, so duplicates are accepted."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


class Table:
    """Metadata for one table: columns, primary key, indexes, foreign keys."""

    def __init__(
        self,
        name: str,
        columns: list[Column],
        primary_key: tuple[str, ...],
        foreign_keys: list[ForeignKey] | None = None,
    ):
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns = list(columns)
        self.column_names = [c.name for c in columns]
        # column lookup is case-insensitive, as in SQL
        self._positions = {c.name.upper(): i for i, c in enumerate(columns)}
        if len(self._positions) != len(columns):
            raise CatalogError(f"duplicate column name in table {name!r}")
        for pk_col in primary_key:
            if pk_col.upper() not in self._positions:
                raise CatalogError(
                    f"primary key column {pk_col!r} not in table {name!r}"
                )
        if not primary_key:
            raise CatalogError(f"table {name!r} must declare a primary key")
        self.primary_key = tuple(primary_key)
        # fixed for the table's lifetime; ``pk_of`` runs once per written
        # and per replicated row, so the positions are not re-derived there
        self.pk_positions: tuple[int, ...] = tuple(
            self._positions[c.upper()] for c in self.primary_key)
        self._pk_getter = (
            itemgetter(*self.pk_positions) if len(self.pk_positions) > 1
            else lambda values, pos=self.pk_positions[0]: (values[pos],))
        self.foreign_keys = list(foreign_keys or [])
        self.indexes: dict[str, IndexDef] = {}

    # -- metadata helpers -------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name.upper() in self._positions

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._positions[name.upper()]]
        except KeyError:
            raise CatalogError(f"no column {name!r} in table {self.name!r}") from None

    def position(self, name: str) -> int:
        try:
            return self._positions[name.upper()]
        except KeyError:
            raise CatalogError(f"no column {name!r} in table {self.name!r}") from None

    def pk_of(self, values: tuple) -> tuple:
        """Extract the primary-key tuple from a full row tuple."""
        return self._pk_getter(values)

    def add_index(self, index: IndexDef):
        if index.name in self.indexes:
            raise CatalogError(f"duplicate index {index.name!r} on {self.name!r}")
        for col in index.columns:
            if not self.has_column(col):
                raise CatalogError(
                    f"index {index.name!r} references unknown column {col!r}"
                )
        self.indexes[index.name] = index

    def __repr__(self):
        return f"Table({self.name}, cols={len(self.columns)}, pk={self.primary_key})"


class Catalog:
    """Registry of tables the binder resolves against."""

    def __init__(self):
        self._tables: dict[str, Table] = {}

    def create_table(self, table: Table):
        key = table.name.upper()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table

    def drop_table(self, name: str):
        key = name.upper()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.upper()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    def table_names(self) -> list[str]:
        return [t.name for t in self._tables.values()]

    # -- summary statistics used by the Table II bench --------------------

    def summary(self) -> dict:
        """Counts of tables, columns and secondary indexes (Table II inputs)."""
        tables = self.tables()
        return {
            "tables": len(tables),
            "columns": sum(len(t.columns) for t in tables),
            "indexes": sum(len(t.indexes) for t in tables),
        }
