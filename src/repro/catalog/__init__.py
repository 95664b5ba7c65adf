"""Relational catalog: column types, table metadata, schema registry."""

from repro.catalog.schema import (
    Catalog,
    Column,
    ForeignKey,
    IndexDef,
    Table,
)
from repro.catalog.types import (
    BIGINT,
    CHAR,
    DECIMAL,
    FLOAT,
    INT,
    TIMESTAMP,
    VARCHAR,
    SQLType,
    type_from_name,
)

__all__ = [
    "Catalog",
    "Column",
    "ForeignKey",
    "IndexDef",
    "Table",
    "SQLType",
    "type_from_name",
    "INT",
    "BIGINT",
    "FLOAT",
    "TIMESTAMP",
    "DECIMAL",
    "VARCHAR",
    "CHAR",
]
