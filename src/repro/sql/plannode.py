"""Row-pipeline operator protocol: rows one at a time, or in batches.

Every row operator offers its output two ways:

* ``execute(ctx)`` yields row tuples one at a time and reads no further
  ahead than its consumer pulls — what the *lazy* consumers call (``Limit``,
  the outer side of a nested-loop join), so a closed generator never read,
  or charged to ``ExecStats``, a row nobody asked for;
* ``execute_batches(ctx, size)`` yields the same rows, in the same order, as
  non-empty lists of at most ``size`` rows, reading its streaming input at
  most ``size`` rows ahead — what the *draining* consumers call (aggregates,
  hash-join builds and probes, the index join's outer side, sorts, the
  statement result), trading one generator hop per row for one per batch.

A node implements whichever is natural and inherits the other: plain
``PlanNode`` subclasses write ``execute`` and get chunked batches;
``BatchNode`` subclasses write ``execute_batches`` and get ``execute`` as its
``size=1`` reading — the same code, row-at-a-time.
"""

from __future__ import annotations

from itertools import chain, islice

from repro.sql.expressions import Schema
from repro.storage.rowstore import SCAN_BATCH_ROWS

# the store's scan batch, so a full scan's lists pass through unsplit
BATCH_ROWS = SCAN_BATCH_ROWS


def batched(rows, size: int):
    """An iterator of rows as non-empty lists of at most ``size`` rows,
    pulled no further ahead than the batch being built."""
    while batch := list(islice(rows, size)):
        yield batch


def chunked(rows: list, size: int):
    """A materialised list of rows as non-empty lists of at most ``size``."""
    if len(rows) <= size:
        if rows:
            yield rows
        return
    for start in range(0, len(rows), size):
        yield rows[start:start + size]


def build_table(keys: list, entries) -> tuple[dict, bool]:
    """A hash join's build side, ``(key -> entry table, unique)``: the bare
    entry while every key is unique — decided from the data, never the
    catalog — else (``unique`` False) the list of a key's entries in build
    order.  An entry is a row (row join) or a row index (batch join)."""
    table = dict(zip(keys, entries))
    if len(table) == len(keys):
        return table, True
    table = {}
    for key, entry in zip(keys, entries):
        table.setdefault(key, []).append(entry)
    return table, False


def argument_columns(specs, evaluate) -> list:
    """One argument column per aggregate spec of a batch, each distinct
    ``arg_fn`` passed to ``evaluate`` once; ``COUNT(*)`` (no ``arg_fn``)
    gets ``None`` — it needs the rows, not a value."""
    columns = {None: None}
    for spec in specs:
        if spec.arg_fn not in columns:
            columns[spec.arg_fn] = evaluate(spec.arg_fn)
    return [columns[spec.arg_fn] for spec in specs]


class PlanNode:
    """Base plan operator: ``schema`` describes output rows."""

    schema: Schema

    def execute(self, ctx):  # pragma: no cover - abstract
        raise NotImplementedError

    def execute_batches(self, ctx, size: int = BATCH_ROWS):
        return batched(self.execute(ctx), size)

    def rows(self, ctx) -> list:
        """Every output row, drained batch-wise."""
        return list(chain.from_iterable(self.execute_batches(ctx)))

    def children(self) -> list["PlanNode"]:
        return []


class BatchNode(PlanNode):
    """A plan operator implemented batch-at-a-time."""

    def execute_batches(self, ctx, size: int = BATCH_ROWS):  # pragma: no cover
        raise NotImplementedError

    def execute(self, ctx):
        for batch in self.execute_batches(ctx, 1):
            yield from batch
