"""Canonical value/row ordering shared across the engine layers.

One total order over the SQL value domain is load-bearing in two places:

* ``Sort``/``TopN`` break ORDER BY ties with the canonical *row* key, so
  query output is a pure function of the input multiset (partition- and
  segment-layout-independent);
* sorted compaction physically orders main segments by the table's
  primary key using the canonical *value* key (it must never raise on
  mixed key values) — taken a column at a time by
  ``canonical_column_keys``, which lets a homogeneous column stand as its
  own key.

Keeping the helpers in one module guarantees both agree: wherever
``sort_key`` comparison is defined (NULLs first, then value), the
canonical key orders identically — it only *extends* that order to pairs
``sort_key`` would raise on (mixed types).
"""

from __future__ import annotations

from operator import ne

_NUMBER_TYPES = frozenset((int, float, bool))


def sort_key(value):
    """ORDER BY comparison key: NULLs sort first (before any value).

    Mixed uncomparable types raise ``TypeError``, exactly like comparing
    them in SQL would be an error in this engine.
    """
    return (value is not None, value)


def canonical_value_key(value):
    """A total order over the value domain (NULLs, numbers, strings).

    Orders identically to ``sort_key`` wherever ``sort_key`` is defined,
    and never raises on mixed types (numbers before strings before other
    types) — the property sorted compaction and tie-breaking rely on.
    """
    if value is None:
        return (0, "", 0)
    if isinstance(value, (int, float)):
        return (1, "", value)
    if isinstance(value, str):
        return (2, "", value)
    return (3, type(value).__name__, repr(value))


def canonical_row_key(row: tuple):
    """Canonical whole-row tiebreak used by Sort/TopN."""
    return tuple(canonical_value_key(v) for v in row)


def canonical_column_keys(columns: list[list]) -> list:
    """One sort key per row of the parallel value lists ``columns``,
    ordering exactly like the rows' ``canonical_row_key`` tuples.

    A column that one type census proves all strings, or all numbers
    without a NaN, keys by its own values: inside one class
    ``canonical_value_key`` compares ``(class, "", a) < (class, "", b)``,
    which is ``a < b`` with the same equal-then-next-column rule.  Any
    other column (NULLs, mixed classes, NaN, exotic types) maps through
    ``canonical_value_key`` once.  A single column is returned as its own
    key list — a bare value orders like the 1-tuple around it.
    """
    keyed = []
    for values in columns:
        types = set(map(type, values))
        natural = types == {str} or (
            types <= _NUMBER_TYPES
            # ne(v, v) holds for NaN only
            and not (float in types and any(map(ne, values, values))))
        keyed.append(values if natural
                     else list(map(canonical_value_key, values)))
    return keyed[0] if len(keyed) == 1 else list(zip(*keyed))
