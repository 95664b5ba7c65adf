"""Secondary index structures for the row store.

Two physical shapes:

* ``HashIndex`` — dict-backed, equality lookups only.
* ``OrderedIndex`` — sorted-key index supporting equality, prefix and range
  scans (the stand-in for a B+-tree; Python's ``bisect`` over a sorted list
  gives the same asymptotics for our workload sizes).

Index entries map an index-key tuple to the set of primary keys that have
*ever* carried that key.  Readers must re-check visibility and the indexed
predicate against the MVCC version they fetch — the classic "index may
return stale entries" contract, which keeps index maintenance cheap.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator


class HashIndex:
    """Equality-only secondary index."""

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._entries: dict[tuple, set] = {}

    def insert(self, key: tuple, pk: tuple):
        self._entries.setdefault(key, set()).add(pk)

    def remove(self, key: tuple, pk: tuple):
        pks = self._entries.get(key)
        if pks is not None:
            pks.discard(pk)
            if not pks:
                del self._entries[key]

    def lookup(self, key: tuple) -> set:
        return self._entries.get(key, set())

    def __len__(self):
        return sum(len(v) for v in self._entries.values())


class OrderedIndex:
    """Sorted secondary index supporting equality, prefix and range scans."""

    def __init__(self, name: str, columns: tuple[str, ...], unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._keys: list[tuple] = []  # sorted (key..., pk...) composite entries
        self._entries: dict[tuple, set] = {}

    def insert(self, key: tuple, pk: tuple):
        pks = self._entries.get(key)
        if pks is None:
            self._entries[key] = {pk}
            bisect.insort(self._keys, key)
        else:
            pks.add(pk)

    def remove(self, key: tuple, pk: tuple):
        pks = self._entries.get(key)
        if pks is None:
            return
        pks.discard(pk)
        if not pks:
            del self._entries[key]
            pos = bisect.bisect_left(self._keys, key)
            if pos < len(self._keys) and self._keys[pos] == key:
                self._keys.pop(pos)

    def lookup(self, key: tuple) -> set:
        return self._entries.get(key, set())

    def prefix_keys(self, prefix: tuple) -> list[tuple]:
        """The keys starting with ``prefix``, in key order: one slice
        between two bisects.  A prefix the keys cannot be ordered against —
        a NULL, or a value of another type — equals none of them."""
        keys = self._keys
        n = len(prefix)
        try:
            lo = bisect.bisect_left(keys, prefix)
            hi = bisect.bisect_right(keys, prefix, lo,
                                     key=lambda key: key[:n])
        except TypeError:
            return []
        return keys[lo:hi]

    def prefix_scan(self, prefix: tuple) -> Iterator[tuple[tuple, set]]:
        """Yield ``(key, pks)`` for every key starting with ``prefix``."""
        entries = self._entries
        for key in self.prefix_keys(prefix):
            yield key, entries[key]

    def range_scan(
        self, low: tuple | None, high: tuple | None
    ) -> Iterator[tuple[tuple, set]]:
        """Yield ``(key, pks)`` for keys in ``[low, high]`` (inclusive bounds,
        ``None`` meaning unbounded)."""
        lo = 0 if low is None else bisect.bisect_left(self._keys, low)
        for i in range(lo, len(self._keys)):
            key = self._keys[i]
            if high is not None and key > high:
                break
            yield key, self._entries[key]

    def __len__(self):
        return sum(len(v) for v in self._entries.values())
