"""Secondary index structure for the row store.

``OrderedIndex`` is a sorted-key index supporting equality and prefix scans
(the stand-in for a B+-tree; Python's ``bisect`` over a sorted list gives the
same asymptotics for our workload sizes).

Index entries map an index-key tuple to the primary keys whose *newest
committed* row carries that key: a commit that deletes a row or changes its
key removes the old entry.  So the index answers only a snapshot at or
after its table's ``last_commit_ts``; an older snapshot may miss a row
(see ``repro.sql.planner._index_candidates``).  Readers still re-check the
indexed predicate against the MVCC version they fetch, which may be their
own transaction's buffered rewrite.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator


class OrderedIndex:
    """Sorted secondary index supporting equality and prefix scans."""

    def __init__(self, name: str, columns: tuple[str, ...]):
        self.name = name
        self.columns = columns
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
        """The live pk set of ``key``: a reader that yields while it
        iterates copies it first, or a commit may resize it."""
        return self._entries.get(key, set())

    def prefix_keys(self, prefix: tuple) -> list[tuple]:
        """The keys starting with ``prefix``, in key order: one slice
        between two bisects.  A prefix the keys cannot be ordered against —
        a NULL, or a value of another type — equals none of them.

        The key function lets another thread run mid-bisect, so a commit
        can shrink the list under the probe (``IndexError``).  That commit
        stored the table's ``last_commit_ts`` before touching the index,
        so ``_index_candidates``' re-check discards whatever this returns."""
        keys = self._keys
        n = len(prefix)
        try:
            lo = bisect.bisect_left(keys, prefix)
            hi = bisect.bisect_right(keys, prefix, lo,
                                     key=lambda key: key[:n])
        except (TypeError, IndexError):
            return []
        return keys[lo:hi]

    def prefix_scan(self, prefix: tuple) -> Iterator[tuple[tuple, set]]:
        """Yield ``(key, pks)`` for every key starting with ``prefix``."""
        entries = self._entries
        for key in self.prefix_keys(prefix):
            pks = entries.get(key)
            if pks is not None:             # a commit emptied it meanwhile
                yield key, pks
