"""LRU buffer-pool model.

The buffer pool is the channel through which large analytical scans disturb
online transactions on a shared store: a scan pulls its pages through the
pool, evicting the OLTP working set, so subsequent point reads miss and pay
disk latency.  This is the mechanism behind the paper's Fig. 3/Fig. 6
interference results, and behind the semantically-consistent-vs-stitch gap:
stitch-schema analytics mostly touch tables OLTP never reads, so their
evictions are harmless.

Pages are identified by ``(table_name, page_no)``.  The model is an ordinary
LRU over a bounded dict; batch access helpers keep large scans cheap to
simulate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class BufferPoolStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class BufferPool:
    """Bounded LRU page cache with hit/miss accounting."""

    def __init__(self, capacity_pages: int, rows_per_page: int = 64):
        if capacity_pages <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self.capacity = capacity_pages
        self.rows_per_page = rows_per_page
        self._pages: OrderedDict[tuple, None] = OrderedDict()
        self.stats = BufferPoolStats()

    def __contains__(self, page: tuple) -> bool:
        return page in self._pages

    def __len__(self):
        return len(self._pages)

    def access(self, page: tuple) -> bool:
        """Touch one page; returns True on hit."""
        if page in self._pages:
            self._pages.move_to_end(page)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._admit(page)
        return False

    def access_range(self, table: str, first_page: int, n_pages: int) -> int:
        """Touch ``n_pages`` consecutive pages of ``table``; returns misses.

        Ranges larger than the pool are short-circuited: everything past the
        first ``capacity`` pages is necessarily a miss and only the *last*
        ``capacity`` pages remain resident — the classic scan-flood pattern.
        """
        misses = 0
        if n_pages <= 0:
            return 0
        if n_pages >= self.capacity:
            # Whole pool is flushed; count residency of the first window only.
            resident = sum(
                1 for p in range(first_page, first_page + self.capacity)
                if (table, p) in self._pages
            )
            misses = n_pages - resident
            self.stats.hits += resident
            self.stats.misses += misses
            self.stats.evictions += len(self._pages)
            self._pages.clear()
            start = first_page + n_pages - self.capacity
            for p in range(start, first_page + n_pages):
                self._pages[(table, p)] = None
            return misses
        for p in range(first_page, first_page + n_pages):
            if not self.access((table, p)):
                misses += 1
        return misses

    def rows_to_pages(self, rows: int) -> int:
        """How many pages ``rows`` sequential rows span."""
        if rows <= 0:
            return 0
        return (rows + self.rows_per_page - 1) // self.rows_per_page

    def _admit(self, page: tuple):
        if len(self._pages) >= self.capacity:
            self._pages.popitem(last=False)
            self.stats.evictions += 1
        self._pages[page] = None
