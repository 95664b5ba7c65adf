"""Columnar replica store (the TiFlash analogue).

The columnar store is kept consistent with the row store through
*asynchronous log replication*: ``apply_from_partitions(wals)`` merges the
partition WAL streams by global ``seq`` and applies the records past each
partition's watermark to per-column arrays.  Readers see
data as of the replica's ``applied_ts`` — fresher replication means fresher
analytics, which is exactly the mechanism TiDB relies on in the paper.

Storage is organised the way real columnar engines (TiFlash, SingleStore's
columnstore) organise it: fixed-size *segments* of column arrays, each with

* a **live bitmap** (deletes only clear a bit),
* per-column **zone maps** (min/max over every value ever written to the
  segment — widen-only, so they stay a conservative superset of the live
  values and pruning can never drop a matching row),
* a **physical encoding** per column, chosen when a compaction merge
  *seals* the segment from the column's one type census, one builder per
  encoding: ``RLE`` (long constant runs of one type -> (value, length)
  pairs), ``NATIVE`` (homogeneous ints/floats -> ``array('q')`` /
  ``array('d')`` typed arrays with a null set), ``DICT`` (strings -> int
  codes in the table-level dictionary, while it stays under its cap),
  falling back to ``PLAIN`` object lists.

Every table is organised **delta–main** (TiFlash's delta tree): WAL
records apply into unsorted *plain delta* tail segments, which never
seal, while ``compact()`` rewrites the partition's whole main with the
delta rows into *main* segments ordered on the **primary key**.  Ordering
lengthens RLE runs and makes the main segments' zone maps disjoint on the
leading key column, so the per-segment zone-map check prunes a key range
to the segments that can hold it.  Updates of main rows kill the old
slot and append the new version to the delta, so main segments stay
immutable (and encoded) between merges; scans are merge-on-read over main
plus the small delta overlay.

Encoded columns implement the sequence protocol (plus ``gather`` and
``count``), so every reader that iterates or indexes a column slice works
unchanged: the vectorized executor filters them in value space, and a
dictionary code never leaves its column.

The merge itself stays columnar (``_merge_delta``): live values are
gathered as concatenated columns, the sort orders an index vector keyed by
the key columns themselves, each output segment is one gather per column
(``Segment.from_columns``), and ``seal`` takes one type census per column
that drives both its encoding choice and its byte accounting — no row
tuple is built and no column is encoded value by value.

The vectorized executor reads segments through ``read_snapshot``;
``scan`` keeps the row-tuple view for the row pipeline.
Columnar tables support full scans only (no secondary indexes): point
lookups stay on the row store, as in TiDB.
"""

from __future__ import annotations

import heapq
import math
import threading
from array import array
from bisect import bisect_right
from collections import Counter, OrderedDict
from collections.abc import Iterator
from itertools import chain, compress, islice, repeat
from operator import eq, is_, ne, sub

from repro.catalog.schema import Table
from repro.catalog.types import VarcharType
from repro.errors import CatalogError
from repro.sql.ordering import canonical_column_keys
from repro.storage.partition import PartitionMap
from repro.storage.wal import LogOp, WriteAheadLog

SEGMENT_ROWS = 4096

# encoding choice thresholds (see _encode_column): a column whose average
# run is this long is better off run-length encoded than typed-array
# encoded, even for numerics
RLE_MIN_AVG_RUN = 32
# fallback RLE threshold for columns that qualify for no other encoding
# (a string column whose table dictionary has demoted)
RLE_FALLBACK_AVG_RUN = 8
# a table-level dictionary covers a whole string column and pays only
# while its cardinality stays under this cap; a column that exceeds it is
# *demoted*: its later seals are RLE or PLAIN
SHARED_DICT_MAX_CARDINALITY = 4096

# default LRU budget for cached sealed-run aggregate states (sketches)
SKETCH_BUDGET_BYTES = 32 << 20


class Encoding:
    """Physical encodings of one sealed segment column."""

    PLAIN = "plain"
    DICT = "dict"
    RLE = "rle"
    NATIVE = "native"


def _approx_value_bytes(value) -> int:
    """Deterministic per-value heap estimate (CPython-shaped, not exact)."""
    if value is None:
        return 8          # pointer to the shared None
    if isinstance(value, float):
        return 24
    if isinstance(value, int):
        return 28
    if isinstance(value, str):
        return 49 + len(value)
    return 48


_NONE_TYPE = type(None)
# the estimate of every value of these exact types is the same number
_FIXED_VALUE_BYTES = {kind: _approx_value_bytes(kind())
                      for kind in (_NONE_TYPE, float, int, bool)}
_STR_BASE_BYTES = _approx_value_bytes("")


def _type_census(values) -> dict:
    """``exact type -> count`` of one column: the one pass that sizes a
    column (``_plain_bytes``) and picks its encoding (``_encode_column``)."""
    kinds = set(map(type, values))
    if len(kinds) == 1:          # the common case needs no tally
        return {kinds.pop(): len(values)}
    return Counter(map(type, values))


def _plain_bytes(values, census: dict | None = None) -> int:
    """Approximate footprint of a plain object-list column.

    The sum of ``_approx_value_bytes`` over ``values``, taken per type
    from the census: bytes per value x count for the fixed-size types,
    one ``sum(map(len, ...))`` for strings; only values of a type outside
    that table are sized one call at a time.
    """
    if census is None:
        census = _type_census(values)
    total = 56 + 8 * len(values)
    for kind, count in census.items():
        fixed = _FIXED_VALUE_BYTES.get(kind)
        if fixed is not None:
            total += fixed * count
        elif kind is str:
            strings = (values if count == len(values)
                       else (v for v in values if type(v) is str))
            total += _STR_BASE_BYTES * count + sum(map(len, strings))
        else:
            total += sum(_approx_value_bytes(v) for v in values
                         if type(v) is kind)
    return total


class TableDictionary:
    """One shared value<->code map covering a whole string column.

    Installed per DICT-eligible (string) column of a table and shared by
    its partitions; it is the only dictionary a column encodes through,
    and the codes are a storage detail that only the column reads
    (``DictColumn``).
    Append-only: codes, once handed out, never change — sealed segments
    referencing the dictionary stay valid forever.  When the column's
    cardinality exceeds ``cap`` (``SHARED_DICT_MAX_CARDINALITY`` when the
    dictionary is built) the dictionary *demotes* (``active`` goes
    False): future seals of the column are RLE or PLAIN, while
    already-sealed dictionary columns keep decoding through the
    (frozen-enough) value list.
    """

    __slots__ = ("values", "code_of", "cap", "active", "referenced",
                 "_lock")

    def __init__(self):
        self.values: list = []
        self.code_of: dict = {}
        self.cap = SHARED_DICT_MAX_CARDINALITY
        self.active = True
        # True once any sealed column references the value list; a
        # dictionary demoted before that can free its dead values
        self.referenced = False
        # protects value/code appends only; reads ride on the atomicity
        # of dict.get against an append-only dict
        self._lock = threading.Lock()

    def _demote_locked(self):
        self.active = False
        if not self.referenced:
            # nothing ever sealed against this dictionary (the very first
            # column slice blew the cap): drop the dead values
            self.values.clear()
            self.code_of.clear()

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, values: list) -> array | None:
        """Encode a sealed column slice into global codes.

        Unseen values are appended to the dictionary; ``None`` means the
        dictionary has demoted (now or before: the table-level cap was
        exceeded) and the caller seals the slice without it.
        """
        with self._lock:
            if not self.active:
                return None
            code_of = self.code_of
            dictionary = self.values
            codes = array("i")
            append = codes.append
            for value in values:
                if value is None:
                    append(-1)
                    continue
                code = code_of.get(value)
                if code is None:
                    if len(dictionary) >= self.cap:
                        self._demote_locked()
                        return None
                    code = code_of[value] = len(dictionary)
                    dictionary.append(value)
                append(code)
            self.referenced = True
            return codes


class DictColumn:
    """Dictionary-encoded column: int codes in its table's code space.

    ``codes[i]`` indexes ``values``; ``-1`` encodes NULL.  ``values`` /
    ``code_of`` alias the shared ``TableDictionary`` structures
    (append-only, so indexing stays valid as the dictionary grows);
    ``code_set`` holds the codes actually present in this segment, and
    the byte accounting charges the segment for it.  Readers see decoded
    values only: the codes never leave the column.
    """

    encoding = Encoding.DICT
    __slots__ = ("codes", "values", "code_of", "code_set")

    def __init__(self, codes: array, shared: TableDictionary,
                 code_set: frozenset):
        self.codes = codes
        self.values = shared.values
        self.code_of = shared.code_of
        self.code_set = code_set

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int):
        code = self.codes[i]
        return None if code < 0 else self.values[code]

    def __iter__(self):
        # bulk-decode then iterate: one C-level comprehension beats a
        # per-element generator on every full-column consumer
        return iter(self.decode())

    def decode(self) -> list:
        values = self.values
        return [None if c < 0 else values[c] for c in self.codes]

    def count(self, value) -> int:
        if value is None:
            return self.codes.count(-1)
        code = self.code_of.get(value)
        return 0 if code is None else self.codes.count(code)

    def gather(self, selection: list) -> list:
        codes = self.codes
        values = self.values
        return [None if (c := codes[i]) < 0 else values[c]
                for i in selection]


class RLEColumn:
    """Run-length-encoded column: parallel (value, length) run arrays.

    ``starts`` holds each run's first offset for O(log runs) random access
    and lets ``gather`` walk the runs beside a sorted selection.
    """

    encoding = Encoding.RLE
    __slots__ = ("run_values", "run_lengths", "starts", "length")

    def __init__(self, run_values: list, run_lengths: array):
        self.run_values = run_values
        self.run_lengths = run_lengths
        starts = array("q", [0] * len(run_lengths))
        total = 0
        for i, n in enumerate(run_lengths):
            starts[i] = total
            total += n
        self.starts = starts
        self.length = total

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int):
        return self.run_values[bisect_right(self.starts, i) - 1]

    def __iter__(self):
        # bulk-decode (C-level list repeats) then iterate
        return iter(self.decode())

    def iter_runs(self):
        """Yield ``(value, length)`` pairs."""
        return zip(self.run_values, self.run_lengths)

    def decode(self) -> list:
        out: list = []
        for value, n in zip(self.run_values, self.run_lengths):
            out.extend([value] * n)
        return out

    def count(self, value) -> int:
        if value is None:
            return sum(n for v, n in self.iter_runs() if v is None)
        return sum(n for v, n in self.iter_runs()
                   if v is not None and v == value)

    def gather(self, selection: list) -> list:
        # selections are sorted scan offsets: walk the runs alongside them
        # instead of a bisect per element
        out = []
        run = 0
        starts = self.starts
        run_values = self.run_values
        top = len(starts) - 1
        for i in selection:
            while run < top and starts[run + 1] <= i:
                run += 1
            out.append(run_values[run])
        return out


class NativeColumn:
    """Typed-array column: ``array('q')`` ints / ``array('d')`` floats.

    NULL slots store a sentinel zero and their offsets live in ``nulls``;
    decoding restores exact values (the array is only built for homogeneous
    int or homogeneous float columns, so no int/float identity is lost).
    """

    encoding = Encoding.NATIVE
    __slots__ = ("data", "nulls")

    def __init__(self, data: array, nulls: frozenset):
        self.data = data
        self.nulls = nulls

    @property
    def all_ints(self) -> bool:
        """True when every slot is a non-NULL int — aggregates may fold the
        whole slice with builtin ``sum`` (exact for ints)."""
        return self.data.typecode == "q" and not self.nulls

    @property
    def all_floats(self) -> bool:
        """True when every slot is a non-NULL float (may include inf/nan)."""
        return self.data.typecode == "d" and not self.nulls

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int):
        return None if i in self.nulls else self.data[i]

    def __iter__(self):
        if not self.nulls:
            return iter(self.data)
        return iter(self.decode())

    def decode(self) -> list:
        # bulk-convert then patch the (usually few) NULL slots: far cheaper
        # than a per-element membership test
        out = list(self.data)
        for i in self.nulls:
            out[i] = None
        return out

    def count(self, value) -> int:
        if value is None:
            return len(self.nulls)
        if not self.nulls:
            return self.data.count(value)
        nulls = self.nulls
        return sum(1 for i, v in enumerate(self.data)
                   if i not in nulls and v == value)

    def gather(self, selection: list) -> list:
        data = self.data
        if not self.nulls:
            return [data[i] for i in selection]
        nulls = self.nulls
        return [None if i in nulls else data[i] for i in selection]


def _encoded_bytes(column) -> int:
    """Approximate footprint of one encoded column."""
    if isinstance(column, DictColumn):
        # the dictionary is table-level and counted once at the replica
        # (``shared_dict_bytes``); the segment pays for codes + code set
        return (64 + column.codes.itemsize * len(column.codes)
                + 8 * len(column.code_set))
    if isinstance(column, RLEColumn):
        return (64 + 2 * column.run_lengths.itemsize * len(column.run_lengths)
                + _plain_bytes(column.run_values))
    if isinstance(column, NativeColumn):
        return (64 + column.data.itemsize * len(column.data)
                + 8 * len(column.nulls))
    return _plain_bytes(column)


def _plain_floats(values) -> bool:
    """No NaN and no ``-0.0`` among the floats (and NULLs) of ``values`` —
    the two floats ``!=`` alone cannot delimit runs for: a NaN differs
    from itself, and ``-0.0`` equals the ``0.0`` it must not merge with."""
    if any(map(ne, values, values)):
        return False
    zeros = compress(values, map(eq, values, repeat(0.0)))
    return -1.0 not in map(math.copysign, repeat(1.0), zeros)


def _encode_column(values: list, shared: TableDictionary | None = None,
                   census: dict | None = None):
    """Pick and build the cheapest safe encoding for a sealed column slice.

    Returns the original list when no encoding applies (``PLAIN``).  One
    type census (``census``, taken here when the caller has none) decides
    which encodings a column can take, and each has one builder:

    * ``RLE`` (long runs) only where inequality of neighbours alone
      delimits the runs — a single non-NULL type among int / str / float,
      floats without NaN or ``-0.0``, or an all-NULL column — so one
      ``!=`` pass over adjacent pairs yields the run starts and every run
      decodes to the values it replaced;
    * ``NATIVE`` for a homogeneous int or float column (NaN and ``-0.0``
      included: a typed array keeps them exact);
    * ``DICT`` for strings, through the table's dictionary ``shared``
      while it is active.

    Any other census (mixed types, ``bool``, exotic values) stays PLAIN.
    A string column whose dictionary has demoted seals RLE at
    ``RLE_FALLBACK_AVG_RUN`` or PLAIN.
    """
    n = len(values)
    if n == 0:
        return values
    if census is None:
        census = _type_census(values)
    kinds = census.keys() - {_NONE_TYPE}
    kind = next(iter(kinds)) if len(kinds) == 1 else None
    avg_run = 0
    if not kinds or kind is int or kind is str or (
            kind is float and _plain_floats(values)):
        starts = [0, *compress(range(1, n),
                               map(ne, values, islice(values, 1, None)))]
        avg_run = n // len(starts)
        if avg_run >= RLE_MIN_AVG_RUN:
            return _rle(values, starts)
    if kind is int or kind is float:
        typecode = "q" if kind is int else "d"
        try:
            if _NONE_TYPE not in census:
                return NativeColumn(array(typecode, values), frozenset())
            return NativeColumn(
                array(typecode, [0 if v is None else v for v in values]),
                frozenset(compress(range(n), map(is_, values, repeat(None)))))
        except OverflowError:
            pass        # an int outside int64: no typed array holds it
    if kind is str and shared is not None:
        codes = shared.encode(values)
        if codes is not None:
            return DictColumn(codes, shared,
                              frozenset(c for c in set(codes) if c >= 0))
    if avg_run >= RLE_FALLBACK_AVG_RUN:
        return _rle(values, starts)
    return values


def _rle(values: list, starts: list) -> RLEColumn:
    """The runs of ``values`` that begin at offsets ``starts``."""
    return RLEColumn(list(map(values.__getitem__, starts)),
                     array("q", map(sub, chain(islice(starts, 1, None),
                                               (len(values),)), starts)))


class Segment:
    """One fixed-capacity block of column arrays with zone maps.

    Delta segments hold plain lists and receive WAL applies (appends and
    in-place overwrites); the main segments a compaction merge builds are
    *sealed* (each column encoded) and immutable from then on, apart from
    the live bitmap.
    """

    __slots__ = ("capacity", "columns", "live", "size", "live_count",
                 "mins", "maxs", "zone_valid", "encoded",
                 "plain_bytes", "encoded_bytes", "sketch_epoch")

    def __init__(self, n_columns: int, capacity: int = SEGMENT_ROWS):
        self.capacity = capacity
        self.columns: list = [[] for _ in range(n_columns)]
        self.live: list[bool] = []
        self.size = 0          # rows ever appended (== len(self.live))
        self.live_count = 0
        # zone maps: min/max over every non-NULL value ever written here.
        # Widen-only — deletes and overwrites never narrow them — so the
        # interval is always a superset of the live values (prune-safe).
        self.mins: list = [None] * n_columns
        self.maxs: list = [None] * n_columns
        self.zone_valid = [True] * n_columns  # False after a type clash
        self.encoded = False
        self.plain_bytes = 0
        self.encoded_bytes = 0
        # bumped by every mutation of sealed content (kill/revive/seal):
        # a cached sketch built at epoch E is served only while
        # the segment is still at epoch E, so a bypassed eager-invalidation
        # hook can never surface a stale state
        self.sketch_epoch = 0

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def encodings(self) -> list[str]:
        return [getattr(col, "encoding", Encoding.PLAIN)
                for col in self.columns]

    @classmethod
    def from_columns(cls, columns: list[list], capacity: int) -> Segment:
        """A segment born whole from parallel column slices, every row
        live — what a compaction merge cuts out of its sorted columns
        (no per-row ``append``).  Zone maps take one ``min`` / ``max`` per
        column."""
        segment = cls(len(columns), capacity)
        segment.columns = columns
        segment.size = segment.live_count = len(columns[0])
        segment.live = [True] * segment.size
        for pos, values in enumerate(columns):
            segment._widen(pos, values if None not in values
                           else [v for v in values if v is not None])
        return segment

    def observe_batch(self, rows: list[tuple]):
        """Widen the zone maps to cover a whole applied-WAL chunk at once.

        One min()/max() per column per chunk replaces the per-row per-column
        comparison loop of the old ``_observe`` — the replica apply path
        batches all widening behind the chunk.
        """
        for pos in range(len(self.columns)):
            if self.zone_valid[pos]:
                self._widen(pos, [v for row in rows
                                  if (v := row[pos]) is not None])

    def _widen(self, pos: int, values: list):
        """Widen column ``pos``'s zone map over the non-NULL ``values``."""
        if not values:
            return
        try:
            low = min(values)
            high = max(values)
            current = self.mins[pos]
            if current is None:
                self.mins[pos] = low
                self.maxs[pos] = high
            else:
                if low < current:
                    self.mins[pos] = low
                if high > self.maxs[pos]:
                    self.maxs[pos] = high
        except TypeError:
            # mixed uncomparable types: disable pruning on this column
            self.zone_valid[pos] = False
            self.mins[pos] = None
            self.maxs[pos] = None

    def append(self, values: tuple) -> int:
        """Append a live row; returns its offset within the segment.

        Zone maps are *not* widened here — the owning table batches
        ``observe_batch`` per applied WAL chunk.
        """
        offset = self.size
        for col, value in zip(self.columns, values):
            col.append(value)
        self.live.append(True)
        self.size += 1
        self.live_count += 1
        return offset

    def write(self, offset: int, values: tuple):
        """Overwrite a delta slot in place (replicated UPDATE / reinsert
        of a row that still lives in the plain delta)."""
        for col, value in zip(self.columns, values):
            col[offset] = value

    def seal(self, shared_dicts: dict | None = None):
        """Encode every column (called on the segments a merge builds).

        ``shared_dicts`` maps column positions to their table-level
        ``TableDictionary``; string columns encode through it.

        One type census per column drives both its encoding choice and
        its plain-byte accounting.

        The encode is atomic: every column is encoded into a list built
        aside, published with single assignments only once all columns
        succeeded — a crash mid-seal leaves the segment fully plain (and
        fully queryable), never half-encoded.
        """
        plain_total = 0
        encoded_total = 0
        new_columns: list = []
        for pos, values in enumerate(self.columns):
            shared = shared_dicts.get(pos) if shared_dicts else None
            census = _type_census(values)
            encoded = _encode_column(values, shared, census)
            new_columns.append(encoded)
            plain = _plain_bytes(values, census)
            plain_total += plain
            # a column left PLAIN is the same list: same bytes
            encoded_total += (plain if encoded is values
                              else _encoded_bytes(encoded))
        self.columns = new_columns
        self.plain_bytes = plain_total
        self.encoded_bytes = encoded_total
        self.encoded = True
        self.sketch_epoch += 1

    def kill(self, offset: int):
        self.live[offset] = False
        self.live_count -= 1
        self.sketch_epoch += 1

    def revive(self, offset: int):
        self.live[offset] = True
        self.live_count += 1
        self.sketch_epoch += 1

    def may_contain(self, pos: int, low, high,
                    low_inclusive: bool = True,
                    high_inclusive: bool = True) -> bool:
        """Can any value of column ``pos`` fall inside [low, high]?

        ``None`` bounds are open.  Returns True whenever the zone map cannot
        prove the segment disjoint (the only direction that must be exact).
        """
        if not self.zone_valid[pos]:
            return True
        mn = self.mins[pos]
        if mn is None:
            # no non-NULL value was ever written: range/equality predicates
            # cannot match (NULL comparisons are never true)
            return False
        mx = self.maxs[pos]
        try:
            if low is not None:
                if (mx < low) if low_inclusive else (mx <= low):
                    return False
            if high is not None:
                if (mn > high) if high_inclusive else (mn >= high):
                    return False
        except TypeError:
            return True
        return True


class SegmentSketchCache:
    """Bounded LRU of the aggregate states ("sketches") of runs of sealed
    segments.

    A sealed main segment is immutable between kills and compactions, so
    the contribution of a run of them — a maximal stretch of consecutive
    whole sealed segments in stream order — to a sketch-eligible
    aggregate (exact COUNT / SUM / AVG / MIN / MAX states, grouped or not)
    is a constant the executor would otherwise recompute on every
    statement.  An entry is keyed by ``run_key``: the plan's sketch key
    plus ``(id(segment), sketch_epoch)`` for each segment of the run.  It
    pins the run's segments, so an id can never be recycled under a live
    entry, and any mutation of sealed content — slot kill/revive, re-seal,
    a merge swap — changes an epoch or an identity: a stale state never
    matches its key even if an eager invalidation hook were bypassed.
    An entry is registered under every segment of its run, so
    ``invalidate`` / ``drop_segments`` / ``clear`` drop it.  The executor
    only merges from or copies a cached state, never folds into it.

    Memory is bounded by ``budget_bytes`` (``SKETCH_BUDGET_BYTES`` when
    the cache is built): inserts evict least-recently-used entries past
    the budget.  Counters (`evicted`, `invalidated`) are cumulative for
    the replica's lifetime and survive ``clear()``.
    """

    def __init__(self):
        self.budget_bytes = SKETCH_BUDGET_BYTES
        # run_key -> (segments, state, nbytes), LRU order
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._by_segment: dict[int, set] = {}
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.evicted = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _drop_locked(self, run_key: tuple):
        entry = self._entries.pop(run_key, None)
        if entry is None:
            return
        self.total_bytes -= entry[2]
        for ident, _epoch in run_key[0]:
            keys = self._by_segment.get(ident)
            if keys is not None:
                keys.discard(run_key)
                if not keys:
                    del self._by_segment[ident]

    @staticmethod
    def run_key(segments, key) -> tuple:
        """The cache key of a run of segments in their current state."""
        return tuple((id(segment), segment.sketch_epoch)
                     for segment in segments), key

    def lookup(self, run_key: tuple):
        """The cached state under ``run_key``, or None."""
        with self._lock:
            entry = self._entries.get(run_key)
            if entry is None:
                return None
            self._entries.move_to_end(run_key)
            return entry[1]

    def store(self, run_key: tuple, segments, value, nbytes: int):
        """Cache one run's state, evicting LRU entries past the budget;
        the caller never folds into ``value`` again."""
        if nbytes > self.budget_bytes:
            return
        with self._lock:
            self._drop_locked(run_key)
            self._entries[run_key] = (tuple(segments), value, nbytes)
            for segment in segments:
                self._by_segment.setdefault(id(segment), set()).add(run_key)
            self.total_bytes += nbytes
            while self.total_bytes > self.budget_bytes:
                self._drop_locked(next(iter(self._entries)))
                self.evicted += 1

    def invalidate(self, segment: Segment):
        """Eagerly drop every entry over one mutated segment."""
        with self._lock:
            keys = self._by_segment.get(id(segment))
            if keys:
                self.invalidated += len(keys)
                for run_key in list(keys):
                    self._drop_locked(run_key)

    def drop_segments(self, segments):
        """Drop entries of segments about to be rewritten by compaction."""
        for segment in segments:
            self.invalidate(segment)

    def clear(self):
        """Drop every entry (replica reset); counters stay cumulative."""
        with self._lock:
            self._entries.clear()
            self._by_segment.clear()
            self.total_bytes = 0


class ColumnarTable:
    """Column-major storage for one table, in fixed-size segments.

    Delta–main: ``_segments`` is the unsorted plain delta tail and
    ``_main_segments`` holds the primary-key-ordered (encoded) segments
    produced by ``compact()`` merges.  ``first_lsn`` is the partition's
    replication watermark when the table was registered: a WAL record
    below it belongs to an earlier (dropped) table of the same name.
    """

    def __init__(self, table: Table, segment_rows: int, first_lsn: int,
                 merge_totals: list, lock: threading.RLock,
                 sketches: SegmentSketchCache, shared_dicts: dict,
                 failpoints):
        self._failpoints = failpoints
        # replica-wide sketch cache: kills/revives/overwrites invalidate
        # the cached runs over the touched segment eagerly (epoch checks
        # backstop)
        self._sketches = sketches
        # serialises the mutable touch points (WAL apply, zone-map
        # widening, compaction swap) so a writer thread may replicate()
        # (apply + inline compaction) while other threads scan; the
        # replica shares one lock across its tables so a chunk apply is
        # atomic with respect to compaction.  Re-entrant because
        # compact() nests flush_zone_maps().
        self._lock = lock
        self.table = table
        self.segment_rows = segment_rows
        # column position -> table-level TableDictionary (shared across
        # the table's partitions); empty for a table with no string column
        self.shared_dicts = shared_dicts
        self.first_lsn = first_lsn
        # the unsorted plain delta tail
        self._segments: list[Segment] = []
        self._pk_to_slot: dict[tuple, int] = {}
        # primary-key-ordered merged segments
        self._main_segments: list[Segment] = []
        self._main_pk_to_slot: dict[tuple, int] = {}   # live main rows only
        self.row_count = 0
        # zone-map widening deferred until the end of the apply chunk:
        # (segment, values) pairs grouped and flushed by flush_zone_maps()
        self._zone_pending: list[tuple[Segment, tuple]] = []
        self.encode_events = 0      # compaction seals
        # the replica's shared [segments, rows] merge totals, so
        # replica-wide reads stay O(1) instead of sweeping tables x
        # partitions
        self._merge_totals = merge_totals

    # -- write path (WAL application) ----------------------------------

    def _locate(self, slot: int) -> tuple[Segment, int]:
        return (self._segments[slot // self.segment_rows],
                slot % self.segment_rows)

    def _locate_main(self, slot: int) -> tuple[Segment, int]:
        return (self._main_segments[slot // self.segment_rows],
                slot % self.segment_rows)

    def _delta_append(self, pk: tuple, values: tuple) -> Segment:
        """Append a new live row to the delta tail."""
        if not self._segments or self._segments[-1].full:
            self._segments.append(
                Segment(len(self.table.columns), self.segment_rows))
        segment = self._segments[-1]
        offset = segment.append(values)
        self._pk_to_slot[pk] = \
            (len(self._segments) - 1) * self.segment_rows + offset
        self.row_count += 1
        return segment

    def apply(self, pk: tuple, values: tuple | None, op: LogOp):
        """Delta–main apply: main segments are immutable between merges.

        Deletes kill the row wherever it lives (delta slot or main live
        bitmap); inserts/updates of a pk living in main kill the main slot
        and append the new version to the delta tail, so the newest version
        of every pk lives in exactly one place and merge-on-read needs no
        per-row deduplication.  Delta segments never seal: they stay plain
        until the next merge re-sorts them into main.
        """
        with self._lock:
            slot = self._pk_to_slot.get(pk)
            if op is LogOp.DELETE or values is None:
                if slot is not None:
                    segment, offset = self._locate(slot)
                    if segment.live[offset]:
                        segment.kill(offset)
                        self.row_count -= 1
                else:
                    main_slot = self._main_pk_to_slot.pop(pk, None)
                    if main_slot is not None:
                        segment, offset = self._locate_main(main_slot)
                        segment.kill(offset)
                        self.row_count -= 1
                        self._sketches.invalidate(segment)
                return
            if slot is None:
                main_slot = self._main_pk_to_slot.pop(pk, None)
                if main_slot is not None:
                    # supersede the main version; the dead slot is
                    # reclaimed by the next merge
                    segment, offset = self._locate_main(main_slot)
                    segment.kill(offset)
                    self.row_count -= 1
                    self._sketches.invalidate(segment)
                segment = self._delta_append(pk, values)
            else:
                segment, offset = self._locate(slot)
                if not segment.live[offset]:
                    segment.revive(offset)
                    self.row_count += 1
                segment.write(offset, values)
            self._zone_pending.append((segment, values))

    def flush_zone_maps(self):
        """Batch-widen zone maps for everything applied since the last
        flush (one ``observe_batch`` per touched segment).

        Locked: two concurrent flushes racing on the swap could each widen
        from half the pending rows — zone maps would end up *narrower*
        than the written values, breaking prune safety.
        """
        with self._lock:
            self._flush_zone_maps_locked()

    def _flush_zone_maps_locked(self):
        pending = self._zone_pending
        if not pending:
            return
        self._zone_pending = []
        by_segment: dict[int, tuple[Segment, list]] = {}
        for segment, values in pending:
            entry = by_segment.get(id(segment))
            if entry is None:
                by_segment[id(segment)] = (segment, [values])
            else:
                entry[1].append(values)
        for segment, rows in by_segment.values():
            segment.observe_batch(rows)

    def compact(self, force: bool = False) -> int:
        """Ordered compaction; returns the number of segments produced.

        Merges the delta tail into the sorted main segments once the
        delta reaches a full segment's worth of live rows (``force=True``
        merges any non-empty delta) — the threshold amortises the main
        rewrite over many applied chunks.
        """
        with self._lock:
            self.flush_zone_maps()
            pending = self.delta_live_rows()
            if pending == 0:
                return 0
            if not force and pending < self.segment_rows:
                return 0
            return self._merge_delta()

    def delta_live_rows(self) -> int:
        """Live rows waiting in the delta tail."""
        return sum(segment.live_count for segment in self._segments)

    def _live_columns(self, segments: list[Segment]) -> list[list]:
        """The live values of ``segments``, concatenated column by column
        (sealed columns bulk-decode; the live bitmap filters in C)."""
        columns: list[list] = [[] for _ in self.table.columns]
        for segment in segments:
            if segment.live_count == 0:
                continue
            all_live = segment.live_count == segment.size
            for out, column in zip(columns, segment.columns):
                values = (column if isinstance(column, list)
                          else column.decode())
                out.extend(values if all_live
                           else compress(values, segment.live))
        return columns

    def _merge_delta(self) -> int:
        """Ordered compaction: rewrite the whole main with the delta.

        The live main rows plus the delta rows are sorted on the canonical
        primary key and re-sealed into fresh encoded segments; dead slots
        are dropped.  Sorting is what lengthens RLE runs and keeps the
        segments' zone maps disjoint on the leading key column.

        **Columnar throughout**: no row tuple is built.  The live values
        are gathered as concatenated columns, the sort keys come from the
        key columns themselves (``canonical_column_keys``: a homogeneous
        column's natural order *is* its canonical order), the sort orders
        an index vector, and every output segment is one gather per column
        through its slice of that vector (``Segment.from_columns``).

        **Swap, don't mutate**: the new segment list is built aside and
        installed with one assignment, so an in-flight scan holding a
        pre-swap ``read_snapshot`` keeps a consistent view for its whole
        lifetime.
        """
        pk_positions = self.table.pk_positions
        delta = self._live_columns(self._segments)
        if not delta[0]:
            return 0
        main = self._main_segments
        columns = self._live_columns(main)
        for column, tail in zip(columns, delta):
            column.extend(tail)
        keys = canonical_column_keys([columns[p] for p in pk_positions])
        n_rows = len(columns[0])
        order = sorted(range(n_rows), key=keys.__getitem__)
        del delta, keys     # dead weight while the segments are built

        width = self.segment_rows
        segments: list[Segment] = []
        for begin in range(0, n_rows, width):
            picks = order[begin:begin + width]
            chunk = [list(map(column.__getitem__, picks))
                     for column in columns]
            segment = Segment.from_columns(chunk, width)
            # ordered compaction is where shared dictionaries are
            # built/refreshed: every merged segment encodes straight
            # into the global code space
            segment.seal(self.shared_dicts)
            self.encode_events += 1
            segments.append(segment)
        # crash point: everything above built fresh objects aside; the
        # publish below is the first mutation.  A fault here leaves the
        # old main + delta fully queryable (compaction simply re-runs).
        if self._failpoints is not None:
            self._failpoints.fire("compact.merge")
        pk_map = dict(zip(
            zip(*(map(columns[p].__getitem__, order) for p in pk_positions)),
            range(n_rows)))
        # sketches of the old main die with its segments
        self._sketches.drop_segments(main)
        self._main_segments = segments
        self._main_pk_to_slot = pk_map
        self._segments = []
        self._pk_to_slot = {}
        self._zone_pending = []
        self._merge_totals[0] += len(segments)
        self._merge_totals[1] += n_rows
        return len(segments)

    # -- consistent read snapshots -------------------------------------

    def read_snapshot(self) -> tuple[list[Segment], list[Segment]]:
        """Atomic ``(main_segments, delta_segments)``.

        Scans must take the main and delta lists in one locked read: a
        merge swap on a writer thread between two separate reads would
        pair the pre-swap main with the post-swap (empty) delta.  The
        returned lists stay internally consistent forever — compaction
        swaps in fresh lists instead of mutating these (sealed segments
        are immutable; delta tail segments may still grow, which only adds
        rows past the snapshot-time size).
        """
        with self._lock:
            self.flush_zone_maps()
            return self._main_segments, self._segments

    # -- read path ------------------------------------------------------

    def _all_segments(self) -> list[Segment]:
        """Every segment in physical scan order (main first, then delta).

        Locked so the main + delta concatenation is one consistent
        snapshot even while a writer thread's merge swaps the lists.
        """
        with self._lock:
            return self._main_segments + self._segments

    def scan(self) -> Iterator[tuple[tuple, tuple]]:
        """Yield ``(pk, values)`` for live rows as of the applied watermark.

        Physical order (sorted main, then the delta overlay), so the row
        pipeline sees the same row sequence as the vectorized scan.
        """
        self.flush_zone_maps()
        pk_of = self.table.pk_of
        for segment in self._all_segments():
            if segment.live_count == 0:
                continue
            live = segment.live
            columns = segment.columns
            for offset in range(segment.size):
                if live[offset]:
                    values = tuple(col[offset] for col in columns)
                    yield pk_of(values), values

    def segments(self) -> list[Segment]:
        self.flush_zone_maps()
        return self._all_segments()


def _encoding_stats(segments: list[Segment]) -> dict:
    """Segment/byte accounting of the encoding layer over ``segments``."""
    stats = {
        "segments_total": len(segments),
        "segments_encoded": 0,
        "bytes_plain": 0,
        "bytes_encoded": 0,
        "bytes_saved": 0,
        "encodings": {Encoding.PLAIN: 0, Encoding.DICT: 0,
                      Encoding.RLE: 0, Encoding.NATIVE: 0},
        # dictionary accounting: the code bytes and the number of
        # dictionary columns (their values are counted once per table
        # dictionary, as the replica's ``shared_dict_bytes``)
        "dict_code_bytes": 0,
        "dicts_shared": 0,
    }
    for segment in segments:
        if not segment.encoded:
            continue
        stats["segments_encoded"] += 1
        stats["bytes_plain"] += segment.plain_bytes
        stats["bytes_encoded"] += segment.encoded_bytes
        for encoding in segment.encodings():
            stats["encodings"][encoding] += 1
        for column in segment.columns:
            if isinstance(column, DictColumn):
                stats["dict_code_bytes"] += \
                    column.codes.itemsize * len(column.codes)
                stats["dicts_shared"] += 1
    stats["bytes_saved"] = stats["bytes_plain"] - stats["bytes_encoded"]
    return stats


class ColumnarReplica:
    """The set of columnar tables fed from the per-partition WAL streams.

    Each partition keeps its own tables and its own applied-LSN watermark,
    so replication progress (and therefore freshness) is partition-local —
    exactly how TiFlash tracks progress per region.  ``apply_from_partitions``
    merges the streams by global ``seq``, which reproduces the single-stream
    apply order bit-for-bit regardless of the partition count.
    """

    def __init__(self, segment_rows: int = SEGMENT_ROWS,
                 partition_map: PartitionMap | None = None,
                 failpoints=None):
        if segment_rows <= 0:
            raise ValueError("segment_rows must be positive")
        self.pmap = partition_map or PartitionMap(1)
        self._failpoints = failpoints
        # one replica-wide sketch cache shared by every table/partition:
        # the LRU budget bounds total sketch memory, not per-table memory
        self.sketches = SegmentSketchCache()
        # (table, first_lsns) in registration order: reset() rebuilds the
        # replica in place from this list, preserving object identity
        # (the executor and planner hold references to the replica)
        self._registrations: list[tuple] = []
        # one re-entrant lock shared by every table of the replica: a WAL
        # apply chunk, a zone-map flush and a compaction swap
        # are mutually atomic, while sealed-segment reads stay lock-free
        self._lock = threading.RLock()
        # table -> one ColumnarTable per partition
        self._tables: dict[str, list[ColumnarTable]] = {}
        self.segment_rows = segment_rows
        self.applied_lsns = [0] * self.pmap.partitions
        self.applied_ts = 0
        # scan_cost_factor cache, invalidated whenever a compaction seal
        # changes the encoded byte accounting (keyed on total encode events)
        self._scan_factor_cache: tuple[int, float] = (-1, 1.0)
        # replica-wide [segments, rows] merge totals, incremented by each
        # table's _merge_delta (O(1) reads on the simulator's hot loop),
        # plus the watermarks already handed to the simulator
        self._merge_totals: list = [0, 0]
        self._drained_segments_merged = 0
        self._drained_rows_merged = 0

    @property
    def partitions(self) -> int:
        return self.pmap.partitions

    def register_table(self, table: Table,
                       first_lsns: tuple[int, ...] | None = None):
        """Add one table.  ``first_lsns`` (default: the current applied
        watermarks) is where each partition's records of *this* table
        start: WAL records carry only the table name, and a dropped table
        of the same name left its records below them."""
        key = table.name.upper()
        if key in self._tables:
            raise CatalogError(f"columnar table {table.name!r} already exists")
        if first_lsns is None:
            first_lsns = tuple(self.applied_lsns)
        # one dictionary per string column (only they are DICT-eligible),
        # shared by the table's partitions
        shared = {pos: TableDictionary()
                  for pos, column in enumerate(table.columns)
                  if isinstance(column.col_type, VarcharType)}
        self._tables[key] = [
            ColumnarTable(table, self.segment_rows, first_lsn,
                          merge_totals=self._merge_totals, lock=self._lock,
                          sketches=self.sketches, shared_dicts=shared,
                          failpoints=self._failpoints)
            for first_lsn in first_lsns
        ]
        self._registrations.append((table, first_lsns))

    def reset(self):
        """Discard all replicated state; the replica rebuilds from LSN 0.

        Crash recovery: after the WALs have truncated their torn tails,
        the database re-replicates the surviving log into a freshly reset
        replica.  The rebuild happens *in place* (same object) because
        the executor and planner hold references to this replica.
        """
        with self._lock:
            registrations = list(self._registrations)
            self._registrations = []
            self._tables = {}
            self.applied_lsns = [0] * self.pmap.partitions
            self.applied_ts = 0
            self.sketches.clear()
            self._scan_factor_cache = (-1, 1.0)
            self._merge_totals[0] = 0
            self._merge_totals[1] = 0
            self._drained_segments_merged = 0
            self._drained_rows_merged = 0
            for table, first_lsns in registrations:
                self.register_table(table, first_lsns)

    def drop_table(self, name: str):
        """Forget one table: its partitions (with their dictionaries), its
        registration (so ``reset()`` does not bring it back) and its
        segments' cached sketches."""
        key = name.upper()
        with self._lock:
            parts = self._tables.pop(key, [])
            self._registrations = [
                registration for registration in self._registrations
                if registration[0].name.upper() != key]
            for part in parts:
                self.sketches.drop_segments(part.segments())

    def table_partitions(self, name: str) -> list[ColumnarTable]:
        """The per-partition columnar stores of one table."""
        try:
            return self._tables[name.upper()]
        except KeyError:
            raise CatalogError(f"no columnar replica for table {name!r}") from None

    def _apply_record(self, pid: int, record):
        if self._failpoints is not None:
            # fires *before* the apply: the watermark still points at this
            # record, so a post-recovery replicate resumes exactly here
            self._failpoints.fire("replica.apply")
        parts = self._tables.get(record.table.upper())
        if parts is not None and record.lsn >= parts[pid].first_lsn:
            parts[pid].apply(record.pk, record.values, record.op)
        self.applied_lsns[pid] = record.lsn + 1
        self.applied_ts = record.commit_ts

    def _flush_zone_maps(self):
        """End-of-chunk zone-map widening across every touched table."""
        for parts in self._tables.values():
            for part in parts:
                part.flush_zone_maps()

    def compact(self, force: bool = False) -> int:
        """Compaction across tables and partitions on the calling thread:
        merge delta tails into the sorted main segments (``force=True``
        merges every non-empty delta regardless of the amortisation
        threshold; ``replicate()`` runs the thresholded form inline)."""
        return sum(part.compact(force)
                   for parts in self._tables.values() for part in parts)

    def drain_compaction_stats(self) -> tuple[int, int]:
        """``(segments_merged, rows_merged)`` since the last drain.

        The simulator charges ordered-compaction work to the columnar node
        group; draining keeps the charge incremental per engine tick.
        """
        segments, rows = self._merge_totals
        delta = (segments - self._drained_segments_merged,
                 rows - self._drained_rows_merged)
        self._drained_segments_merged = segments
        self._drained_rows_merged = rows
        return delta

    def segments_merged_total(self) -> int:
        """Cumulative segments produced by ordered compactions (O(1))."""
        return self._merge_totals[0]

    def encoding_stats(self) -> dict:
        """Encoding accounting across tables and partitions: one pass over
        every partition's segments, collected under the replica lock."""
        with self._lock:
            segments = [segment for parts in self._tables.values()
                        for part in parts for segment in part.segments()]
            # a table's partitions share one position -> dictionary map
            dictionaries = [dictionary for parts in self._tables.values()
                            for dictionary in parts[0].shared_dicts.values()]
        stats = _encoding_stats(segments)
        # the table-level dictionaries are stored once per column — count
        # their value bytes here, not in any segment's encoded_bytes
        shared_bytes = sum(_plain_bytes(d.values) for d in dictionaries)
        stats["shared_dict_bytes"] = shared_bytes
        stats["shared_dicts_total"] = len(dictionaries)
        stats["shared_dicts_demoted"] = sum(
            1 for d in dictionaries if not d.active)
        # the sketch cache is reported beside the footprint, not inside
        # it: cached states summarise data rather than encode it, and the
        # simulator's scan_cost_factor reads bytes_encoded
        sketches = self.sketches
        stats["sketch_bytes"] = sketches.total_bytes
        stats["sketches_cached"] = len(sketches)
        stats["sketch_evictions"] = sketches.evicted
        stats["bytes_encoded"] += shared_bytes
        stats["bytes_saved"] = stats["bytes_plain"] - stats["bytes_encoded"]
        stats["compression_ratio"] = (
            stats["bytes_plain"] / stats["bytes_encoded"]
            if stats["bytes_encoded"] else 1.0)
        return stats

    def scan_cost_factor(self) -> float:
        """Per-row columnar scan cost multiplier for the simulator.

        The measured encoded/plain byte ratio of sealed segments (<= 1.0):
        an engine scanning dictionary codes and typed arrays moves that much
        less data per row.  1.0 while nothing is sealed or encoding is off.
        """
        events = sum(part.encode_events
                     for parts in self._tables.values() for part in parts)
        cached_events, cached_factor = self._scan_factor_cache
        if cached_events == events:
            return cached_factor
        stats = self.encoding_stats()
        if not stats["bytes_plain"] or not stats["bytes_encoded"]:
            factor = 1.0
        else:
            factor = max(0.05, min(1.0, stats["bytes_encoded"]
                                   / stats["bytes_plain"]))
        self._scan_factor_cache = (events, factor)
        return factor

    def apply_from_partitions(self, wals: list[WriteAheadLog],
                              limit: int | None = None) -> int:
        """Merge-apply pending records across partition streams by ``seq``.

        Applying in global commit order keeps partial replication (``limit``)
        equivalent to the unpartitioned single stream: the replica's state
        after N applied records is identical for every partition count.
        A heap merges the streams (O(log P) per record); with a ``limit``
        each stream is read at most ``limit`` records deep — applying N
        records in seq order can never need more than the first N of any
        one stream.
        """
        if len(wals) != len(self.applied_lsns):
            raise CatalogError(
                f"replica has {len(self.applied_lsns)} partitions but "
                f"{len(wals)} WAL streams were supplied"
            )
        pending = [wal.read_from(self.applied_lsns[pid], limit)
                   for pid, wal in enumerate(wals)]
        heap = [(records[0].seq, pid, 0)
                for pid, records in enumerate(pending) if records]
        heapq.heapify(heap)
        applied = 0
        # one lock span per chunk: concurrent scans see the replica either
        # before or after the whole apply, never mid-record
        with self._lock:
            while heap and (limit is None or applied < limit):
                _seq, pid, cursor = heapq.heappop(heap)
                records = pending[pid]
                self._apply_record(pid, records[cursor])
                applied += 1
                cursor += 1
                if cursor < len(records):
                    heapq.heappush(heap, (records[cursor].seq, pid, cursor))
            self._flush_zone_maps()
        return applied

    def total_lag(self, wals: list[WriteAheadLog]) -> int:
        """Records not yet applied, summed across partition streams."""
        return sum(
            wal.head_lsn - self.applied_lsns[pid]
            for pid, wal in enumerate(wals)
        )
