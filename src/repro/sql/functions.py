"""Grouped aggregation state and scalar functions.

NULL handling follows the pragmatic subset the benchmark queries need:
aggregates skip NULL inputs; ``COUNT(*)`` counts rows; ``AVG`` over an empty
or all-NULL input yields NULL.

Both executors aggregate into one ``GroupedAggregation``: group keys map to
dense group ids and every state keeps *columns* indexed by group id, so a
group costs a few list slots rather than a set of objects.  There is one
state per distinct non-DISTINCT argument: ``SUM(x)``, ``AVG(x)`` and
``COUNT(x)`` read three views (total, total over count, count) of one
SUM state, and the aggregation counts each group's rows once for every
state, which keeps only its NULLs.  Every
state is **order-insensitive**, and every non-DISTINCT one **mergeable**:
folding the same multiset of values in any order — row by row, as bulk
slices, or as partials combined with ``merge`` — produces bit-identical
results.  SUM/AVG
achieve this with exact fixed-point integer accumulation (every finite
double is an integer multiple of a power of two, so sums of scaled integers
are exact and the final float conversion is one correctly-rounded
division): one integer per group, all on one state-wide binary exponent.
This is what lets every partition stream fold into one state and cached
sealed-run states (sketches) merge into it, byte-identical to a single scan.

Exact does not mean per value.  A slice that belongs to one group (a
global aggregate's whole batch) folds in C-level passes whenever it is
homogeneous and NULL-free: a typed array, or a scan's selection of one,
by its type flag, a plain ``list`` (every row-store batch and plain-delta
column) by one ``set(map(type, ...))`` census — ints through builtin
``sum``, floats through ``_fold_floats``, which has ``math.fsum`` spell
the true sum out as two or three doubles and converts only those.  The
per-value loop is what remains for NULLs, ``bool``, mixed types,
``Decimal``, non-finite floats and the other encodings;
grouped batches ``scatter`` instead, which needs a scaled value per row
rather than a total.

Exact totals also rank: under ``ORDER BY <SUM / COUNT> DESC LIMIT k``,
``rows`` emits only the groups that convert to at least the k-th largest
exact total's value (rounding ties too), unless a conversion could raise.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import Counter
from copy import copy
from itertools import chain, compress, repeat
from operator import gt, lt

from repro.errors import ExecutionError


def _scale_floats(values, exponent: int) -> tuple[int, list]:
    """An all-float column as exact integer multiples of one ``2**e``:
    ``(e, multiples)``, with ``e`` the finer of ``exponent`` and what the
    column's smallest non-zero magnitude needs.

    Every double at least that large in magnitude is a multiple of its
    ulp (and every double of ``2**-1074``), so one C-level ``ldexp`` pass
    scales the whole column exactly.  Raises ``OverflowError`` /
    ``ValueError`` for what no double can scale (inf, nan, a span wider
    than the double range) before anything is returned — the caller then
    takes the per-value path, which handles those.
    """
    low = min(filter(None, map(abs, values)), default=0.0)
    if low:
        exponent = min(exponent, max(math.frexp(low)[1] - 53, -1074))
    return exponent, list(map(int, map(math.ldexp, values,
                                       repeat(-exponent))))


#: passes of ``math.fsum`` an expansion may take: three parts and the zero
#: that proves nothing is left — ~160 bits of span, far beyond a column of
#: like-sized values (balances take two parts)
_EXPANSION_PASSES = 4


def _fold_floats(buckets: dict, values) -> bool:
    """Fold a re-iterable all-float column into ``buckets`` exactly, in
    C-level passes; False (``buckets`` untouched) when it cannot.

    The true sum is spelled out as a non-overlapping expansion (Shewchuk
    1997, what ``math.fsum`` keeps internally): ``s1 = fsum(values)`` is
    the exact sum rounded once, so ``values + [-s1]`` sums exactly to the
    rounding error, whose ``fsum`` is ``s2``, and so on.  A sum of doubles
    is a multiple of ``2**-1074``, so a pass returns ``0.0`` only when
    nothing is left — then ``s1 + s2 + ...`` *is* the sum, and each part
    lands in its exponent bucket like any single value.  inf and an
    overflowing intermediate sum (``fsum`` raises), nan and sums too wide
    for ``_EXPANSION_PASSES`` (no pass reaches zero) fold nothing: the
    caller's per-value path handles them.
    """
    negated: list = []
    try:
        for _ in range(_EXPANSION_PASSES):
            part = math.fsum(chain(values, negated))
            if not part:
                break
            negated.append(-part)
        else:
            return False
        # (0, 1) keeps a zero sum a *float* total, as any 0.0 folded does
        ratios = [part.as_integer_ratio() for part in negated] or [(0, 1)]
    except (OverflowError, ValueError):
        return False
    for numerator, denominator in ratios:
        exponent = 1 - denominator.bit_length()
        buckets[exponent] = buckets.get(exponent, 0) - numerator
    return True


def _fold_typed_slice(buckets: dict, values):
    """Fold a homogeneous NULL-free column slice exactly, in C-level
    passes: floats into ``buckets``, ints into the returned total.

    A typed slice — a NATIVE column or a scan's selection of one — carries
    the type guarantee as a flag (``all_ints`` / ``all_floats``); a plain
    ``list`` — every row-store batch, plain-delta column and gathered
    slice — proves it with one type census.  Ints fold with builtin
    ``sum``, floats with ``_fold_floats``.

    Returns None when no guarantee holds (NULLs, ``bool``, mixed types,
    ``Decimal``) or the floats refuse the bulk fold; the caller then runs
    the generic per-value fold, ``buckets`` untouched.
    """
    if type(values) is list:
        kinds = set(map(type, values))
        all_ints, all_floats = kinds == {int}, kinds == {float}
    else:
        all_ints = getattr(values, "all_ints", False)
        all_floats = getattr(values, "all_floats", False)
    if all_ints:
        return sum(values)                       # builtin sum: exact for ints
    if all_floats and _fold_floats(buckets, values):
        return 0
    return None


#: below this magnitude ``ldexp`` rounds a second time (subnormal results)
_MIN_NORMAL = sys.float_info.min

# size of one state object and its empty columns (``nbytes`` estimates)
_STATE_BYTES = 600


def _pick(column: list, gids) -> list:
    """``column`` at ``gids``; all of it when ``gids`` is None."""
    return column if gids is None else list(map(column.__getitem__, gids))


def _count_rows(rows: list, gids: list):
    """Add a batch's rows to ``rows``, one per entry of ``gids``: tallied
    first (at C speed) when the batch can hold few groups — ``rows`` has
    one slot per group — and row by row otherwise, which is cheaper than
    a tally of mostly distinct ids."""
    if len(rows) * 4 < len(gids):
        for gid, count in Counter(gids).items():
            rows[gid] += count
    else:
        for gid in gids:
            rows[gid] += 1


class _CountState:
    """COUNT(*) / COUNT(x): the rows folded per group, less the NULLs.

    ``rows`` is the aggregation's own per-group row count — one list that
    every state of the aggregation reads and the aggregation alone adds
    to, once per batch, after its states folded the batch — and ``nulls``
    the NULLs this state was handed, sparse.  COUNT(*) is handed no
    column, so it never sees one.
    """

    def __init__(self, rows: list):
        self.rows = rows
        self.nulls: Counter = Counter()

    def grow(self, groups: int):
        pass

    def scatter(self, gids, column):
        if column is not None and column.count(None):
            self.nulls.update([gid for gid, value in zip(gids, column)
                               if value is None])

    def fold(self, gid: int, values, rows: int):
        if values is not None and (nulls := values.count(None)):
            self.nulls[gid] += nulls

    def merge(self, other: "_CountState", remap: list):
        nulls = self.nulls
        for gid, count in other.nulls.items():
            nulls[remap[gid]] += count

    def copy(self, rows: list) -> "_CountState":
        """This state over ``rows``, a copy of the aggregation's."""
        other = copy(self)
        other.rows = rows
        other.nulls = self.nulls.copy()
        return other

    def counts(self, gids=None) -> list:
        """Non-NULL values folded per group in ``gids`` (every group when
        None)."""
        counts = _pick(self.rows, gids)
        nulls = self.nulls
        if not nulls:
            return counts
        return [count - nulls[gid] for gid, count in zip(
            range(len(counts)) if gids is None else gids, counts)]

    def results(self, gids=None, view=None) -> list:
        return self.counts(gids)

    def exact(self, view=None):
        return self.counts(), 0

    def nbytes(self, groups: int) -> int:
        return _STATE_BYTES + 100 * len(self.nulls)  # dict entry + 2 ints


class _SumState(_CountState):
    """SUM / AVG / COUNT of one argument: exact, order-insensitive totals
    per group.

    A COUNT state — its ``counts`` are the non-NULL values folded — plus
    ``ints``, the exact integer totals, and ``fixed``, the exact float
    total as an integer multiple of one state-wide ``2**exponent``
    (``exponent <= 0``, lowered when a finer value arrives, which rescales
    the populated totals once): one small-int addition per value on the
    hot path, one correctly-rounded true division per group in
    ``results``.  Results reproduce plain Python ``+`` semantics (int
    stays int until a float joins) with the float correctly rounded
    irrespective of fold order.  Anything without an exact integer
    scaling — Decimals, inf/nan — falls back to ordered addition in the
    sparse ``others``, preserving historical behaviour.

    A group that folded no float holds ``None`` in ``fixed`` — except
    while ``float_only``: as long as every value the state folded is a
    float, a group holds a float total exactly when it counts a value, so
    every total starts at 0 and no batch has groups to initialise.  The
    first value of another type (``_mix``) marks the groups that count no
    value ``None``, once.

    ``peak`` bounds every group's ``|total|`` (ints and floats alike, as
    a ceiling in value units) for ``convertible``: merges add their
    partials' peaks, a scatter or fold forgets it, and ``magnitude``
    measures it again on demand.  ``copy`` measures it first, so a cached
    state is measured once and every copy of it carries the peak.
    """

    def __init__(self, rows: list):
        super().__init__(rows)
        self.ints: list = []
        self.fixed: list = []
        self.exponent = 0
        self.others: dict = {}
        self.peak = 0
        self.float_only = True

    def grow(self, groups: int):
        self.ints += [0] * groups
        self.fixed += [0 if self.float_only else None] * groups

    def _mix(self):
        """Leave ``float_only``: the groups that count no value yet hold
        no float total.  The batch bringing the other type calls it before
        it lands a float — its rows are counted only after it folded, so
        the groups it fills would read as empty."""
        if self.float_only:
            self.float_only = False
            self.fixed = [total if count else None
                          for count, total in zip(self.counts(), self.fixed)]

    def _align(self, exponent: int) -> int:
        """Lower the state-wide exponent to ``exponent`` (a coarser one is
        a no-op); returns the exponent now in force."""
        shift = self.exponent - exponent
        if shift > 0:
            self.fixed = [None if total is None else total << shift
                          for total in self.fixed]
            self.exponent = exponent
        return self.exponent

    def _add(self, gid: int, value):
        """One non-NULL value: exact for ints and scalable floats, ordered
        addition in ``others`` for the rest."""
        if isinstance(value, int):
            self.ints[gid] += value
            return
        if isinstance(value, float):
            try:
                numerator, denominator = value.as_integer_ratio()
            except (OverflowError, ValueError):  # inf / nan
                pass
            else:
                # denominator is 2^k: value = numerator * 2^-k
                shift = 1 - denominator.bit_length() - self.exponent
                if shift < 0:
                    self._align(self.exponent + shift)
                    shift = 0
                fixed = self.fixed
                fixed[gid] = (fixed[gid] or 0) + (numerator << shift)
                return
        others = self.others             # inexact fallback keeps fold order
        others[gid] = others[gid] + value if gid in others else value

    def scatter(self, gids, column):
        self.peak = None
        totals = None
        kinds = set(map(type, column))
        if kinds == {int}:
            self._mix()
            totals, values = self.ints, column
        elif kinds == {float}:
            try:
                exponent, values = _scale_floats(column, self.exponent)
            except (OverflowError, ValueError):
                pass               # inf / nan / too wide a span: per value
            else:
                self._align(exponent)
                totals = self.fixed
                if not self.float_only:
                    for gid in set(gids):
                        if totals[gid] is None:
                            totals[gid] = 0
        if totals is None:
            if kinds - {float, type(None)}:
                self._mix()
            add = self._add
            nulls = []
            for gid, value in zip(gids, column):
                if value is None:
                    nulls.append(gid)
                else:
                    add(gid, value)
            self.nulls.update(nulls)
            return
        for gid, value in zip(gids, values):
            totals[gid] += value

    def fold(self, gid: int, values, rows: int):
        """Bulk fold: homogeneous NULL-free slices — typed arrays (NATIVE
        encoding) by guarantee, plain lists by census — fold in C-level
        passes (``_fold_typed_slice``); what is left (NULLs, ``bool``,
        mixed types, ``Decimal``, inf / nan, any other column encoding)
        folds value by value through an inlined int/float split."""
        self.peak = None
        buckets: dict = {}
        if rows and (int_total := _fold_typed_slice(buckets, values)) \
                is not None:
            count, mixed = rows, not buckets
        else:
            count = int_total = 0
            mixed = False
            bucket = buckets.get
            for value in values:
                if value is None:
                    continue
                count += 1
                kind = type(value)
                if kind is int:
                    int_total += value
                    mixed = True
                elif kind is float:
                    try:
                        numerator, denominator = value.as_integer_ratio()
                    except (OverflowError, ValueError):  # inf / nan
                        self._add(gid, value)
                        continue
                    exponent = 1 - denominator.bit_length()
                    buckets[exponent] = bucket(exponent, 0) + numerator
                else:      # bool / Decimal / subclasses: exact slow path
                    mixed = True
                    self._add(gid, value)
        if mixed:
            self._mix()                  # before this slice counts
        if count != rows:
            self.nulls[gid] += rows - count
        self.ints[gid] += int_total
        if buckets:
            # the slice's exponent -> mantissa-sum partial lands on the
            # state's one exponent
            base = self._align(min(buckets))
            total = self.fixed[gid] or 0
            for exponent, mantissa in buckets.items():
                total += mantissa << (exponent - base)
            self.fixed[gid] = total

    def merge(self, other: "_SumState", remap: list):
        # ``other`` may be a cached, shared state: it is only read, its
        # totals shifted onto this state's (never coarser) exponent
        if self.peak is not None:
            self.peak += other.magnitude()
        if not other.float_only:
            self._mix()                  # before ``other``'s values count
        super().merge(other, remap)
        shift = other.exponent - self._align(other.exponent)
        ints, fixed = self.ints, self.fixed
        if other.float_only:
            # no int totals; a group that counts no value holds a 0 that
            # is no float
            floats = zip(remap, other.fixed)
            if not self.float_only:
                floats = compress(floats, other.counts())
            for gid, total in floats:
                fixed[gid] = (fixed[gid] or 0) + (total << shift)
        else:
            for gid, int_total, total in zip(remap, other.ints, other.fixed):
                ints[gid] += int_total
                if total is not None:
                    fixed[gid] = (fixed[gid] or 0) + (total << shift)
        others = self.others
        for source, value in other.others.items():
            gid = remap[source]
            others[gid] = others[gid] + value if gid in others else value

    def copy(self, rows: list) -> "_SumState":
        self.magnitude()
        other = super().copy(rows)
        other.ints = self.ints.copy()
        other.fixed = self.fixed.copy()
        other.others = self.others.copy()
        return other

    def exact(self, view="sum"):
        """Exact totals times ``2**shift`` (None: no value), and ``shift``
        — a COUNT view's counts and 0."""
        counts = self.counts()
        if view == "count":
            return counts, 0
        shift = -self.exponent
        if None in self.fixed or any(self.ints) or 0 in counts:
            return [(int_total << shift) + (total or 0) if count else None
                    for count, int_total, total in zip(
                        counts, self.ints, self.fixed)], shift
        return self.fixed, shift                  # float totals only

    def magnitude(self) -> int:
        """``peak``, measured (and kept) when no merge bounds it."""
        if self.peak is None:
            fixed = max(map(abs, filter(None, self.fixed)), default=0)
            self.peak = max(max(map(abs, self.ints), default=0),
                            (fixed >> -self.exponent) + 1)
        return self.peak

    def convertible(self) -> bool:
        """``results`` cannot raise: no ``others``, no huge total."""
        return not self.others and self.magnitude() < 1 << 1022

    def results(self, gids=None, view="sum") -> list:
        counts = self.counts(gids)
        if view == "count":
            return counts
        average = view == "avg"
        exponent = self.exponent
        shift = -exponent
        scale = 1 << shift
        ldexp = math.ldexp
        out = []
        for count, int_total, total in zip(counts, _pick(self.ints, gids),
                                           _pick(self.fixed, gids)):
            if not count:
                out.append(None)
            elif total is None:
                out.append(int_total / count if average else int_total)
            elif average:
                # the exact total, one correctly-rounded conversion
                out.append(((int_total << shift) + total) / (scale * count))
            else:
                # ``float`` rounds once and scaling a normal double is
                # exact: the division's bits without a big-int division.
                # An overflowing ``float`` or a subnormal result divides.
                exact = (int_total << shift) + total
                try:
                    value = ldexp(float(exact), exponent)
                except OverflowError:
                    value = 0.0
                out.append(exact / scale
                           if -_MIN_NORMAL < value < _MIN_NORMAL else value)
        others = self.others
        if others:
            places = dict(zip(range(len(out)) if gids is None else gids,
                              range(len(out))))
            for gid, inexact in others.items():
                if gid not in places:
                    continue
                # ordered addition absorbs what the group folded exactly
                if self.ints[gid]:
                    inexact = inexact + self.ints[gid]
                if self.fixed[gid] is not None:
                    inexact = inexact + self.fixed[gid] / scale
                out[places[gid]] = inexact / counts[places[gid]] \
                    if average else inexact
        return out

    def nbytes(self, groups: int) -> int:
        # two list slots + the total's int object per group
        return super().nbytes(groups) + 48 * groups


class _ExtremeState:
    """MIN / MAX: the best non-NULL value per group (first seen wins a
    tie)."""

    def __init__(self, largest: bool):
        self.better = gt if largest else lt
        self.pick = max if largest else min
        self.values: list = []

    def grow(self, groups: int):
        self.values += [None] * groups

    def scatter(self, gids, column):
        values = self.values
        better = self.better
        for gid, value in zip(gids, column):
            if value is not None:
                best = values[gid]
                if best is None or better(value, best):
                    values[gid] = value

    def fold(self, gid: int, values, rows: int):
        try:
            # a NULL raises on its first comparison (a lone one is picked
            # and then skipped by ``scatter``), an empty slice always
            best = self.pick(values)
        except (TypeError, ValueError):
            present = [v for v in values if v is not None]
            if not present:
                return
            best = self.pick(present)
        self.scatter((gid,), (best,))

    def merge(self, other: "_ExtremeState", remap: list):
        self.scatter(remap, other.values)

    def copy(self, _rows=None) -> "_ExtremeState":
        other = copy(self)
        other.values = self.values.copy()
        return other

    def results(self, gids=None, view=None) -> list:
        return _pick(self.values, gids)

    def nbytes(self, groups: int) -> int:
        return _STATE_BYTES + 40 * groups    # list slot + value object


class _DistinctState:
    """DISTINCT over an inner state: per-group sets of the values seen;
    only a value's first sighting in its group reaches the inner state,
    whose rows are those sightings."""

    def __init__(self, kind):
        self.rows: list = []
        self.inner = kind(self.rows)
        self.seen: list = []

    def grow(self, groups: int):
        self.rows += [0] * groups
        self.seen += [None] * groups
        self.inner.grow(groups)

    def scatter(self, gids, column):
        seen_of = self.seen
        new_gids, new_values = [], []
        for gid, value in zip(gids, column):
            if value is None:
                continue
            seen = seen_of[gid]
            if seen is None:
                seen = seen_of[gid] = set()
            if value not in seen:
                seen.add(value)
                new_gids.append(gid)
                new_values.append(value)
        self.inner.scatter(new_gids, new_values)
        _count_rows(self.rows, new_gids)

    def fold(self, gid: int, values, rows: int):
        self.scatter(repeat(gid), values)

    def results(self, gids=None, view=None) -> list:
        return self.inner.results(gids, view)


#: the view each aggregate reads of its state
_VIEWS = {"COUNT": "count", "SUM": "sum", "AVG": "avg", "MIN": None,
          "MAX": None}


def _make_state(kind: str, distinct: bool, rows: list):
    if kind in ("MIN", "MAX"):                   # DISTINCT changes nothing
        return _ExtremeState(largest=kind == "MAX")
    state = _CountState if kind == "COUNT" else _SumState
    return _DistinctState(state) if distinct else state(rows)


class _GroupIds(dict):
    """Group key -> dense group id, assigned in first-appearance order."""

    __slots__ = ()

    def __missing__(self, key):
        gid = self[key] = len(self)
        return gid


def _gather(column, rows: list) -> list:
    """``column`` at ``rows``; a deferred column decodes in full either way,
    so the work counted for it does not depend on how many rows are read."""
    gather = getattr(column, "gather", None)
    if gather is not None:
        return gather(rows)
    return list(map(column.__getitem__, rows))


class GroupedAggregation:
    """The state of one (partial) grouped aggregation.

    Group keys map to dense ids in first-appearance order — which is also
    the emission order — and each *state* keeps its columns indexed by
    group id.  Three operations feed it, all exact, so any mix of them
    over the same rows yields the same bits:

    * ``scatter(gids, columns)`` — a batch, row ``i`` into group
      ``gids[i]`` (``assign_columns`` computes the batch's ``gids`` column
      once);
    * ``fold(gid, columns, rows)`` — a slice that belongs to one group,
      folded in bulk (typed arrays and homogeneous lists keep their
      C-speed paths);
    * ``merge(other)`` — another partial, through a group-id remap built
      in ``other``'s first-appearance order (never a DISTINCT one: the
      planner caches no DISTINCT aggregate, so nothing merges it).

    ``specs`` is one ``(name, count_star, distinct[, arg])`` per
    aggregate; a column of ``COUNT(*)`` is ``None`` — it needs the rows,
    not a value.  ``arg`` names the argument: aggregates with an equal
    one read the same column, so they share one state, and each reads
    its *view* of it (``views``).  ``SUM(x)``, ``AVG(x)`` and — when one
    of those is there — ``COUNT(x)`` share one ``_SumState``, AVG being
    SUM over COUNT (Gray et al., "Data Cube", ICDE 1996); every
    ``COUNT(*)`` reads one ``_CountState``, the same MIN or MAX one
    ``_ExtremeState``.  A DISTINCT aggregate, or one without an ``arg``,
    keeps a state of its own.  ``scatter`` / ``fold`` / ``merge`` /
    ``copy`` / ``nbytes`` run once per state; ``row_counts`` counts the
    rows folded per group once for all of them.

    ``dependent`` is one flag per GROUP BY column (none for a global
    aggregate).  A *dependent* column is fixed by the columns kept before
    it — the planner proves that from a primary key — so only the kept
    columns are hashed: as the bare value when one is kept, as a tuple
    otherwise.  A new group reads each dependent value once, from its first
    row, and ``rows`` rebuilds the full GROUP BY key once per group.  The
    first appearance of the kept key is the first appearance of the full
    key, so groups, their order and their key values are unchanged.  A
    groupjoin folds by the kept columns alone, then ``attach``es the
    dependent ones and asks ``rows`` for the groups its join matched.
    """

    def __init__(self, specs, dependent=()):
        self.gids = _GroupIds()
        self.row_counts: list = []
        self.states: list = []
        self.sources: list = []      # per state: the aggregate it reads
        self.views: list = []        # per aggregate: (state index, view)
        specs = [(*spec, None)[:4] for spec in specs]
        summed = {arg for name, _star, distinct, arg in specs
                  if name in ("SUM", "AVG") and not distinct}
        keys: dict = {}
        for position, (name, star, distinct, arg) in enumerate(specs):
            if name not in _VIEWS:
                raise ExecutionError(f"unknown aggregate function {name!r}")
            kind = name
            if star:
                key, distinct = "*", False   # COUNT(*) counts rows, DISTINCT or not
            elif arg is None or distinct and kind not in ("MIN", "MAX"):
                key = position               # a state of its own
            else:
                if kind in ("SUM", "AVG") or kind == "COUNT" and arg in summed:
                    kind = "SUM"             # one SUM state per argument
                key = (kind, arg)
            if key not in keys:
                keys[key] = len(self.states)
                self.states.append(_make_state(kind, distinct, self.row_counts))
                self.sources.append(position)
            self.views.append((keys[key], _VIEWS[name]))
        self._sized = 0
        self.attach(dependent, [[] for flag in dependent if flag])

    def attach(self, dependent, values: list):
        """Lay the state out over a GROUP BY list: ``dependent`` flags each
        column, ``values`` holds one list per dependent column, indexed by
        group id.  A groupjoin folds by its kept columns alone, then
        attaches the dependent ones its build rows hold."""
        self.width = len(dependent)
        self.kept = [i for i, flag in enumerate(dependent) if not flag]
        self.dependent = [i for i, flag in enumerate(dependent) if flag]
        self.dependent_values = values

    def __len__(self) -> int:
        return len(self.gids)

    def _grow(self):
        new = len(self.gids) - self._sized
        if new:
            self.row_counts += [0] * new
            for state in self.states:
                state.grow(new)
            self._sized += new

    def gid(self, key) -> int:
        gid = self.gids[key]
        self._grow()
        return gid

    def assign(self, keys, dependents=()) -> list:
        """The group id of every key, new groups created in order; each new
        group reads the ``dependents`` columns (aligned with ``keys``) at
        its first row."""
        gids = self.gids
        old = len(gids)
        ids = list(map(gids.__getitem__, keys))
        if dependents:
            # new ids first appear in increasing order, so each search
            # resumes where the last one stopped: one pass in all
            rows, row = [], 0
            for gid in range(old, len(gids)):
                row = ids.index(gid, row)
                rows.append(row)
            for values, column in zip(self.dependent_values, dependents):
                values += _gather(column, rows)
        self._grow()
        return ids

    def assign_columns(self, columns) -> list:
        """The group id of every row of a batch given as its GROUP BY
        columns."""
        kept = [columns[i] for i in self.kept]
        return self.assign(kept[0] if len(kept) == 1 else zip(*kept),
                           [columns[i] for i in self.dependent])

    def scatter(self, gids: list, columns):
        if self.states:
            for state, source in zip(self.states, self.sources):
                state.scatter(gids, columns[source])
            # counted once for every state, after they folded the batch
            _count_rows(self.row_counts, gids)

    def fold(self, gid: int, columns, rows: int):
        for state, source in zip(self.states, self.sources):
            state.fold(gid, columns[source], rows)
        self.row_counts[gid] += rows

    def merge(self, other: "GroupedAggregation"):
        remap = self.assign(other.gids, other.dependent_values)
        for state, sub in zip(self.states, other.states):
            state.merge(sub, remap)
        row_counts = self.row_counts
        for gid, count in zip(remap, other.row_counts):
            row_counts[gid] += count

    def copy(self) -> "GroupedAggregation":
        """An independent state equal to this one — what merging it into a
        fresh state yields, at the price of C-level dict and list copies."""
        other = copy(self)
        other.gids = _GroupIds(self.gids)
        other.row_counts = self.row_counts.copy()
        other.states = [state.copy(other.row_counts)
                        for state in self.states]
        other.dependent_values = [values.copy()
                                  for values in self.dependent_values]
        return other

    def _survivors(self, position: int, limit: int, gids=None):
        """Ids among ``gids`` (every group when None) that can rank in the
        first ``limit`` under ``ORDER BY <aggregate position> DESC``;
        ``gids`` itself keeps them all."""
        state, view = self.views[position]
        totals, shift = self.states[state].exact(view)
        if gids is not None:
            totals = _pick(totals, gids)
        present = [total for total in totals if total is not None]
        states = [getattr(state, "inner", state) for state in self.states]
        if len(present) < limit or not all(
                state.convertible() for state in states
                if isinstance(state, _SumState)):
            return gids     # NULL groups would rank, or a conversion raise
        # a group converting to at least the k-th's value (ints are exact,
        # floats round monotonically) is above the double just below it
        kth = heapq.nlargest(limit, present)[-1]
        below = math.nextafter(kth / (1 << shift), -math.inf)
        numerator, denominator = below.as_integer_ratio()
        bound = (numerator << shift) // denominator
        return [gid for gid, total in zip(
                    range(len(totals)) if gids is None else gids, totals)
                if total is not None and total > bound]

    def rows(self, top=None, gids=None) -> list:
        """``key + results`` per group in ``gids`` (every group when None),
        in id order; ``top``: ``_survivors`` ranks only those."""
        if top:
            gids = self._survivors(*top, gids)
        states = self.states
        results = [states[state].results(gids, view)
                   for state, view in self.views]
        keys = self.gids if gids is None else _pick(list(self.gids), gids)
        if not self.width:
            # no GROUP BY list: the global group's ``()``, or whole-tuple keys
            return [key + values for key, values in
                    zip(keys, zip(*results))] if results else list(keys)
        # the full key, once per group: kept columns from the ids' keys
        columns = [None] * self.width
        kept = [keys] if len(self.kept) == 1 \
            else list(zip(*keys)) or [()] * len(self.kept)
        dependent = [_pick(values, gids) for values in self.dependent_values]
        for position, values in chain(zip(self.kept, kept),
                                      zip(self.dependent, dependent)):
            columns[position] = values
        return list(zip(*columns, *results))

    def nbytes(self) -> int:
        """Deterministic size estimate (the sketch cache's LRU budget):
        the id dict's entry and key tuple per group, plus each state
        column's slots."""
        groups = len(self.gids)
        return _STATE_BYTES + (126 + 50 * self.width) * groups \
            + sum(state.nbytes(groups) for state in self.states)


def sql_abs(value):
    return None if value is None else abs(value)


def sql_round(value, digits=0):
    if value is None or digits is None:
        return None
    return round(value, int(digits))


def sql_length(value):
    return None if value is None else len(str(value))


_TO_END = object()   # SUBSTR without a length


def sql_substr(value, start, length=_TO_END):
    """``SUBSTR(value, start [, length])``; a NULL argument answers NULL.
    As in MySQL, a start of 1 is the first character, a negative one
    counts back from the end, and 0 (or one before the start) answers
    the empty string."""
    if value is None or start is None or length is None:
        return None
    text = str(value)
    start = int(start)
    if start > 0:
        begin = start - 1
    elif -len(text) <= start < 0:
        begin = len(text) + start
    else:
        return ""
    if length is _TO_END:
        return text[begin:]
    return text[begin:begin + max(int(length), 0)]


def sql_upper(value):
    return None if value is None else str(value).upper()


def sql_lower(value):
    return None if value is None else str(value).lower()


def sql_mod(a, b):
    """``a % b`` and ``MOD(a, b)``: NULL-safe, and a zero divisor raises
    as ``/`` does."""
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    return a % b


SCALARS = {
    "ABS": sql_abs,
    "ROUND": sql_round,
    "LENGTH": sql_length,
    "SUBSTR": sql_substr,
    "SUBSTRING": sql_substr,
    "UPPER": sql_upper,
    "LOWER": sql_lower,
    "MOD": sql_mod,
}


def like_to_predicate(pattern: str):
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a matcher."""
    import re as _re

    regex = _re.compile(
        "^" + "".join(
            ".*" if ch == "%" else "." if ch == "_" else _re.escape(ch)
            for ch in pattern
        ) + "$",
        _re.DOTALL,
    )

    def match(value) -> bool:
        return value is not None and regex.match(str(value)) is not None

    return match
