"""Grouped aggregation state and scalar functions.

NULL handling follows the pragmatic subset the benchmark queries need:
aggregates skip NULL inputs; ``COUNT(*)`` counts rows; ``AVG`` over an empty
or all-NULL input yields NULL.

Both executors aggregate into one ``GroupedAggregation``: group keys map to
dense group ids and every aggregate keeps a *state column* indexed by group
id, so a group costs a few list slots rather than a set of objects.  Every
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
from itertools import chain, repeat
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
_STATE_BYTES = 400


def _pick(column: list, gids) -> list:
    """``column`` at ``gids``; all of it when ``gids`` is None."""
    return column if gids is None else list(map(column.__getitem__, gids))


class _CountState:
    """COUNT(*) / COUNT(x): one int per group."""

    def __init__(self, star: bool):
        self.star = star
        self.counts: list = []

    def grow(self, groups: int):
        self.counts += [0] * groups

    def scatter(self, gids, column, tally):
        if not self.star and column.count(None):
            tally = Counter(gid for gid, value in zip(gids, column)
                            if value is not None)
        counts = self.counts
        for gid, rows in tally.items():
            counts[gid] += rows

    def fold(self, gid: int, values, rows: int):
        self.counts[gid] += rows if self.star else rows - values.count(None)

    def merge(self, other: "_CountState", remap: list):
        counts = self.counts
        for gid, count in zip(remap, other.counts):
            counts[gid] += count

    def copy(self) -> "_CountState":
        other = copy(self)
        other.counts = self.counts.copy()
        return other

    def results(self, gids=None) -> list:
        return _pick(self.counts, gids)

    def exact(self):
        return self.counts, 0

    def nbytes(self, groups: int) -> int:
        return _STATE_BYTES + 16 * groups    # list slot, mostly shared ints


class _SumState:
    """SUM / AVG: exact, order-insensitive totals per group.

    ``counts`` holds the non-NULL values folded, ``ints`` the exact integer
    totals and ``fixed`` — ``None`` until a group's first float — the exact
    float total as an integer multiple of one state-wide ``2**exponent``
    (``exponent <= 0``, lowered when a finer value arrives, which rescales
    the populated totals once): one small-int addition per value on the hot
    path, one correctly-rounded true division per group in ``results``.
    Results reproduce plain Python ``+`` semantics (int stays int until a
    float joins) with the float correctly rounded irrespective of fold
    order.  Anything without an exact integer scaling — Decimals, inf/nan —
    falls back to ordered addition in the sparse ``others``, preserving
    historical behaviour.

    ``peak`` bounds every group's ``|total|`` (ints and floats alike, as
    a ceiling in value units) for ``convertible``: merges add their
    partials' peaks, a scatter or fold forgets it, and ``magnitude``
    measures it again on demand.  ``copy`` measures it first, so a cached
    state is measured once and every copy of it carries the peak.
    """

    def __init__(self, average: bool):
        self.average = average
        self.counts: list = []
        self.ints: list = []
        self.fixed: list = []
        self.exponent = 0
        self.others: dict = {}
        self.peak = 0

    def grow(self, groups: int):
        self.counts += [0] * groups
        self.ints += [0] * groups
        self.fixed += [None] * groups

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

    def scatter(self, gids, column, tally):
        self.peak = None
        counts = self.counts
        totals = None
        kinds = set(map(type, column))
        if kinds == {int}:
            totals, values = self.ints, column
        elif kinds == {float}:
            try:
                exponent, values = _scale_floats(column, self.exponent)
            except (OverflowError, ValueError):
                pass               # inf / nan / too wide a span: per value
            else:
                self._align(exponent)
                totals = self.fixed
                for gid in tally:
                    if totals[gid] is None:
                        totals[gid] = 0
        if totals is None:
            add = self._add
            for gid, value in zip(gids, column):
                if value is not None:
                    counts[gid] += 1
                    add(gid, value)
            return
        for gid, value in zip(gids, values):
            totals[gid] += value
        for gid, rows in tally.items():
            counts[gid] += rows

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
            count = rows
        else:
            count = int_total = 0
            bucket = buckets.get
            for value in values:
                if value is None:
                    continue
                count += 1
                kind = type(value)
                if kind is int:
                    int_total += value
                elif kind is float:
                    try:
                        numerator, denominator = value.as_integer_ratio()
                    except (OverflowError, ValueError):  # inf / nan
                        self._add(gid, value)
                        continue
                    exponent = 1 - denominator.bit_length()
                    buckets[exponent] = bucket(exponent, 0) + numerator
                else:      # bool / Decimal / subclasses: exact slow path
                    self._add(gid, value)
        self.counts[gid] += count
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
        shift = other.exponent - self._align(other.exponent)
        counts, ints, fixed = self.counts, self.ints, self.fixed
        for gid, count, int_total, total in zip(remap, other.counts,
                                                other.ints, other.fixed):
            counts[gid] += count
            ints[gid] += int_total
            if total is not None:
                fixed[gid] = (fixed[gid] or 0) + (total << shift)
        others = self.others
        for source, value in other.others.items():
            gid = remap[source]
            others[gid] = others[gid] + value if gid in others else value

    def copy(self) -> "_SumState":
        self.magnitude()
        other = copy(self)
        other.counts = self.counts.copy()
        other.ints = self.ints.copy()
        other.fixed = self.fixed.copy()
        other.others = self.others.copy()
        return other

    def exact(self):
        """Exact totals times ``2**shift`` (None: no value), and ``shift``."""
        shift = -self.exponent
        if None in self.fixed or any(self.ints):    # not float totals only
            return [(int_total << shift) + (total or 0) if count else None
                    for count, int_total, total in zip(
                        self.counts, self.ints, self.fixed)], shift
        return self.fixed, shift

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

    def results(self, gids=None) -> list:
        average = self.average
        exponent = self.exponent
        shift = -exponent
        scale = 1 << shift
        ldexp = math.ldexp
        out = []
        columns = self.counts, self.ints, self.fixed
        for count, int_total, total in zip(*[_pick(c, gids) for c in columns]):
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
                out[places[gid]] = inexact / self.counts[gid] if average \
                    else inexact
        return out

    def nbytes(self, groups: int) -> int:
        # three list slots + the total's int object per group
        return _STATE_BYTES + 64 * groups


class _ExtremeState:
    """MIN / MAX: the best non-NULL value per group (first seen wins a
    tie)."""

    def __init__(self, largest: bool):
        self.better = gt if largest else lt
        self.pick = max if largest else min
        self.values: list = []

    def grow(self, groups: int):
        self.values += [None] * groups

    def scatter(self, gids, column, _tally=None):
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

    def copy(self) -> "_ExtremeState":
        other = copy(self)
        other.values = self.values.copy()
        return other

    def results(self, gids=None) -> list:
        return _pick(self.values, gids)

    def nbytes(self, groups: int) -> int:
        return _STATE_BYTES + 40 * groups    # list slot + value object


class _DistinctState:
    """DISTINCT over an inner state: per-group sets of the values seen;
    only a value's first sighting in its group reaches the inner state."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: list = []

    def grow(self, groups: int):
        self.seen += [None] * groups
        self.inner.grow(groups)

    def scatter(self, gids, column, _tally=None):
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
        self.inner.scatter(new_gids, new_values, Counter(new_gids))

    def fold(self, gid: int, values, rows: int):
        self.scatter(repeat(gid), values)

    def results(self, gids=None) -> list:
        return self.inner.results(gids)


def _make_state(name: str, count_star: bool, distinct: bool):
    if name == "COUNT":
        # COUNT(*) counts rows, DISTINCT or not
        state = _CountState(count_star)
        return _DistinctState(state) if distinct and not count_star \
            else state
    if name in ("SUM", "AVG"):
        state = _SumState(average=name == "AVG")
        return _DistinctState(state) if distinct else state
    if name in ("MIN", "MAX"):                   # DISTINCT changes nothing
        return _ExtremeState(largest=name == "MAX")
    raise ExecutionError(f"unknown aggregate function {name!r}")


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
    the emission order — and each aggregate keeps one state column indexed
    by group id.  Three operations feed it, all exact, so any mix of them
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

    ``specs`` is one ``(name, count_star, distinct)`` per aggregate; a
    column of ``COUNT(*)`` is ``None`` — it needs the rows, not a value.

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
        self.states = [_make_state(*spec) for spec in specs]
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
            # rows per group, tallied once (C speed) for COUNT(*) and every
            # NULL-free SUM/AVG column of the batch
            tally = Counter(gids)
            for state, column in zip(self.states, columns):
                state.scatter(gids, column, tally)

    def fold(self, gid: int, columns, rows: int):
        for state, column in zip(self.states, columns):
            state.fold(gid, column, rows)

    def merge(self, other: "GroupedAggregation"):
        remap = self.assign(other.gids, other.dependent_values)
        for state, sub in zip(self.states, other.states):
            state.merge(sub, remap)

    def copy(self) -> "GroupedAggregation":
        """An independent state equal to this one — what merging it into a
        fresh state yields, at the price of C-level dict and list copies."""
        other = copy(self)
        other.gids = _GroupIds(self.gids)
        other.states = [state.copy() for state in self.states]
        other.dependent_values = [values.copy()
                                  for values in self.dependent_values]
        return other

    def _survivors(self, position: int, limit: int, gids=None):
        """Ids among ``gids`` (every group when None) that can rank in the
        first ``limit`` under ``ORDER BY <aggregate position> DESC``;
        ``gids`` itself keeps them all."""
        totals, shift = self.states[position].exact()
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
        results = [state.results(gids) for state in self.states]
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
        return _STATE_BYTES + (110 + 50 * self.width) * groups \
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
