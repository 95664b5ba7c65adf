"""Grouped aggregation state: one fold, many ways to feed it.

``GroupedAggregation`` (dense group ids + one state column per aggregate)
is what both executors, the partition gather and the segment-sketch cache
fold into.  The properties here pin the invariant every caller leans on:
COUNT / SUM / AVG / MIN / MAX (+ DISTINCT) are bit-identical to a
``fractions.Fraction`` oracle rounded once — under any batch split, any row
order, bulk folds, merged partials (DISTINCT aside: nothing merges it), and
on the row pipeline, the vectorized pipeline and a warm sketch hit alike.
"""

import sqlite3
from array import array
from decimal import Decimal
from fractions import Fraction
from math import inf, isnan, nan
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.sql.functions import (
    GroupedAggregation,
    _fold_floats,
    _fold_typed_slice,
    _SumState,
)
from repro.sql.ordering import canonical_row_key, sort_key
from repro.sql.vectorized import _LazyColumn
from repro.storage.columnstore import NativeColumn, RLEColumn

# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _exact_sum(values, count=None):
    """SUM (or AVG with ``count``) of non-NULL ``values``, rounded once."""
    if any(isinstance(v, float) and (isnan(v) or v in (inf, -inf))
           for v in values):
        # the inexact fallback: non-finite floats poison the total
        total = sum(v for v in values
                    if isinstance(v, float) and not -inf < v < inf)
        return total if count is None else total / count
    exact = sum(map(Fraction, values), Fraction(0))
    if count is not None:
        exact /= count
    elif all(isinstance(v, int) for v in values):
        return int(exact)                       # int stays int
    return exact.numerator / exact.denominator  # one correct rounding


def _oracle_row(members):
    """Expected aggregates of one group's ``(v, w)`` rows, in ``SPECS``
    order."""
    vs = [v for v, _w in members if v is not None]
    ws = [w for _v, w in members if w is not None]
    distinct = list(set(ws))
    return (
        len(members),
        len(vs),
        _exact_sum(vs) if vs else None,
        _exact_sum(vs, len(vs)) if vs else None,
        min(ws) if ws else None,
        max(ws) if ws else None,
        len(distinct),
        _exact_sum(distinct) if distinct else None,
        _exact_sum(distinct, len(distinct)) if distinct else None,
    )


# (name, count_star, distinct) and which argument column each one reads:
# ``v`` carries the awkward numerics, ``w`` is nan-free with no int/float
# equal pairs (MIN/MAX and DISTINCT keep the first of equal values, so
# their *type* would depend on row order otherwise)
SPECS = [("COUNT", True, False), ("COUNT", False, False),
         ("SUM", False, False), ("AVG", False, False),
         ("MIN", False, False), ("MAX", False, False),
         ("COUNT", False, True), ("SUM", False, True),
         ("AVG", False, True)]
ARGS = "-vvvwwwww"
# what the sketch cache merges and copies: SPECS without its DISTINCT
# entries (the planner caches no DISTINCT aggregate), a prefix of SPECS
SKETCH_SPECS = [spec for spec in SPECS if not spec[2]]
assert SKETCH_SPECS == SPECS[:len(SKETCH_SPECS)]


def _oracle(rows):
    """``{key: aggregates}`` in first-appearance key order."""
    members: dict = {}
    for key, v, w in rows:
        members.setdefault(key, []).append((v, w))
    return {key: _oracle_row(group) for key, group in members.items()}


def _bits(value):
    """A comparable, type- and bit-exact image of one result value."""
    if isinstance(value, float):
        return ("float", "nan" if isnan(value) else value.hex())
    return (type(value).__name__, value)


def _image(rows):
    return [tuple(_bits(v) for v in row) for row in rows]


def _expected(rows, specs=SPECS):
    return _image([key + values[:len(specs)]
                   for key, values in _oracle(rows).items()])


# ---------------------------------------------------------------------------
# generated rows
# ---------------------------------------------------------------------------

# bounded so that an exact group total stays inside the double range
_finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
_v = st.one_of(st.none(), st.integers(-10**6, 10**6), _finite,
               st.sampled_from([inf, -inf, nan, 0.1, 1e300, -1e300, 5e-324]))
_w = st.one_of(st.none(), st.integers(-50, 50),
               _finite.filter(lambda x: not x.is_integer()))
# NULL keys, one giant group ("giant" is drawn half the time) and a long
# tail of one-row groups
_key = st.tuples(st.one_of(st.none(), st.just("giant"), st.just("giant"),
                           st.just("giant"), st.integers(0, 40),
                           st.sampled_from(["a", "b"])))
_rows = st.lists(st.tuples(_key, _v, _w), max_size=80)


def _columns(batch, specs=SPECS):
    by_name = {"v": [v for _k, v, _w in batch],
               "w": [w for _k, _v, w in batch], "-": None}
    return [by_name[name] for name in ARGS[:len(specs)]]


def _scattered(batches, specs=SPECS):
    groups = GroupedAggregation(specs)
    for batch in batches:
        gids = groups.assign(key for key, _v, _w in batch)
        groups.scatter(gids, _columns(batch, specs))
    return groups


def _split(rows, cuts):
    bounds = sorted({min(cut, len(rows)) for cut in cuts} | {0, len(rows)})
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


class TestStateProperties:
    @given(_rows, st.lists(st.integers(0, 80), max_size=6), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_any_batch_split_and_row_order(self, rows, cuts, rng):
        assert _image(_scattered(_split(rows, cuts)).rows()) \
            == _expected(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert _image(_scattered(_split(shuffled, cuts)).rows()) \
            == _expected(shuffled)

    @given(_rows, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_bulk_fold_equals_scatter(self, rows, rng):
        """Each group's slice folded in bulk, group by group, in pieces."""
        groups = GroupedAggregation(SPECS)
        members: dict = {}
        for row in rows:
            members.setdefault(row[0], []).append(row)
        for key, group in members.items():
            cut = rng.randint(0, len(group))
            for piece in (group[:cut], group[cut:]):
                groups.fold(groups.gid(key), _columns(piece), len(piece))
        assert _image(groups.rows()) == _expected(rows)

    @given(_rows, st.sampled_from([1, 2, 8]), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_merged_partials(self, rows, partitions, rng):
        """Rows dealt over partitions, one partial each, merged in
        partition order == one fold over the concatenated streams."""
        streams = [[] for _ in range(partitions)]
        for row in rows:
            streams[rng.randrange(partitions)].append(row)
        merged = GroupedAggregation(SKETCH_SPECS)
        for stream in streams:
            merged.merge(_scattered([stream], SKETCH_SPECS))
        concatenated = [row for stream in streams for row in stream]
        assert _image(merged.rows()) \
            == _expected(concatenated, SKETCH_SPECS)

    def test_merge_never_aliases_the_source(self):
        """A cached partial is merged from many times: the target must
        copy, not adopt, its per-group buckets and sets."""
        rows = [(("k",), 0.5, 1.5), (("k",), 2, 3)]
        cached = _scattered([rows], SKETCH_SPECS)
        before = _image(cached.rows())
        for _ in range(2):
            target = GroupedAggregation(SKETCH_SPECS)
            target.merge(cached)
            target.scatter(target.assign([("k",)]),
                           _columns([(0, 0.25, 9)], SKETCH_SPECS))
            assert _image(cached.rows()) == before

    def test_group_by_without_aggregates(self):
        groups = GroupedAggregation([])
        groups.scatter(groups.assign([(2,), (1,), (2,)]), [])
        assert groups.rows() == [(2,), (1,)]

    def test_empty_global_group(self):
        groups = GroupedAggregation(SPECS)
        groups.gid(())
        assert groups.rows() == [(0, 0, None, None, None, None, 0, None,
                                  None)]


class TestExponentAlignment:
    """SUM / AVG keep each group's float total on one state-wide binary
    exponent; the cases here move that exponent under populated state."""

    @staticmethod
    def _sum_state(groups):
        return groups.states[SPECS.index(("SUM", False, False))]

    @staticmethod
    def _batch(key, values):
        return [((key,), v, None) for v in values]

    def test_finer_batches_rescale_populated_groups(self):
        """Homogeneous float batches (the C-speed scaling) whose smallest
        magnitude strictly decreases after groups exist."""
        batches = [self._batch("a", [1024.0, 4096.0]),
                   self._batch("b", [1.5, 3.0]) + self._batch("a", [2.0]),
                   self._batch("a", [2.0 ** -30, 0.1]),
                   self._batch("c", [2.0 ** -600]) + self._batch("b", [7.0]),
                   self._batch("a", [64.0])]
        groups = GroupedAggregation(SPECS)
        exponents = []
        for batch in batches:
            groups.scatter(groups.assign(key for key, _v, _w in batch),
                           _columns(batch))
            exponents.append(self._sum_state(groups).exponent)
        assert exponents[0] > exponents[1] > exponents[2] > exponents[3] \
            == exponents[4]
        assert _image(groups.rows()) \
            == _expected([row for batch in batches for row in batch])
        # coarsest last: the exponent is settled by the first batch
        assert _image(_scattered(batches[::-1]).rows()) \
            == _expected([row for batch in batches[::-1] for row in batch])

    def test_merge_aligns_both_ways_and_never_touches_the_source(self):
        """Partials on different exponents merged in both directions: the
        target rescales itself or shifts what it reads, the source (a
        cached, shared partial) is bit-identical afterwards."""
        coarse = self._batch("k", [1024.0, 3.0]) + self._batch("c", [8.0])
        fine = self._batch("k", [2.0 ** -40, 0.1]) + self._batch("f", [0.3])
        specs = SKETCH_SPECS
        for first, second in ((coarse, fine), (fine, coarse)):
            source = _scattered([first], specs)
            other = _scattered([second], specs)
            assert self._sum_state(source).exponent \
                != self._sum_state(other).exponent
            before = _image(source.rows())
            for _ in range(2):
                target = _scattered([second], specs)
                target.merge(source)
                assert _image(target.rows()) \
                    == _expected(second + first, specs)
                # later folds into the target move its exponent again
                tiny = self._batch("k", [2.0 ** -700])
                target.scatter(target.assign(key for key, _v, _w in tiny),
                               _columns(tiny, specs))
                assert _image(target.rows()) \
                    == _expected(second + first + tiny, specs)
                assert _image(source.rows()) == before
            empty = GroupedAggregation(specs)
            empty.merge(source)
            assert _image(empty.rows()) == before

    def test_span_no_double_can_scale(self):
        """1e300 beside 5e-324: scaling the column by one power of two
        overflows, so the C-speed path must refuse — answer still exact."""
        rows = self._batch("k", [1e300, 5e-324, -1e300, 5e-324])
        groups = _scattered([rows])
        assert _image(groups.rows()) == _expected(rows)
        assert groups.rows()[0][3] == 1e-323           # SUM(v)
        for values in ([1e300, inf], [0.5, nan, 2.0]):
            rows = self._batch("k", values)
            assert _image(_scattered([rows]).rows()) == _expected(rows)

    def test_all_zero_float_column_sums_to_float_zero(self):
        rows = self._batch("k", [0.0, -0.0, 0.0])
        groups = _scattered([rows])
        assert _image(groups.rows()) == _expected(rows)
        assert _bits(groups.rows()[0][3]) == ("float", (0.0).hex())
        # ... and leaves a populated state's exponent alone
        groups = _scattered([self._batch("k", [0.25]), rows])
        assert self._sum_state(groups).exponent \
            == self._sum_state(_scattered([self._batch("k", [0.25])])).exponent

    def test_int_group_stays_int_beside_a_float_group(self):
        """Homogeneous int and float batches into one state: "int stays
        int until a float joins" is per group, not per state."""
        batches = [self._batch("i", [1, 2]), self._batch("f", [0.5, 0.25]),
                   self._batch("i", [3]), self._batch("late", [4]),
                   self._batch("late", [0.5])]
        groups = _scattered(batches)
        assert _image(groups.rows()) \
            == _expected([row for batch in batches for row in batch])
        sums = {row[0]: row[3] for row in groups.rows()}
        assert _bits(sums["i"]) == ("int", 6)
        assert _bits(sums["f"]) == ("float", (0.75).hex())
        assert _bits(sums["late"]) == ("float", (4.5).hex())


# ---------------------------------------------------------------------------
# the bulk fold of a plain column: one group, every way to feed it
# ---------------------------------------------------------------------------

SUM_SPECS = [("SUM", False, False), ("AVG", False, False),
             ("COUNT", False, False)]
# the same three over one argument: three views of one shared state
SHARED_SUM_SPECS = [(*spec, "x") for spec in SUM_SPECS]

# five doubles spanning 2**997 .. 2**-1074: three parts survive the
# cancellation, so the expansion needs all four passes; without the
# -1e300 it needs a fifth and the bulk fold must refuse
_WIDE = [1e300, 1.0, 1e-300, 5e-324, -1e300]
# cancels to zero, but any two of a sign overflow an intermediate sum
_HUGE = [1e308, 1e308, -1e308, -1e308]

_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-1e-300, max_value=1e-300),       # subnormals too
    st.sampled_from([0.0, -0.0, 0.1, 5e-324, -5e-324, 2.5e-308]),
).map(lambda v: [v])
_float_chunks = st.one_of(_floats, st.sampled_from([_WIDE, _HUGE]))
_ints = st.integers(-10**6, 10**6).map(lambda v: [v])
_odd = st.sampled_from([inf, -inf, nan, None]).map(lambda v: [v])
# pure columns half the time (what a bulk fold needs), anything otherwise
_values = st.one_of(
    st.lists(_float_chunks, max_size=30), st.lists(_ints, max_size=30),
    st.lists(st.one_of(_float_chunks, _ints, _odd), max_size=30),
    st.lists(st.one_of(_float_chunks, _ints, _odd), max_size=30),
).map(lambda chunks: sum(chunks, []))
_FEEDS = ("fold", "view", "scatter", "merge", "native", "rle")


class _Flagged:
    """A re-iterable slice that is not a ``list`` and carries the typed
    columns' guarantee as a flag — what a gathered NATIVE column looks
    like to ``fold``."""

    def __init__(self, values):
        self._values = values
        kinds = set(map(type, values))
        self.all_ints, self.all_floats = kinds == {int}, kinds == {float}

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def count(self, value):
        return self._values.count(value)


def _native(piece):
    """``piece`` as a scan's lazy gather of a NATIVE column: the values at
    the selected offsets, a filler in the gaps.  The piece's length picks
    the selection — one dense range, or one range per value.  A piece no
    typed array holds stays a list."""
    kinds = set(map(type, piece)) - {type(None)}
    if kinds not in ({int}, {float}):
        return piece
    step = 1 + len(piece) % 2
    offsets = list(range(1, step * len(piece) + 1, step))
    data = [7 if kinds == {int} else 0.375] * (step * len(piece) + 2)
    for i, value in zip(offsets, piece):
        data[i] = 0 if value is None else value
    nulls = frozenset(i for i, value in zip(offsets, piece) if value is None)
    column = NativeColumn(array("q" if kinds == {int} else "d", data), nulls)
    return _LazyColumn(column, offsets)


def _same_run(value, previous) -> bool:
    """Do ``value`` and ``previous`` decode alike?  ``1`` / ``1.0`` /
    ``True`` and ``0.0`` / ``-0.0`` compare equal but do not."""
    return value is previous or (
        type(value) is type(previous) and value == previous
        and repr(value) == repr(previous))


def _rle(piece):
    """``piece`` run-length encoded, neighbours that decode alike merged
    into runs (a sealed column run-length encodes fewer censuses; the
    aggregation reads any run it is handed)."""
    values, lengths = [], array("q")
    for value in piece:
        if values and _same_run(value, values[-1]):
            lengths[-1] += 1
        else:
            values.append(value)
            lengths.append(1)
    return RLEColumn(values, lengths)


_COLUMNS = {"fold": list, "view": _Flagged, "native": _native, "rle": _rle}


def _feed(groups, piece, feed, specs=SUM_SPECS):
    if feed == "merge":
        partial = GroupedAggregation(specs)
        _feed(partial, piece, "fold", specs)
        groups.merge(partial)
    elif feed == "scatter":
        groups.scatter(groups.assign([()] * len(piece)), [piece] * 3)
    else:
        column = _COLUMNS[feed](piece)
        groups.fold(groups.gid(()), [column] * 3, len(piece))


def _sum_oracle(values):
    present = [v for v in values if v is not None]
    if not present:
        return [(None, None, 0)]
    return [(_exact_sum(present), _exact_sum(present, len(present)),
             len(present))]


class TestBulkFold:
    @given(_values, st.lists(st.integers(0, 150), max_size=6),
           st.lists(st.sampled_from(_FEEDS), min_size=7, max_size=7),
           st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_any_cut_any_feed(self, values, cuts, feeds, rng):
        self._any_cut_any_feed(SUM_SPECS, values, cuts, feeds, rng)

    @given(_values, st.lists(st.integers(0, 150), max_size=6),
           st.lists(st.sampled_from(_FEEDS), min_size=7, max_size=7),
           st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_any_cut_any_feed_one_shared_state(self, values, cuts, feeds,
                                               rng):
        """SUM, AVG and COUNT of one argument: one state, three views."""
        self._any_cut_any_feed(SHARED_SUM_SPECS, values, cuts, feeds, rng)

    @staticmethod
    def _any_cut_any_feed(specs, values, cuts, feeds, rng):
        rng.shuffle(values)
        groups = GroupedAggregation(specs)
        groups.gid(())
        for piece, feed in zip(_split(values, cuts), feeds):
            _feed(groups, piece, feed, specs)
        assert _image(groups.rows()) == _image(_sum_oracle(values))

    def test_expansion_passes(self):
        """Four passes spell out three parts; a span that needs a fifth,
        an overflowing intermediate, inf and nan refuse — and a refusal
        leaves ``buckets`` as it found them."""
        buckets = {-3: 5}
        assert _fold_floats(buckets, _WIDE)
        assert sum(Fraction(m) * Fraction(2) ** e
                   for e, m in buckets.items()) - Fraction(5, 8) \
            == sum(map(Fraction, _WIDE))
        for refused in (_WIDE[:-1], _HUGE, [1.0, inf], [inf, -inf],
                        [0.5, nan]):
            for column in (refused, _Flagged(refused)):
                buckets = {-3: 5}
                assert _fold_typed_slice(buckets, column) is None
                assert buckets == {-3: 5}
            groups = GroupedAggregation(SUM_SPECS)
            _feed(groups, refused, "fold")
            assert _image(groups.rows()) == _image(_sum_oracle(refused))

    def test_zero_sums_stay_float(self):
        """An all-zero FLOAT column sums to ``0.0``, not ``0`` — and the
        exact total has no sign to keep, so ``[-0.0, -0.0]`` does too."""
        for zeros in ([0.0] * 5, [-0.0, -0.0], [1.5, -1.5], [0.0]):
            for feed in _FEEDS:
                groups = GroupedAggregation(SUM_SPECS)
                _feed(groups, zeros, feed)
                assert _image(groups.rows()) \
                    == [(("float", (0.0).hex()),) * 2
                        + (("int", len(zeros)),)], (zeros, feed)

    def test_only_a_pure_column_is_bulk_folded(self):
        """The census is on exact types: a ``bool`` in an int column, a
        NULL or an int among floats all keep the per-value path."""
        assert _fold_typed_slice({}, [1, 2, 3]) == 6
        buckets: dict = {}
        assert _fold_typed_slice(buckets, [0.5, 0.25]) == 0
        assert buckets == {-2: 3}
        for mixed in ([1, True, 2], [0.5, None], [0.5, 1], [], [None]):
            buckets = {}
            assert _fold_typed_slice(buckets, mixed) is None
            assert buckets == {}
        groups = GroupedAggregation(SUM_SPECS)
        _feed(groups, [1, True, 2], "fold")
        assert _image(groups.rows()) \
            == [(("int", 4), ("float", (4 / 3).hex()), ("int", 3))]


def _sum_result(int_total, total, exponent):
    """One group's SUM result from a state holding exactly these totals."""
    state = _SumState([1])           # one group of one row
    state.grow(1)
    state.ints[0], state.fixed[0] = int_total, total
    state.exponent = exponent
    return state.results()[0]


def _division(int_total, total, exponent):
    """The exact total over ``2**-exponent``: one correctly-rounded big-int
    division."""
    return ((int_total << -exponent) + total) / (1 << -exponent)


class TestSumResultConversion:
    """A SUM's float total converts as ``ldexp(float(N), exponent)``:
    ``float`` rounds once and scaling a normal double is exact, so the bits
    are the division's.  Where ``ldexp`` would round a second time — a
    subnormal result — or ``float(N)`` overflows, it divides instead."""

    CASES = [
        (0, 0, 0), (0, 0, -60), (0, -3, -2),
        # subnormal results: 2**-1074 up to just below the smallest normal
        (0, 1, -1074), (0, 3, -1075), (0, -5, -1076),
        (0, 2 ** 52 - 1, -1074), (0, (2 ** 52 - 1) * 2 ** 70 + 2 ** 69, -1144),
        # a sticky bit below the 53rd: rounding to 53 bits first makes an
        # exact tie that the subnormal rounding then breaks the wrong way
        (0, 2 ** 59 + 2 ** 49 + 1, -1124), (0, -(2 ** 59 + 2 ** 49 + 1), -1124),
        # the normal boundary, approached from below with rounding
        (0, 2 ** 52, -1074), (0, 2 ** 178 - 1, -1200),
        (0, 2 ** 178 - 2 ** 124, -1200), (0, -(2 ** 178 - 1), -1200),
        # ties and sticky bits where the 53-bit rounding happens
        (0, 2 ** 60 + 2 ** 7, -70), (0, 2 ** 60 + 2 ** 7 + 1, -70),
        (0, 2 ** 60 + 3 * 2 ** 7, -70),
        # ``float(N)`` overflows, the result does not
        (0, 2 ** 1100, -100), (0, -(2 ** 1030 + 1), -64),
        # the largest finite result, from above the double range
        (0, (2 ** 53 - 1) * 2 ** 1021, -50),
        # mixed int / float totals
        (3, 2 ** 40 + 1, -40), (-7, 5, -3), (10 ** 30, 12345, -60),
        (1, -(2 ** 1074), -1074),
    ]

    def test_cases(self):
        for int_total, total, exponent in self.CASES:
            assert _sum_result(int_total, total, exponent).hex() \
                == _division(int_total, total, exponent).hex(), \
                (int_total, total, exponent)

    def test_overflow_raises_as_the_division_does(self):
        for args in ((0, 2 ** 1025, -1), (0, 2 ** 1100, -70)):
            with pytest.raises(OverflowError):
                _division(*args)
            with pytest.raises(OverflowError):
                _sum_result(*args)
        # the group beyond the double range ranks last: a LIMIT 1 would
        # drop it, and it still raises
        groups = GroupedAggregation([("SUM", False, False)], (False,))
        groups.scatter(groups.assign_columns([[0, 1, 2, 2]]),
                       [[5.0, 3.0, -1.7e308, -1.7e308]])
        for top in (None, (0, 1)):
            with pytest.raises(OverflowError):
                groups.rows(top)

    @given(st.integers(-10 ** 20, 10 ** 20),
           st.integers(-(2 ** 1100), 2 ** 1100) | st.integers(-9, 9),
           st.integers(-1200, 0))
    @settings(max_examples=500, deadline=None)
    def test_generated(self, int_total, total, exponent):
        try:
            expected = _division(int_total, total, exponent).hex()
        except OverflowError:
            with pytest.raises(OverflowError):
                _sum_result(int_total, total, exponent)
        else:
            assert _sum_result(int_total, total, exponent).hex() == expected


# ---------------------------------------------------------------------------
# ORDER BY <SUM / COUNT> DESC LIMIT k: only the groups that can rank
# ---------------------------------------------------------------------------

# ranked on SUM (position 0) or COUNT (position 1)
RANKED_SPECS = [("SUM", False, False), ("COUNT", False, False),
                ("COUNT", True, False), ("AVG", False, False),
                ("MAX", False, False)]


def _ranked_state(groups, rng=None, specs=RANKED_SPECS):
    """``groups`` (one value list each) scattered in one batch, shuffled by
    ``rng``, under GROUP BY ``(gid, name)`` with the name dependent."""
    rows = [(gid, value) for gid, values in enumerate(groups)
            for value in values]
    if rng is not None:
        rng.shuffle(rows)
    state = GroupedAggregation(specs, (False, True))
    gids = state.assign_columns([[gid for gid, _v in rows],
                                 [f"g{gid}" for gid, _v in rows]])
    column = [value for _gid, value in rows]
    state.scatter(gids, [None if spec[1] else column for spec in specs])
    return state


def _ranked(rows, position, limit):
    """``TopN``'s answer: DESC on aggregate ``position`` (NULLs last), the
    canonical whole-row tiebreak, the first ``limit``."""
    rows = sorted(rows, key=canonical_row_key)
    rows.sort(key=lambda row: sort_key(row[2 + position]), reverse=True)
    return _image(rows[:limit])


def _assert_ranks_alike(state, position, limit):
    """Pruned rows are rows of the full output and rank the same."""
    full = state.rows()
    pruned = state.rows((position, limit))
    assert set(_image(pruned)) <= set(_image(full))
    assert _ranked(pruned, position, limit) == _ranked(full, position, limit)
    return len(pruned), len(full)


# few bases plus parts below their 53rd bit: exact totals that differ and
# round to the same double, tied across the cut; ints beside floats,
# negative totals, subnormal parts (a state-wide exponent of -1074) and
# NULL-only groups
_ranked_value = st.one_of(
    st.none(), st.integers(-3, 3),
    st.sampled_from([1.0, -1.0, 0.5, 3.0, 0.1, 2.0 ** 53, -(2.0 ** 53)]),
    st.sampled_from([2.0 ** -60, -(2.0 ** -60), 2.0 ** -30, 5e-324,
                     -5e-324]))
_ranked_groups = st.lists(st.lists(_ranked_value, min_size=1, max_size=4),
                          min_size=1, max_size=14)


class TestRankedPruning:
    """``rows((position, limit))`` emits a subset of ``rows()`` that an
    ``ORDER BY <aggregate position> DESC LIMIT limit`` ranks identically."""

    @given(_ranked_groups, st.integers(1, 6), st.sampled_from([0, 1]),
           st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_pruned_rows_rank_like_every_row(self, groups, limit, position,
                                             rng):
        _assert_ranks_alike(_ranked_state(groups, rng), position, limit)

    def test_ties_that_round_equal_straddle_the_cut(self):
        # 1 + 2**-60 is the exact top-1 but rounds to 1.0, like group 0
        # and the int 1 of group 2; the whole-row tiebreak picks group 0
        for tiny in (2.0 ** -60, 5e-324):
            state = _ranked_state([[1.0], [1.0, tiny], [1], [0.5], [None]])
            assert _assert_ranks_alike(state, 0, 1) == (3, 5)
            assert state.rows((0, 1))[0][:3] == (0, "g0", 1.0)

    def test_negative_totals_and_counts(self):
        state = _ranked_state([[-3.0], [-1.0, -1.0], [-0.5], [2, None], [-4]])
        assert _assert_ranks_alike(state, 0, 2) == (2, 5)
        assert _assert_ranks_alike(state, 1, 1) == (1, 5)

    def test_fewer_non_null_groups_than_the_limit_keep_every_group(self):
        state = _ranked_state([[None], [1.0], [None, None], [2]])
        assert _assert_ranks_alike(state, 0, 3) == (4, 4)
        assert _assert_ranks_alike(state, 0, 2) == (2, 4)

    def test_inexact_state_keeps_every_group(self):
        for odd in (Decimal("7.5"), inf, -inf):
            state = _ranked_state([[1.0], [odd], [3], [2.5], [0.25]])
            assert _assert_ranks_alike(state, 0, 1) == (5, 5)
            assert _assert_ranks_alike(state, 1, 1) == (5, 5)


# ---------------------------------------------------------------------------
# SQL level: row pipeline vs vectorized vs warm sketch hit
# ---------------------------------------------------------------------------

PLAIN_AGGS = "COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(w), MAX(w)"
DISTINCT_AGGS = "COUNT(DISTINCT w), SUM(DISTINCT w), AVG(DISTINCT w)"


def _make_db(rows, partitions):
    db = Database(with_columnar=True, columnar_segment_rows=16,
                  partitions=partitions)
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, k VARCHAR, j INT, "
                   "v DOUBLE, w DOUBLE)")
    db.bulk_load("t", [(i, *row) for i, row in enumerate(rows)])
    db.replicate()
    db.columnar.compact(force=True)
    return db


def _run(db, sql, route_columnar, vectorized=True):
    """One autocommit statement; ``vectorized=False`` answers it with the
    row tree (the oracle) wherever it is routed."""
    db.executor.use_vectorized = vectorized
    try:
        with db.connect() as conn:
            result = conn.execute(sql, (), route_columnar=route_columnar)
            conn.commit()
    finally:
        db.executor.use_vectorized = True
    return result


def _sql_oracle(rows, key_of, aggs):
    members: dict = {}
    for row in rows:
        members.setdefault(key_of(row), []).append(row[2:])
    picks = slice(0, 6) if aggs is PLAIN_AGGS else slice(6, 9)
    return sorted(_image([key + _oracle_row(group)[picks]
                          for key, group in members.items()]))


_sql_rows = st.lists(
    st.tuples(st.sampled_from([None, "giant", "giant", "giant", "a", "b"]),
              st.one_of(st.none(), st.integers(0, 3)), _v, _w),
    max_size=70)


class TestPipelinesAgree:
    @given(_sql_rows, st.sampled_from([1, 2, 8]))
    @settings(max_examples=40, deadline=None)
    def test_row_vectorized_and_warm_sketch(self, rows, partitions):
        db = _make_db(rows, partitions)
        shapes = [("k", lambda r: (r[0],)), ("j", lambda r: (r[1],)),
                  ("k, j", lambda r: (r[0], r[1]))]
        for keys, key_of in shapes:
            for aggs in (PLAIN_AGGS, DISTINCT_AGGS):
                sql = f"SELECT {keys}, {aggs} FROM t GROUP BY {keys}"
                expected = _sql_oracle(rows, key_of, aggs)
                row = _run(db, sql, route_columnar=False, vectorized=False)
                unrouted = _run(db, sql, route_columnar=False)
                cold = _run(db, sql, route_columnar=True)
                warm = _run(db, sql, route_columnar=True)
                assert cold.stats.vectorized and not row.stats.vectorized
                for result in (row, unrouted, cold, warm):
                    assert sorted(_image(result.rows)) == expected
                # both trees read the row store in one order
                assert _image(unrouted.rows) == _image(row.rows)
                # emission order is first-appearance order on every path
                assert _image(cold.rows) == _image(warm.rows)
                if aggs is PLAIN_AGGS and rows:
                    assert warm.stats.sketches_hit > 0
                    assert warm.stats.agg_input_rows == 0

    @given(_sql_rows, st.sampled_from([1, 2, 8]))
    @settings(max_examples=25, deadline=None)
    def test_global_aggregate(self, rows, partitions):
        db = _make_db(rows, partitions)
        sql = f"SELECT {PLAIN_AGGS}, {DISTINCT_AGGS} FROM t"
        expected = _image([_oracle_row([row[2:] for row in rows])])
        assert _image(_run(db, sql, False, vectorized=False).rows) \
            == expected
        assert _image(_run(db, sql, False).rows) == expected
        assert _image(_run(db, sql, True).rows) == expected

    def test_empty_input_global_aggregate_row(self):
        for partitions in (1, 2, 8):
            db = _make_db([], partitions)
            sql = f"SELECT {PLAIN_AGGS} FROM t"
            for route_columnar, vectorized in ((False, False),
                                               (False, True), (True, True)):
                assert _run(db, sql, route_columnar, vectorized).rows \
                    == [(0, 0, None, None, None, None)]
            assert _run(db, "SELECT k, COUNT(*) FROM t GROUP BY k",
                        True).rows == []


# ---------------------------------------------------------------------------
# SQL level: which statements prune, and that they answer alike
# ---------------------------------------------------------------------------

RANKED_DDL = ["CREATE TABLE item (i_id INT PRIMARY KEY, i_name VARCHAR)",
              "CREATE TABLE line (id INT PRIMARY KEY, i_id INT, "
              "amount DOUBLE, qty INT)"]

Q5_SHAPE = ("SELECT l.i_id, i.i_name, SUM(l.amount) AS revenue, "
            "SUM(l.qty) AS units FROM line l JOIN item i ON i.i_id = l.i_id "
            "GROUP BY l.i_id, i.i_name ORDER BY revenue DESC LIMIT 5")
SKETCHED = ("SELECT i_id, SUM(amount) AS revenue FROM line GROUP BY i_id "
            "ORDER BY revenue DESC LIMIT 3")

#: statement -> the ``top`` both aggregate nodes get
RANKED_SHAPES = {
    Q5_SHAPE: (0, 5),
    SKETCHED: (0, 3),
    "SELECT i_id, COUNT(*) AS n, SUM(qty) FROM line GROUP BY i_id "
    "ORDER BY n DESC LIMIT 4": (0, 4),
    "SELECT i_id, COUNT(*) AS n, SUM(qty) FROM line GROUP BY i_id "
    "ORDER BY 3 DESC LIMIT 1": (1, 1),
    "SELECT i_id FROM line GROUP BY i_id ORDER BY SUM(qty) DESC LIMIT 2":
        (0, 2),
    # a second key, HAVING, DISTINCT, AVG, an expression, ASC: not ranked
    "SELECT i_id, SUM(amount) AS revenue FROM line GROUP BY i_id "
    "ORDER BY revenue DESC, i_id LIMIT 3": None,
    "SELECT i_id, SUM(amount) AS revenue FROM line GROUP BY i_id "
    "HAVING SUM(amount) > 1 ORDER BY revenue DESC LIMIT 3": None,
    "SELECT DISTINCT SUM(qty) AS s FROM line GROUP BY i_id "
    "ORDER BY s DESC LIMIT 3": None,
    "SELECT i_id, AVG(amount) AS a FROM line GROUP BY i_id "
    "ORDER BY a DESC LIMIT 3": None,
    "SELECT i_id, SUM(amount) * 2 AS r FROM line GROUP BY i_id "
    "ORDER BY r DESC LIMIT 3": None,
    "SELECT i_id, SUM(amount) AS revenue FROM line GROUP BY i_id "
    "ORDER BY revenue LIMIT 3": None,
    # a DISTINCT aggregate, no LIMIT, and a projection that could raise
    "SELECT i_id, COUNT(DISTINCT qty) AS n FROM line GROUP BY i_id "
    "ORDER BY n DESC LIMIT 3": None,
    "SELECT i_id, SUM(amount) AS revenue FROM line GROUP BY i_id "
    "ORDER BY revenue DESC": None,
    "SELECT i_id, SUM(amount) / COUNT(qty) FROM line GROUP BY i_id "
    "ORDER BY SUM(amount) DESC LIMIT 3": None,
}


def _ranked_tables():
    rng = Random(38)
    items = [(i, f"item{i % 9}") for i in range(30)]
    # multiples of 2**-4: sqlite's ordered double sums are exact too
    lines = [(n, rng.randrange(30),
              rng.choice([None, 0.5, 1.0, 1.5, 2.25, -0.75, 3.0625]),
              rng.choice([None, 1, 2, 3, 5])) for n in range(240)]
    return {"item": items, "line": lines}


def _ranked_sql_db(partitions):
    db = Database(with_columnar=True, columnar_segment_rows=16,
                  partitions=partitions)
    for ddl in RANKED_DDL:
        db.execute_ddl(ddl)
    for table, rows in _ranked_tables().items():
        db.bulk_load(table, rows)
    db.replicate()
    db.columnar.compact(force=True)
    return db


def _aggregate_tops(db, sql):
    """``top`` of every aggregate node in both of ``sql``'s plans."""
    plan = db.prepare(sql)
    tops, nodes = [], [plan.root, plan.vectorized_root]
    while nodes:
        node = nodes.pop()
        if hasattr(node, "top"):
            tops.append(node.top)
        nodes += node.children()
    return tops


def _sqlite_answer(sql, width):
    """``sql`` on sqlite, its ORDER BY completed by the whole visible row
    (the engine's canonical tiebreak)."""
    con = sqlite3.connect(":memory:")
    for ddl in RANKED_DDL:
        con.execute(ddl)
    for table, rows in _ranked_tables().items():
        con.executemany(f"INSERT INTO {table} VALUES "
                        f"({', '.join('?' * len(rows[0]))})", rows)
    ordinals = ", ".join(str(i) for i in range(1, width + 1))
    head, tail = sql.split(" LIMIT ") if " LIMIT " in sql else (sql, None)
    sql = f"{head}, {ordinals}" + (f" LIMIT {tail}" if tail else "")
    return _image(con.execute(sql).fetchall())


class TestRankedAggregate:
    @pytest.mark.parametrize("partitions", [1, 4])
    def test_plans_and_answers(self, partitions):
        db = _ranked_sql_db(partitions)
        for sql, top in RANKED_SHAPES.items():
            assert _aggregate_tops(db, sql) == [top, top], sql
            oracle = _run(db, sql, route_columnar=False, vectorized=False)
            unrouted = _run(db, sql, route_columnar=False)
            cold = _run(db, sql, route_columnar=True)
            warm = _run(db, sql, route_columnar=True)
            assert cold.stats.vectorized and not oracle.stats.vectorized
            expected = _image(oracle.rows)
            assert _image(unrouted.rows) == _image(cold.rows) \
                == _image(warm.rows) == expected, sql
            assert _sqlite_answer(sql, len(oracle.rows[0])) == expected, sql
            if top is not None:
                # the ORDER BY ranks every group, pruned or not
                for result in (oracle, unrouted, cold, warm):
                    assert result.stats.sort_rows == result.stats.groups
    def test_ranked_statements_emit_fewer_groups(self, monkeypatch):
        db = _ranked_sql_db(4)
        emitted = []
        rows = GroupedAggregation.rows

        def spy(groups, top=None, gids=None):
            emitted.append(len(rows(groups, top, gids)))
            return rows(groups, top, gids)
        monkeypatch.setattr(GroupedAggregation, "rows", spy)
        for sql in (Q5_SHAPE, SKETCHED, SKETCHED):
            for route_columnar in (False, True):
                emitted.clear()
                result = _run(db, sql, route_columnar)
                assert emitted[-1] < result.stats.groups == 30
        # the last run merged every segment's cached partial, then pruned
        assert result.stats.sketches_hit and not result.stats.agg_input_rows


# ---------------------------------------------------------------------------
# the sketch cache's size estimate tracks the partial it describes
# ---------------------------------------------------------------------------

def _deep_sizeof(obj, seen):
    """``sys.getsizeof`` walk over a partial's containers and values."""
    import sys

    if id(obj) in seen or obj is None:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_sizeof(k, seen) + _deep_sizeof(v, seen)
                    for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set)):
        size += sum(_deep_sizeof(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_sizeof(vars(obj), seen)
    return size


class TestSketchSizeEstimate:
    def _cached_run(self, sql, groups, rows=4096):
        rng = Random(5)
        table = [(i, f"key{rng.randrange(groups):05d}", rng.randrange(groups),
                  rng.choice([None, rng.uniform(-100, 100), rng.randrange(9)]),
                  rng.uniform(0, 1))
                 for i in range(rows)]
        db = Database(with_columnar=True, columnar_segment_rows=1024)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, k VARCHAR, "
                       "j INT, v DOUBLE, w DOUBLE)")
        db.bulk_load("t", table)
        db.replicate()
        db.columnar.compact(force=True)
        assert _run(db, sql, True).stats.sketches_built == 4
        # one entry: the state of the run of all 4 sealed segments
        [(segments, state, nbytes)] = db.columnar.sketches._entries.values()
        assert len(segments) == 4
        return state, nbytes

    def test_estimate_within_2x_of_a_real_partial(self):
        # the estimates are pinned: they are the sketch cache's LRU budget,
        # so a key-layout change (a bare single key, a dependent column)
        # must not move them.  ``COUNT(v), SUM(v), AVG(v)`` keep one state
        shapes = [
            (f"SELECT k, {PLAIN_AGGS} FROM t GROUP BY k", 7, 5828),
            (f"SELECT k, {PLAIN_AGGS} FROM t GROUP BY k", 900, 345576),
            ("SELECT k, j, COUNT(*), SUM(w) FROM t GROUP BY k, j", 300,
             1100540),
            ("SELECT j, SUM(j), MAX(w) FROM t GROUP BY j", 2000, 465120),
            ("SELECT COUNT(*), AVG(v) FROM t", 5, 2074),
        ]
        for sql, groups, pinned in shapes:
            state, estimate = self._cached_run(sql, groups)
            assert estimate == pinned == state.nbytes()
            actual = _deep_sizeof(state, set())
            assert actual / 2 <= estimate <= actual * 2, (sql, groups)


# ---------------------------------------------------------------------------
# one state per argument: the aggregates that share it, against the oracle
# ---------------------------------------------------------------------------

# ``(name, count_star, distinct, argument)``: SUM, AVG and COUNT of ``v``
# read one state, and of ``w`` another; MIN(w) twice reads one, COUNT(*)
# twice one; the DISTINCT aggregates over ``w`` keep a state each
SHARED_SPECS = [("AVG", False, False, "v"), ("COUNT", True, False, None),
                ("SUM", False, False, "v"), ("COUNT", False, True, "w"),
                ("COUNT", False, False, "v"), ("SUM", False, False, "w"),
                ("MIN", False, False, "w"), ("SUM", False, True, "w"),
                ("AVG", False, False, "v"), ("COUNT", False, False, "w"),
                ("SUM", False, False, "v"), ("AVG", False, True, "w"),
                ("MAX", False, False, "w"), ("AVG", False, False, "w"),
                ("COUNT", True, False, None), ("MIN", False, False, "w")]
# COUNT without a SUM or AVG of its argument: one COUNT state per argument
COUNT_SPECS = [("COUNT", False, False, "v"), ("COUNT", True, False, None),
               ("COUNT", False, False, "v"), ("COUNT", False, False, "w")]
#: spec list -> the states it keeps
SHARED_STATES = {id(SHARED_SPECS): 8, id(COUNT_SPECS): 3}


def _spec_value(spec, members):
    """One aggregate over one group's ``(v, w)`` rows."""
    name, count_star, distinct, arg = spec
    if count_star:
        return len(members)
    values = [row["vw".index(arg)] for row in members]
    values = [value for value in values if value is not None]
    if distinct:
        values = list(set(values))
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name in ("MIN", "MAX"):
        return min(values) if name == "MIN" else max(values)
    return _exact_sum(values, len(values) if name == "AVG" else None)


def _shared_expected(rows, specs):
    members: dict = {}
    for key, v, w in rows:
        members.setdefault(key, []).append((v, w))
    return _image([key + tuple(_spec_value(spec, group) for spec in specs)
                   for key, group in members.items()])


def _shared_columns(batch, specs):
    """One argument column per aggregate, one list per argument — as
    ``argument_columns`` hands the same column to equal arguments."""
    by_arg = {"v": [v for _k, v, _w in batch],
              "w": [w for _k, _v, w in batch], None: None}
    return [by_arg[spec[3]] for spec in specs]


def _shared_scattered(batches, specs):
    groups = GroupedAggregation(specs)
    for batch in batches:
        groups.scatter(groups.assign(key for key, _v, _w in batch),
                       _shared_columns(batch, specs))
    return groups


def _mergeable(specs):
    return [spec for spec in specs if not spec[2]]


@pytest.mark.parametrize("specs", [SHARED_SPECS, COUNT_SPECS],
                         ids=["sum_avg_count", "count_only"])
class TestSharedStates:
    def test_one_state_per_argument(self, specs):
        assert len(GroupedAggregation(specs).states) \
            == SHARED_STATES[id(specs)]

    @given(_rows, st.lists(st.integers(0, 80), max_size=6), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_any_batch_split_and_row_order(self, specs, rows, cuts, rng):
        rng.shuffle(rows)
        assert _image(_shared_scattered(_split(rows, cuts), specs).rows()) \
            == _shared_expected(rows, specs)

    @given(_rows, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_bulk_fold_in_pieces(self, specs, rows, rng):
        groups = GroupedAggregation(specs)
        members: dict = {}
        for row in rows:
            members.setdefault(row[0], []).append(row)
        for key, group in members.items():
            cut = rng.randint(0, len(group))
            for piece in (group[:cut], group[cut:]):
                groups.fold(groups.gid(key), _shared_columns(piece, specs),
                            len(piece))
        assert _image(groups.rows()) == _shared_expected(rows, specs)

    @given(_rows, st.sampled_from([1, 2, 8]), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_merged_partials(self, specs, rows, partitions, rng):
        """Partials merged into an empty state and into a populated one;
        each partial is read twice, as a cached state is."""
        specs = _mergeable(specs)
        streams = [[] for _ in range(partitions)]
        for row in rows:
            streams[rng.randrange(partitions)].append(row)
        partials = [_shared_scattered([stream], specs) for stream in streams]
        concatenated = [row for stream in streams for row in stream]
        for _ in range(2):
            merged = GroupedAggregation(specs)
            for partial in partials:
                merged.merge(partial)
            assert _image(merged.rows()) \
                == _shared_expected(concatenated, specs)
        populated = _shared_scattered([streams[0]], specs)
        for partial in partials[1:]:
            populated.merge(partial)
        assert _image(populated.rows()) \
            == _shared_expected(concatenated, specs)

    @given(_rows, st.integers(0, 80))
    @settings(max_examples=100, deadline=None)
    def test_copy_folds_on_alone(self, specs, rows, cut):
        """A copy of a partial folds on without touching the partial,
        and a later copy or merge reads the partial as it was."""
        specs = _mergeable(specs)
        head, tail = rows[:cut], rows[cut:]
        partial = _shared_scattered([head], specs)
        copied = partial.copy()
        copied.scatter(copied.assign(key for key, _v, _w in tail),
                       _shared_columns(tail, specs))
        assert _image(copied.rows()) == _shared_expected(rows, specs)
        assert _image(partial.rows()) == _shared_expected(head, specs)
        assert _image(partial.copy().rows()) == _shared_expected(head, specs)
        merged = GroupedAggregation(specs)
        merged.merge(partial)
        assert _image(merged.rows()) == _shared_expected(head, specs)

    def test_empty_global_group(self, specs):
        groups = GroupedAggregation(specs)
        groups.gid(())
        assert groups.rows() == [tuple(0 if spec[0] == "COUNT" else None
                                       for spec in specs)]
        cached = GroupedAggregation(_mergeable(specs))
        cached.gid(())
        merged = GroupedAggregation(_mergeable(specs))
        merged.merge(cached)
        assert cached.copy().rows() == merged.rows() == [
            tuple(0 if spec[0] == "COUNT" else None
                  for spec in _mergeable(specs))]


# ranked on SUM(x) (position 1) or COUNT(x) (position 2), views of one state
RANKED_SHARED_SPECS = [("AVG", False, False, "x"), ("SUM", False, False, "x"),
                       ("COUNT", False, False, "x"), ("COUNT", True, False, None)]


@given(_ranked_groups, st.integers(1, 6), st.sampled_from([1, 2]),
       st.randoms())
@settings(max_examples=200, deadline=None)
def test_ranked_pruning_reads_a_shared_view(groups, limit, position, rng):
    state = _ranked_state(groups, rng, RANKED_SHARED_SPECS)
    assert len(state.states) == 2
    expected = [(gid, f"g{gid}", *(_spec_value((name, star, distinct, "v"),
                                               [(v, None) for v in values])
                                   for name, star, distinct, _arg
                                   in RANKED_SHARED_SPECS))
                for gid, values in enumerate(groups)]
    assert sorted(_image(state.rows())) == sorted(_image(expected))
    _assert_ranks_alike(state, position, limit)


def _spec_of(text: str):
    """``SUM(DISTINCT t.w)`` -> ``("SUM", False, True, "w")``."""
    name, arg = text.rstrip(")").split("(")
    distinct = arg.startswith("DISTINCT ")
    arg = arg.removeprefix("DISTINCT ").removeprefix("t.")
    return name, arg == "*", distinct, None if arg == "*" else arg


#: SELECT lists whose aggregates share states; the first is sketch-eligible
SHARED_SQL = [
    "AVG(v), COUNT(*), SUM(t.v), COUNT(v), SUM(w), MIN(w), COUNT(w), "
    "AVG(t.w), MAX(w), SUM(v), COUNT(t.v)",
    "SUM(v), COUNT(DISTINCT w), AVG(v), SUM(DISTINCT w), COUNT(v), "
    "AVG(DISTINCT w), SUM(w)",
    "COUNT(v), COUNT(*), COUNT(t.v), MAX(w)",
]


class TestSharedStatesThroughSql:
    @given(_sql_rows, st.sampled_from([1, 4]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_path_and_a_kill(self, rows, partitions, data):
        """Row tree, vector tree on the row store, cold and warm replica,
        grouped and global — then a killed slot in a sealed segment."""
        db = _make_db(rows, partitions)
        self._check(db, rows, expect_hits=bool(rows))
        if not rows:
            return
        victim = data.draw(st.integers(0, len(rows) - 1))
        changed = data.draw(st.integers(0, len(rows) - 1))
        value = data.draw(_v)
        with db.connect() as conn:
            conn.execute("DELETE FROM t WHERE id = ?", (victim,))
            conn.execute("UPDATE t SET v = ? WHERE id = ?", (value, changed))
            conn.commit()
        db.replicate()
        # the column's type validates what UPDATE writes (an int becomes
        # a DOUBLE); bulk-loaded values are stored as given
        [(value,)] = db.query(f"SELECT v FROM t WHERE id = {changed}").rows \
            if changed != victim else [(value,)]
        rows = [row if i != changed else (*row[:2], value, row[3])
                for i, row in enumerate(rows)]
        self._check(db, [row for i, row in enumerate(rows) if i != victim],
                    expect_hits=False)

    def test_spellings_of_one_argument_keep_one_layout(self):
        """``v`` and ``t.v`` name one column, so the sketch key — which
        names columns by position — is the same for both spellings: they
        must keep one state layout.  A killed row in the first segment
        makes a warm hit merge the cached run into a state the statement
        built itself."""
        rng = Random(7)
        rows = [(rng.choice(["a", "b", "c"]), None,
                 rng.choice([None, 2, 0.5, rng.uniform(-9, 9)]), None)
                for _ in range(60)]
        db = _make_db(rows, 1)
        first = "SELECT k, SUM(v), AVG(v), COUNT(v) FROM t GROUP BY k"
        _run(db, first, True)
        with db.connect() as conn:
            conn.execute("DELETE FROM t WHERE id = 0")
            conn.commit()
        db.replicate()
        assert _run(db, first, True).stats.sketches_built > 0
        grouped: dict = {}
        for key, _j, v, w in rows[1:]:
            grouped.setdefault((key,), []).append((v, w))
        for select in ("SUM(t.v), AVG(v), COUNT(t.v)",
                       "SUM(v), AVG(t.v), COUNT(v)"):
            specs = [_spec_of(text) for text in select.split(", ")]
            result = _run(db, f"SELECT k, {select} FROM t GROUP BY k", True)
            assert result.stats.sketches_hit > 0
            assert result.stats.agg_input_rows > 0
            assert sorted(_image(result.rows)) == sorted(_image([
                key + tuple(_spec_value(spec, group) for spec in specs)
                for key, group in grouped.items()]))

    @staticmethod
    def _check(db, rows, expect_hits):
        grouped: dict = {}
        for row in rows:
            grouped.setdefault((row[0],), []).append(row[2:])
        whole = {(): [row[2:] for row in rows]}
        for aggs in SHARED_SQL:
            specs = [_spec_of(text) for text in aggs.split(", ")]
            for sql, members in (
                    (f"SELECT k, {aggs} FROM t GROUP BY k", grouped),
                    (f"SELECT {aggs} FROM t", whole)):
                expected = sorted(_image([
                    key + tuple(_spec_value(spec, group) for spec in specs)
                    for key, group in members.items()]))
                results = [_run(db, sql, False, vectorized=False),
                           _run(db, sql, False), _run(db, sql, True),
                           _run(db, sql, True)]
                for result in results:
                    assert sorted(_image(result.rows)) == expected, sql
                if expect_hits and aggs is SHARED_SQL[0]:
                    assert results[-1].stats.sketches_hit > 0
