"""Generated differential for the PK-prefix read path.

Composite-key tables under any committed history, read by an open
transaction whose snapshot is older than some of the commits and which has
itself inserted, updated and deleted rows under and outside the prefix.
The oracle is the same predicate evaluated in Python over ``txn.scan``:
SELECT rows *and order* (key order over the snapshot, then the
transaction's own new rows in write order), the UPDATE / DELETE target
sets, and the counters the row-at-a-time path charged — one range scan on
one partition, every row the scan produced and no row past the one a
``LIMIT`` stopped at.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.sql.executor import ExecContext
from repro.txn.manager import IsolationLevel

KEYS = st.integers(0, 2)
PAYLOAD = st.one_of(st.none(), st.integers(0, 1))
JOIN_KEYS = st.one_of(KEYS, st.none())


def _sized(elements, largest):
    return st.integers(0, largest).flatmap(
        lambda size: st.lists(elements, min_size=size, max_size=size))


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 4))                     # key columns
    op = st.tuples(st.sampled_from(["put", "put", "delete"]),
                   st.tuples(*[KEYS] * n), PAYLOAD, PAYLOAD)
    # sizes drawn first and uniformly: left to itself hypothesis keeps the
    # lists — and so the tables — nearly empty
    committed = draw(_sized(op, 24))
    snapshot_at = draw(st.integers(0, len(committed)))
    local = draw(_sized(op, 8))
    prefix = list(draw(st.tuples(*[KEYS] * n)))
    # a NULL or a value of another type in the prefix matches nothing
    odd = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, n - 1), st.sampled_from([None, "x"]))))
    if odd is not None:
        prefix[odd[0]] = odd[1]
    return n, committed, snapshot_at, local, tuple(prefix)


def _apply(txn, ops):
    for kind, pk, v, w in ops:
        present = txn.get("t", pk) is not None
        if kind == "delete":
            if present:
                txn.delete("t", pk)
        elif present:
            txn.update("t", pk, pk + (v, w))
        else:
            txn.insert("t", pk, pk + (v, w))


def _open_reader(n, partitions, committed, snapshot_at, local):
    """``(db, conn, txn)``: ``txn`` began after ``snapshot_at`` of the
    committed operations, the rest committed behind its back, and it holds
    ``local`` as buffered writes."""
    db = Database(partitions=partitions)
    keys = ", ".join(f"k{i} INT NOT NULL" for i in range(n))
    db.run_script(
        f"CREATE TABLE t ({keys}, v INT, w INT, PRIMARY KEY "
        f"({', '.join(f'k{i}' for i in range(n))}))")

    def commit(ops):
        for op in ops:
            txn = db.txn_manager.begin()
            _apply(txn, [op])
            txn.commit()

    commit(committed[:snapshot_at])
    conn = db.connect(IsolationLevel.SNAPSHOT)
    txn = conn.begin()
    commit(committed[snapshot_at:])
    _apply(txn, local)
    return db, conn, txn


def _scan_order(db, txn, bound, table="t"):
    """What a scan of ``table`` bound to ``bound`` (a key prefix) yields:
    the snapshot's rows in key order, then the transaction's own new rows
    as written."""
    store = db.storage.store(table)
    rows = [(pk, values) for pk, values in txn.scan(table)
            if all(a is not None and a == b for a, b in zip(bound, pk))]
    old = sorted(pair for pair in rows
                 if store.get(pair[0], txn.read_ts) is not None)
    new = [pair for pair in rows if store.get(pair[0], txn.read_ts) is None]
    return [values for _pk, values in old + new]


def _residuals(n, length, data):
    """``(sql, params, python predicate)`` choices; ``length`` key columns
    are bound by the prefix."""
    v, w = n, n + 1
    a, b = data.draw(KEYS), data.draw(KEYS)
    lo, hi = min(a, b), max(a, b) + 1
    choices = [
        ("", (), lambda row: True),
        ("v = ?", (a,), lambda row: row[v] == a),
        ("w >= ? AND w < ?", (lo, hi),
         lambda row: row[w] is not None and lo <= row[w] < hi),
        ("w IS NULL", (), lambda row: row[w] is None),
        # a second equality on a column the prefix already binds
        ("k0 = ?", (a,), lambda row: row[0] == a),
    ]
    if length < n:
        # the StockLevel shape: a range on the next key column
        choices.append((f"k{length} >= ? AND k{length} < ?", (lo, hi),
                        lambda row: lo <= row[length] < hi))
    return data.draw(st.sampled_from(choices))


def _where(prefix, residual_sql):
    conjuncts = [f"k{i} = ?" for i in range(len(prefix))]
    if residual_sql:
        conjuncts.append(residual_sql)
    return " AND ".join(conjuncts)


def _expected_stats(length, n, partitions, scanned):
    """The counters of one statement whose access path read ``scanned``
    rows (None: the path never started)."""
    if scanned is None:
        return dict(index_range_scans=0, pk_lookups=0, partitions_scanned=0,
                    partitions_pruned=0, rows_row_store={},
                    rows_row_prefix={}, full_scans={})
    table = {"t": scanned} if scanned else {}
    point = length == n
    return dict(index_range_scans=0 if point else 1,
                pk_lookups=1 if point else 0,
                partitions_scanned=1, partitions_pruned=partitions - 1,
                rows_row_store=table,
                rows_row_prefix={} if point else table, full_scans={})


def _stats(stats):
    def charged(per_table):
        return {name: rows for name, rows in per_table.items() if rows}

    return dict(index_range_scans=stats.index_range_scans,
                pk_lookups=stats.pk_lookups,
                partitions_scanned=stats.partitions_scanned,
                partitions_pruned=stats.partitions_pruned,
                rows_row_store=charged(stats.rows_row_store),
                rows_row_prefix=charged(stats.rows_row_prefix),
                full_scans=charged(stats.full_scans))


@given(scenarios(), st.sampled_from([1, 2, 8]), st.integers(1, 9),
       st.sampled_from([None, "0", "1", "n"]), st.data())
@settings(max_examples=250, deadline=None)
def test_prefix_select_matches_scan_oracle(scenario, partitions, size, limit,
                                           data):
    n, committed, snapshot_at, local, full_key = scenario
    db, conn, txn = _open_reader(n, partitions, committed, snapshot_at, local)
    for length in range(1, n + 1):
        prefix = full_key[:length]
        residual_sql, residual_params, keep = _residuals(n, length, data)
        scan = _scan_order(db, txn, prefix)
        matches = [row for row in scan if keep(row)]
        take = {None: None, "0": 0, "1": 1, "n": len(matches)}[limit]
        sql = f"SELECT * FROM t WHERE {_where(prefix, residual_sql)}"
        if take is None:
            expected, scanned = matches, len(scan)
        elif take == 0:
            sql += " LIMIT 0"
            expected, scanned = [], None
        else:
            # the scan is closed at the row that fills the limit
            sql += f" LIMIT {take}"
            expected = matches[:take]
            scanned = scan.index(expected[-1]) + 1 \
                if len(expected) == take else len(scan)
        params = prefix + residual_params
        charged = _expected_stats(length, n, partitions, scanned)

        result = conn.execute(sql, params)
        assert result.rows == expected, sql
        assert _stats(result.stats) == charged, sql

        ctx = ExecContext(txn, params, partition_map=db.partition_map)
        batches = list(db.prepare(sql).root.execute_batches(ctx, size))
        assert all(0 < len(batch) <= size for batch in batches)
        assert [row for batch in batches for row in batch] == expected
        assert _stats(ctx.stats) == charged, sql

    conn.rollback()


@given(scenarios(), st.sampled_from([1, 2, 8]), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_prefix_dml_targets_match_scan_oracle(scenario, partitions, delete,
                                              data):
    n, committed, snapshot_at, local, full_key = scenario
    db, conn, txn = _open_reader(n, partitions, committed, snapshot_at, local)
    length = data.draw(st.integers(1, n))
    prefix = full_key[:length]
    residual_sql, residual_params, keep = _residuals(n, length, data)
    scan = _scan_order(db, txn, prefix)
    targets = [row for row in scan if keep(row)]
    after = dict(txn.scan("t"))
    for row in targets:
        if delete:
            del after[row[:n]]
        else:
            after[row[:n]] = row[:n] + (7, row[n + 1])
    where = _where(prefix, residual_sql)
    if delete:
        result = conn.execute(f"DELETE FROM t WHERE {where}",
                              prefix + residual_params)
    else:
        result = conn.execute(f"UPDATE t SET v = 7 WHERE {where}",
                              prefix + residual_params)
    assert result.rowcount == len(targets)
    assert dict(txn.scan("t")) == after
    assert _stats(result.stats) == \
        _expected_stats(length, n, partitions, len(scan))
    assert dict(result.stats.writes) == \
        ({"t": len(targets)} if targets else {})
    conn.rollback()


@given(scenarios(), st.sampled_from([1, 2, 8]), st.integers(1, 9),
       st.sampled_from([None, "0", "1", "n"]), st.data())
@settings(max_examples=200, deadline=None)
def test_index_join_matches_nested_loop_oracle(scenario, partitions, size,
                                               limit, data):
    """``o JOIN t`` on the first ``m`` key columns of ``t`` from a selective
    outer side: the inner lookup is a point read (``m == n``, INNER or LEFT)
    or a prefix scan per outer row.  The oracle is the nested loop written
    out, counting what it reads until the limit is filled."""
    n, committed, snapshot_at, local, _key = scenario
    db, conn, txn = _open_reader(n, partitions, committed, snapshot_at, local)
    db.run_script("CREATE TABLE o (g INT NOT NULL, id INT NOT NULL, a INT, "
                  "b INT, PRIMARY KEY (g, id))")
    # outer join keys: mostly ones that exist in t, some that do not, NULLs
    join_keys = st.tuples(JOIN_KEYS, JOIN_KEYS)
    if present := [pk[:2] for pk, _values in txn.scan("t")]:
        join_keys = st.one_of(st.sampled_from(present), join_keys)
    for i, (a, b) in enumerate(data.draw(_sized(join_keys, 6))):
        txn.insert("o", (1, i), (1, i, a, b))
    m = data.draw(st.integers(1, min(n, 2)))
    left = m == n and data.draw(st.booleans())
    # the inner filter, when there is one: t.v = ?
    wanted = data.draw(st.one_of(st.just("any"), PAYLOAD))
    on = [f"t.k{i} = o.{'ab'[i]}" for i in range(m)]
    params = (1,)
    if wanted != "any":
        on.append("t.v = ?")
        params = (wanted, 1)
    sql = (f"SELECT * FROM o {'LEFT ' if left else ''}JOIN t "
           f"ON {' AND '.join(on)} WHERE o.g = ?")

    def nested_loop(take):
        """(rows, outer rows read, inner rows read, drained)."""
        rows: list = []
        outer_read = inner_read = 0
        for o in _scan_order(db, txn, (1,), "o"):
            outer_read += 1
            matched = False
            for t in _scan_order(db, txn, o[2:2 + m]):
                inner_read += 1
                if wanted == "any" or \
                        wanted is not None and t[n] == wanted:
                    matched = True
                    rows.append(o + t)
                    if len(rows) == take:
                        return rows, outer_read, inner_read, False
            if left and not matched:
                rows.append(o + (None,) * (n + 2))
                if len(rows) == take:
                    return rows, outer_read, inner_read, False
        return rows, outer_read, inner_read, True

    take = {None: None, "0": 0, "1": 1, "n": len(nested_loop(None)[0])}[limit]
    if take is not None:
        sql += f" LIMIT {take}"
    expected, outer_read, inner_read, drained = \
        nested_loop(take) if take != 0 else ([], 0, 0, False)
    started = take != 0
    reads = {name: rows for name, rows in
             (("o", outer_read), ("t", inner_read)) if rows}
    charged = dict(
        join_ops=int(started), rows_joined=len(expected) if drained else 0,
        index_range_scans=started + (outer_read if m < n else 0),
        pk_lookups=outer_read if m == n else 0,
        # only the outer scan binds partitions; inner lookups charge rows
        partitions_scanned=int(started),
        partitions_pruned=(partitions - 1) * started,
        rows_row_store=reads,
        rows_row_prefix=reads if m < n else
        {name: rows for name, rows in reads.items() if name == "o"},
        full_scans={})

    def observed(stats):
        return dict(_stats(stats), join_ops=stats.join_ops,
                    rows_joined=stats.rows_joined)

    result = conn.execute(sql, params)
    assert result.rows == expected, sql
    assert observed(result.stats) == charged, sql
    ctx = ExecContext(txn, params, partition_map=db.partition_map)
    batches = list(db.prepare(sql).root.execute_batches(ctx, size))
    assert all(0 < len(batch) <= size for batch in batches)
    assert [row for batch in batches for row in batch] == expected
    assert observed(ctx.stats) == charged, sql
    conn.rollback()
