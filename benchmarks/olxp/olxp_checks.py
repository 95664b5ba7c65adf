"""Output checks: pipeline parity, final-state checksum, run fingerprint.

Nothing absolute is pinned in a file: parity compares the engine's two
pipelines against each other, and the fingerprint is compared between
repetitions of the same code, so a later change that legitimately alters a
loader or a counter is not blocked by files it may not edit.
"""

from __future__ import annotations

import zlib

from olxp_metrics import sequence

from repro.core.session import Session
from repro.server.server import query_results


def rows_crc(rows) -> int:
    """Order-insensitive CRC32 of a row set (sum of per-row CRCs)."""
    return sum(zlib.crc32(repr(tuple(row)).encode()) for row in rows) \
        & 0xFFFFFFFF


def parity_problems(db, profiles, seed: int) -> list[str]:
    """Run every analytical profile on the row pipeline and on the columnar
    replica; report each statement whose row count or CRC differs."""
    db.replicate()
    answers = {}
    for columnar in (False, True):
        with db.connect() as conn:
            answers[columnar] = query_results(Session(conn, columnar),
                                              profiles, seed)
    problems = []
    for name, row_side in answers[False].items():
        col_side = answers[True][name]
        for (sql, row_rows), (_sql, col_rows) in zip(row_side, col_side):
            if (len(row_rows), rows_crc(row_rows)) \
                    != (len(col_rows), rows_crc(col_rows)):
                problems.append(
                    f"parity: {name} differs between pipelines "
                    f"({len(row_rows)} vs {len(col_rows)} rows): {sql}")
    return problems


def state_crc(db) -> int:
    """CRC32 over the final row-store contents of every table."""
    crc = 0
    for name in sorted(db.catalog.table_names()):
        rows = db.query(f"SELECT * FROM {name}").rows
        crc = zlib.crc32(f"{name}:{len(rows)}:{rows_crc(rows)}".encode(), crc)
    return crc


def fingerprint(report, requests, final_state_crc: int) -> dict:
    """Everything that must repeat exactly between repetitions of one
    (workload, seed, size): the request sequence, the deterministic
    counters, the simulated means and the final state."""
    out = {
        "requests": len(requests),
        "request_sequence_crc": zlib.crc32(repr(sequence(requests)).encode()),
        "state_crc": final_state_crc,
    }
    for counter in ("columnar_routed", "vectorized_statements",
                    "segments_merged", "sketches_hit", "values_decoded"):
        out[counter] = getattr(report, counter)
    for kind in sorted(report.classes):
        out[f"sim_{kind}_mean_ms"] = report.latency(kind).mean
    return out
