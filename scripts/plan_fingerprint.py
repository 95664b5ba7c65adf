"""Structural fingerprints of every plan the four workloads prepare.

Runs each workload on the stock ``TiDBCluster`` (seed 3; concurrent mode,
then hybrid mode where the workload has hybrid programs; 3 000 simulated
ms each), records every SQL text ``Database._prepare`` sees, re-plans each
one and prints one line per statement: the row tree, the vector tree and
the ``FOR UPDATE`` source, as node classes, schemas, join kinds, index
names, pushed predicates and each compiled fn's ``__qualname__`` /
``position``.

A planner refactor that means to build the same plans diffs this output
between two checkouts (about 45 s each on a 2-vCPU machine; not part of
the test suite)::

    PYTHONPATH=src python scripts/plan_fingerprint.py > after.txt
"""

from __future__ import annotations

import dataclasses
import enum
import re
import sys
import types

from repro.core import BenchConfig, OLxPBench
from repro.db import Database
from repro.engines import TiDBCluster
from repro.sql.parser import parse_sql
from repro.sql.plannode import PlanNode
from repro.sql.vectorized import VectorNode
from repro.workloads import make_workload

SEED = 3
DURATION_MS = 3000.0
WORKLOADS = ("subenchmark", "fibenchmark", "tabenchmark", "chbenchmark")
_PLAIN = (type(None), bool, int, float, str, bytes, enum.Enum, re.Pattern)


def render(value, seen: frozenset = frozenset()) -> str:
    """Deterministic structure of one plan value (no ids, no addresses)."""
    if isinstance(value, _PLAIN):
        return repr(value)
    if id(value) in seen:
        return "<cycle>"
    seen = seen | {id(value)}
    if type(value).__module__ == "repro.sql.ast":
        return repr(value)
    if dataclasses.is_dataclass(value):
        # a SelectPlan's vectorized_tables restated its vector tree's scans
        return type(value).__name__ + "(" + ", ".join(
            f"{f.name}={render(getattr(value, f.name), seen)}"
            for f in dataclasses.fields(value)
            if f.name != "vectorized_tables") + ")"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render(v, seen) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(render(v, seen) for v in value)) + "}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{render(k, seen)}: {render(v, seen)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, types.FunctionType):
        parts = [value.__qualname__]
        if hasattr(value, "position"):
            parts.append(f"position={value.position}")
        for name, cell in zip(value.__code__.co_freevars,
                              value.__closure__ or ()):
            try:
                contents = cell.cell_contents
            except ValueError:
                continue
            parts.append(f"{name}={render(contents, seen)}")
        return "fn(" + ", ".join(parts) + ")"
    cls = type(value).__name__
    if cls == "Table":
        return f"Table({value.name})"
    if isinstance(value, (PlanNode, VectorNode)) or cls in (
            "Schema", "PushedPredicate"):
        return cls + "(" + ", ".join(
            f"{name}={render(attr, seen)}"
            for name, attr in sorted(_attributes(value).items())) + ")"
    return f"<{cls}>"


def _attributes(value) -> dict:
    """Instance attributes, whether kept in ``__dict__`` or ``__slots__``."""
    found = dict(getattr(value, "__dict__", {}))
    for klass in type(value).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(value, name):
                found[name] = getattr(value, name)
    return found


def record_statements(workload_name: str) -> tuple[Database, list[str]]:
    """Run one workload and return its database and the SQL it prepared."""
    seen: dict[str, None] = {}
    original = Database._prepare

    def recording(self, sql):
        seen.setdefault(sql, None)
        return original(self, sql)

    Database._prepare = recording
    try:
        engine = TiDBCluster()
        workload = make_workload(workload_name)
        bench = OLxPBench(engine, workload, seed=SEED)
        base = dict(workload=workload_name, duration_ms=DURATION_MS,
                    seed=SEED)
        bench.run(BenchConfig(mode="concurrent", oltp_rate=100.0,
                              olap_rate=10.0, **base))
        if workload.hybrid_transactions():
            bench.run(BenchConfig(mode="hybrid", oltp_rate=0.0,
                                  hybrid_rate=50.0, **base))
    finally:
        Database._prepare = original
    return engine.db, list(seen)


def main() -> int:
    for workload_name in WORKLOADS:
        db, statements = record_statements(workload_name)
        print(f"# {workload_name}: {len(statements)} statements")
        for sql in statements:
            plan = db.planner.plan(parse_sql(sql))
            print(sql)
            print("  " + render(plan))
    return 0


if __name__ == "__main__":
    sys.exit(main())
