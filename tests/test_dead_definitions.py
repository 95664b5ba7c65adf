"""Every function, method and class in ``src/repro`` has a caller outside
the tests.

A definition whose name appears nowhere in ``src/``, ``benchmarks/``,
``examples/`` or ``scripts/`` except on its own definition line is reached
only by tests: a deletion left it behind.  Delete it with its tests, or give
it a caller.  The match is by word, so prose, package re-exports and a
second definition of the same name all count as references; after deleting
a wrapper class, read the wrapped class's methods by hand.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: definitions kept on purpose although only tests reach them
KEPT = {
    "Database.replication_lag": "public API: the replica's lag in records",
    "Connection.in_transaction": "public API: the autocommit tests read it",
    "TableStore.version_count": "MVCC API the property tests drive",
    "TableStore.garbage_collect": "MVCC API the property tests drive",
    "CHBenchmark.query_table_footprint":
        "the data behind the stitch-schema tests (paper §III-B2)",
}


def _definitions(tree: ast.AST, scope: str = ""):
    """``(qualified name, name, line)`` of every def and class, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualified = f"{scope}{node.name}"
            yield qualified, node.name, node.lineno
            yield from _definitions(node, f"{qualified}.")
        else:
            yield from _definitions(node, scope)


def test_every_definition_has_a_caller_outside_the_tests():
    files = [path for top in ("src", "benchmarks", "examples", "scripts")
             for path in sorted((ROOT / top).rglob("*.py"))]
    words = Counter(word for path in files
                    for word in re.findall(r"\w+", path.read_text()))
    unreached = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for qualified, name, line in _definitions(ast.parse(text)):
            if name.startswith("__"):
                continue
            own = re.findall(r"\w+", lines[line - 1]).count(name)
            if words[name] == own:
                unreached[qualified] = f"{path.relative_to(ROOT)}:{line}"
    extra = {name: where for name, where in unreached.items()
             if name not in KEPT}
    assert not extra, f"definitions only tests reach: {extra}"
    # a kept name that gained a caller leaves the list
    assert set(unreached) == set(KEPT)
