"""Which ``src/repro`` definitions the benchmark and figure traffic never calls.

Runs under ``cProfile``:

* the four ``benchmarks/olxp`` workloads, one smoke pass each
  (``olxp_run.single_run(W, 3, 15.0, False, smoke=True)``; the harness is
  imported, not edited);
* ``python -m repro run`` for subenchmark / fibenchmark / tabenchmark in
  concurrent and hybrid mode, plus chbenchmark in concurrent mode (default
  options; the reports are discarded).

Then it lists every ``def`` in the imported ``repro`` package whose code
object the profiler never saw, grouped by module, with the line count of
each and per-module and overall totals.  A definition nested in one that
was never called is not listed again.  Reached only from tests, from
fault paths or from other figure benchmarks is still "never called" here:
the map says what this traffic exercises, not what is dead.

Point ``PYTHONPATH`` at the ``src/`` to map (about 3 min on a 2-vCPU
machine; not part of the test suite).  ``TRAFFIC.txt`` at the repository
root is the committed record; a change that moves the map regenerates it::

    PYTHONPATH=src python scripts/traffic_map.py > TRAFFIC.txt
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import pstats
import sys
from pathlib import Path

import repro
import repro.cli

OLXP_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "olxp"
OLXP_WORKLOADS = ("retail_lagged", "retail_fresh", "retail_quiet",
                  "banking_hybrid")
CLI_RUNS = tuple((workload, mode)
                 for workload in ("subenchmark", "fibenchmark", "tabenchmark")
                 for mode in ("concurrent", "hybrid")) \
    + (("chbenchmark", "concurrent"),)


def run_traffic() -> set[tuple[str, int, str]]:
    """``(filename, first line, name)`` of every code object called."""
    sys.path.insert(0, str(OLXP_DIR))
    import olxp_run

    profile = cProfile.Profile()
    profile.enable()
    try:
        for name in OLXP_WORKLOADS:
            olxp_run.single_run(name, 3, 15.0, False, smoke=True)
        for workload, mode in CLI_RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                repro.cli.main(["run", "--workload", workload,
                                "--mode", mode])
    finally:
        profile.disable()
    return {(os.path.realpath(filename), line, name)
            for (filename, line, name), (_cc, calls, *_rest)
            in pstats.Stats(profile).stats.items() if calls}


def uncalled_defs(root: Path, called: set) -> dict[str, list]:
    """Module path -> ``[(line, qualified name, line count)]`` of the defs
    under ``root`` the profiler never saw (outermost uncalled def only)."""
    found: dict[str, list] = {}
    for path in sorted(root.rglob("*.py")):
        filename = os.path.realpath(path)
        tree = ast.parse(path.read_text(), filename)
        rows: list = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    # a decorated function's code starts at its first
                    # decorator
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    qualname = f"{prefix}{child.name}"
                    if (filename, first, child.name) in called:
                        visit(child, f"{qualname}.")
                    else:
                        rows.append((child.lineno, qualname,
                                     child.end_lineno - first + 1))
                else:
                    visit(child, prefix)

        visit(tree, "")
        if rows:
            found[str(path.relative_to(root.parent))] = rows
    return found


def main() -> int:
    root = Path(repro.__file__).resolve().parent
    found = uncalled_defs(root, run_traffic())
    total_defs = total_lines = 0
    for module, rows in found.items():
        lines = sum(count for _line, _name, count in rows)
        total_defs += len(rows)
        total_lines += lines
        print(f"{module}: {len(rows)} defs never called, {lines} lines")
        for line, name, count in rows:
            print(f"    {line:5d}  {name}  ({count} lines)")
    print(f"total: {total_defs} defs never called, {total_lines} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
