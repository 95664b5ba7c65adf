#!/usr/bin/env python3
"""Compare two ``results.json`` files: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both values with the quartiles of
their per-repetition raw values, the ratio B/A (base: A), the metric's bound
and a verdict —

* ``unresolved``: either side's repetition spread (inter-quartile distance
  over median) is wider than the bound, so the runs cannot tell;
* ``worse`` / ``better``: B is worse / better than A by more than the bound;
* ``same``: within the bound.

Exits non-zero on any ``worse``.  Two sets of runs of the same code must
show no ``worse``: that is how the benchmark's own noise is checked.
"""

from __future__ import annotations

import json
import statistics
import sys

from olxp_metrics import CLASS_END_TO_END, END_TO_END, spread

BOUNDS = {**END_TO_END, **CLASS_END_TO_END}


def quartiles(values) -> str:
    if len(values) < 2:
        return "-"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}..{q3:.4g}"


def verdict(name: str, a: dict, b: dict) -> str:
    _unit, better, bound = BOUNDS[name]
    if bound == 0.0:
        # absolute: any move the wrong way is a regression
        worse = b["value"] - a["value"]
        return "worse" if worse > 0 else "better" if worse < 0 else "same"
    if any(len(side["reps"]) > 1 and spread(side["reps"]) > bound
           for side in (a, b)):
        return "unresolved"
    change = b["value"] / a["value"] - 1.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse"
    return "better" if worse < -bound else "same"


def compare(a: dict, b: dict) -> list[tuple]:
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, m in entry["end_to_end"].items():
            n = other["end_to_end"].get(name)
            if n is None or name not in BOUNDS:
                continue
            ratio = f"{n['value'] / m['value']:.3f}" if m["value"] else "-"
            rows.append((workload, name, m["unit"], m["value"],
                         quartiles(m["reps"]), n["value"],
                         quartiles(n["reps"]), ratio, BOUNDS[name][2],
                         verdict(name, m, n)))
    return rows


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(paths[0]) as fa, open(paths[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(f"{'workload':<15} {'metric':<15} {'unit':<5} {'A':>10} "
          f"{'A q1..q3':>18} {'B':>10} {'B q1..q3':>18} {'B/A':>7} "
          f"{'bound':>6} verdict")
    for (workload, name, unit, a, aq, b, bq, ratio, bound, verd) in rows:
        print(f"{workload:<15} {name:<15} {unit:<5} {a:>10.4g} {aq:>18} "
              f"{b:>10.4g} {bq:>18} {ratio:>7} {bound:>6.0%} {verd}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
