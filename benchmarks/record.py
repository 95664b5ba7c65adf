"""Canonical benchmark recording: ``BENCH_<name>.json`` at the repo root.

These files seed the repository's recorded perf trajectory: each perf PR
regenerates them, and CI asserts the headline speedups stay above
conservative floors, so a regression on the measured hot paths fails the
build instead of silently eroding.

``record_bench`` writes deterministic JSON (sorted keys, stable layout).
The module doubles as the CI floor checker::

    python benchmarks/record.py check BENCH_fig05.json --min-speedup 5
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_path(name: str) -> Path:
    """Repo-root path of one canonical benchmark record."""
    stem = name if name.startswith("BENCH_") else f"BENCH_{name}"
    if not stem.endswith(".json"):
        stem += ".json"
    return REPO_ROOT / stem


def record_bench(name: str, payload: dict) -> Path:
    """Write one benchmark record canonically; returns the path written."""
    path = bench_path(name)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def classify(speedup: float) -> str:
    """Win >= 1.2x / neutral / regression < 1.0x (SNIPPETS Snippet 3)."""
    if speedup >= 1.2:
        return "win"
    return "regression" if speedup < 1.0 else "neutral"


# per-query engagement gates: the counter that proves the query ran on
# the lever it is in the record for
_FIG05_ENGAGEMENT = {
    "selective_district": ("segments_pruned", "segments_encoded"),
    "sorted_range_scan": ("segments_pruned",),
    # a join-then-fold plan never builds a sketch: a groupjoin folds the
    # probe side through the cache
    "Q5_top_items": ("sketches_built",),
    "full_scan_sketch_grouped": ("sketches_built", "sketches_hit",
                                 "sketch_rows_elided"),
    "full_scan_sketch_q1": ("sketches_built", "sketches_hit",
                            "sketch_rows_elided"),
    "full_scan_sketch_q5": ("sketches_built", "sketches_hit",
                            "sketch_rows_elided"),
}


def check_fig05(path: str, min_speedup: float = 5.0,
                min_sketch_speedup: float = 3.0) -> int:
    """CI gates on the engine-vs-row-oracle record: every query is
    semantically validated (non-empty result, checksum parity with the
    row oracle) and classified win / neutral / regression on its
    columnar-over-row median ratio — any regression fails; the selective
    district query must stay above ``min_speedup``; the warm sketch arm
    must beat the same statement run cold by ``min_sketch_speedup`` on the
    grouped report, the Q1 orders report and Q5's groupjoin (its warm run
    copies the cached state of the sealed order_line run); and every lever's
    engagement counter must be non-zero."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    queries = {q["query"]: q for q in payload["queries"]}
    missing = sorted(set(_FIG05_ENGAGEMENT) - set(queries))
    if missing:
        print(f"FAIL: no {', '.join(missing)} row — regenerate the record "
              "with benchmarks/bench_fig05_realtime_query.py")
        return 1
    for name, entry in queries.items():
        if not entry["rows"]:
            print(f"FAIL: {name} returned no rows")
            return 1
        if {entry["checksum"], entry.get("checksum_warm",
                                         entry["checksum"])} \
                != {entry["checksum_row"]}:
            print(f"FAIL: {name} checksum mismatch — the engine's result "
                  "diverged from the row oracle's")
            return 1
        for counter in _FIG05_ENGAGEMENT.get(name, ()):
            if not entry[counter]:
                print(f"FAIL: {name}: {counter} is zero — the lever did "
                      "not engage")
                return 1
        if "warm_ms" in entry:
            sketch = entry["speedup_warm_vs_cold"]
            print(f"{name} warm-vs-cold speedup: {sketch:.2f}x "
                  f"(floor {min_sketch_speedup:g}x, "
                  f"vs-row {entry['speedup_warm_vs_row']:.1f}x)")
            if sketch < min_sketch_speedup:
                print("FAIL: segment-sketch speedup below the floor")
                return 1
            continue
        speedup = entry["speedup_columnar_vs_row"]
        floor = min_speedup if name == "selective_district" else 1.0
        print(f"{name} columnar-vs-row speedup: {speedup:.2f}x "
              f"({classify(speedup)}, floor {floor:g}x)")
        if speedup < floor:
            print("FAIL: speedup below the conservative floor"
                  if floor > 1.0 else
                  "FAIL: regression — the engine is slower than its row "
                  "oracle")
            return 1
    print("OK")
    return 0


def check_fig11(path: str, min_ab_ratio: float = 2.0,
                max_on_over_baseline: float = 1.5,
                min_chaos_ratio: float = 0.5) -> int:
    """CI floors for the concurrency record: with the analytical flood
    active at >= 16 mixed clients, admission-control-on p99 commit latency
    must be >= ``min_ab_ratio`` lower than admission-control-off AND stay
    within ``max_on_over_baseline`` of the no-flood baseline; every
    partition count must answer the analytical queries byte-for-byte as
    one partition does.  The chaos arm must commit >= ``min_chaos_ratio``
    of the transactions its fault-free run commits (seeded counts, not
    wall-clock rates) with faults demonstrably engaged and crash-recovery
    answers byte-identical."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    points = payload.get("points", [])
    if not points or all(p["clients"] < 16 for p in points):
        print("FAIL: no measurement point at >= 16 clients — regenerate "
              "with benchmarks/bench_fig11_concurrency.py")
        return 1
    for point in points:
        ab = point["p99_off_over_on"]
        vs_base = point["p99_on_over_baseline"]
        print(f"{point['clients']} clients: p99 off/on {ab:.2f}x "
              f"(floor {min_ab_ratio:g}x), on/baseline {vs_base:.2f}x "
              f"(ceiling {max_on_over_baseline:g}x)")
        if ab < min_ab_ratio:
            print("FAIL: admission control no longer cuts the commit tail "
                  "by the recorded floor")
            return 1
        if vs_base > max_on_over_baseline:
            print("FAIL: admission-on commit tail drifted past the "
                  "recorded ceiling over the no-flood baseline")
            return 1
        if not point["admission_on"]["deferred"]["olap"]:
            print("FAIL: the controller deferred nothing — the flood "
                  "never hit the admission path")
            return 1
    parity = payload.get("parity", {})
    if not parity.get("identical"):
        print("FAIL: analytical answers no longer byte-identical across "
              "partition counts")
        return 1
    print(f"parity: identical across partitions {parity['partitions']}")
    chaos = payload.get("chaos")
    if not chaos:
        print("FAIL: no chaos section — regenerate the record with "
              "benchmarks/bench_fig11_concurrency.py")
        return 1
    ratio = chaos["commit_ratio"]
    counters = chaos["faulty"]
    print(f"chaos: oltp commits kept {ratio:.2f}x "
          f"(floor {min_chaos_ratio:g}x), "
          f"faults_injected={counters['faults_injected']} "
          f"degraded_statements={counters['degraded_statements']}")
    if ratio < min_chaos_ratio:
        print("FAIL: injected faults cost more commits than the recorded "
              "floor allows")
        return 1
    if not counters["faults_injected"] or \
            not counters["degraded_statements"]:
        print("FAIL: chaos counters are zero — the fault-injection layer "
              "never engaged")
        return 1
    if not chaos["parity"].get("identical"):
        print("FAIL: crash-recovery answers diverged from the uncrashed "
              "run")
        return 1
    print("OK")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "check":
        if "fig11" in Path(argv[1]).name:
            min_ab_ratio = 2.0
            max_on_over_baseline = 1.5
            min_chaos_ratio = 0.5
            if "--min-ab-ratio" in argv:
                min_ab_ratio = float(argv[argv.index("--min-ab-ratio") + 1])
            if "--max-on-over-baseline" in argv:
                max_on_over_baseline = float(
                    argv[argv.index("--max-on-over-baseline") + 1])
            if "--min-chaos-ratio" in argv:
                min_chaos_ratio = float(
                    argv[argv.index("--min-chaos-ratio") + 1])
            return check_fig11(argv[1], min_ab_ratio, max_on_over_baseline,
                               min_chaos_ratio)
        if "fig10" in Path(argv[1]).name:
            # fig10 records simulated scaling shapes only (asserted by its
            # bench); there is no wall-clock floor to check
            print(f"FAIL: no floor check for {argv[1]}; the fig10 shapes "
                  "are asserted by benchmarks/bench_fig10_scalability.py")
            return 1
        min_speedup = 5.0
        min_sketch_speedup = 3.0
        if "--min-speedup" in argv:
            min_speedup = float(argv[argv.index("--min-speedup") + 1])
        if "--min-sketch-speedup" in argv:
            min_sketch_speedup = float(
                argv[argv.index("--min-sketch-speedup") + 1])
        return check_fig05(argv[1], min_speedup, min_sketch_speedup)
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
