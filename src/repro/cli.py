"""Command-line interface.

Mirrors how the paper's Java client is driven — a config file names the
workload, rates and SUT options; the tool runs the benchmark and stores the
statistics report::

    python -m repro list
    python -m repro run --workload fibenchmark --engine tidb \\
        --oltp-rate 200 --olap-rate 1 --duration-ms 2000 --out report.txt
    python -m repro run --config config.xml --engine memsql
    python -m repro inspect subenchmark
"""

from __future__ import annotations

import argparse
import sys

from repro.core import BenchConfig, OLxPBench
from repro.core.report import render_markdown, render_text, write_report
from repro.engines import ENGINES, make_engine
from repro.workloads import make_workload, workload_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OLxPBench reproduction: HTAP benchmarking on "
                    "simulated distributed HTAP DBMSs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads and engines")

    inspect = sub.add_parser("inspect",
                             help="show a workload's Table II features")
    inspect.add_argument("workload", choices=workload_names())

    run = sub.add_parser("run", help="run one benchmark configuration")
    run.add_argument("--config", help="XML configuration file (values on "
                                      "the command line override it)")
    run.add_argument("--workload", choices=workload_names())
    run.add_argument("--engine", default="tidb",
                     choices=sorted(ENGINES))
    run.add_argument("--nodes", type=int, default=4)
    run.add_argument("--mode", choices=("sequential", "concurrent",
                                        "hybrid"))
    run.add_argument("--loop", choices=("open", "closed"))
    run.add_argument("--oltp-rate", type=float)
    run.add_argument("--olap-rate", type=float)
    run.add_argument("--hybrid-rate", type=float)
    run.add_argument("--duration-ms", type=float)
    run.add_argument("--warmup-ms", type=float)
    run.add_argument("--scale", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--markdown", action="store_true",
                     help="print a Markdown table instead of text")
    run.add_argument("--out", help="also write the report to this file")
    return parser


_CONFIG_FIELDS = ("workload", "mode", "loop", "oltp_rate", "olap_rate",
                  "hybrid_rate", "duration_ms", "warmup_ms", "scale", "seed")


def _config_from_args(args) -> BenchConfig:
    if args.config:
        config = BenchConfig.from_xml(args.config)
    else:
        config = BenchConfig()
    overrides = {}
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def cmd_list() -> int:
    print("workloads:")
    for name in workload_names():
        workload = make_workload(name)
        print(f"  {name:<14} domain={workload.domain:<8} "
              f"semantically_consistent={workload.semantically_consistent}")
    print("engines:")
    for name in sorted(ENGINES):
        engine = make_engine(name)
        info = engine.info()
        print(f"  {name:<14} columnar={info.has_columnar_store} "
              f"foreign_keys={info.supports_foreign_keys} "
              f"isolation={info.isolation.value}")
    return 0


def cmd_inspect(workload_name: str) -> int:
    workload = make_workload(workload_name)
    summary = workload.feature_summary()
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        if isinstance(value, float):
            value = f"{value:.2f}"
        print(f"{key:<{width}}  {value}")
    for kind, label in (("oltp", "online transactions"),
                        ("olap", "analytical queries"),
                        ("hybrid", "hybrid transactions")):
        names = ", ".join(p.name for p in workload.profiles(kind))
        print(f"{label}: {names or '(none)'}")
    return 0


def cmd_run(args) -> int:
    config = _config_from_args(args)
    engine = make_engine(args.engine, nodes=args.nodes)
    workload = make_workload(config.workload)
    print(f"installing {config.workload} (scale {config.scale}) on "
          f"{engine.name} ({engine.nodes} nodes)...", file=sys.stderr)
    bench = OLxPBench(engine, workload, scale=config.scale,
                      with_foreign_keys=config.with_foreign_keys,
                      seed=config.seed)
    report = bench.run(config)
    if args.markdown:
        print(render_markdown(report))
    else:
        print(render_text(report, per_transaction=True))
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "inspect":
        return cmd_inspect(args.workload)
    if args.command == "run":
        return cmd_run(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
