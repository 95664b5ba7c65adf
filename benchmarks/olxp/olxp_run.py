"""Command line of the OLxP benchmark: one run, or a set of repetitions.

**One run** (``--trace 0|1`` given; the form ``BENCHMARK.json`` names)::

    python3 benchmarks/olxp/run.py --workload retail_fresh --seed 3 \\
        --seconds 15 --trace 0

sets the workload up and measures it in this process (three passes whose
per-request median is the latency), checks its outputs and prints every
metric as ``workload metric value unit`` followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics (the only instrumentation in the engine is the
per-request stamp); ``--trace 1`` makes one pass with the layer wrappers on
and reports the per-layer metrics instead.

**A set** (no ``--trace``)::

    python3 benchmarks/olxp/run.py [--workload NAME]... [--seed 11]
        [--reps 3] [--no-trace] [--smoke] [--out DIR]

runs ``--reps`` such runs per workload, each a fresh subprocess
(``PYTHONHASHSEED=0``, one at a time, round-robin across workloads so slow
drift hits all of them), plus one traced run per workload.  Repetitions
issue the identical request sequence (checked), so the latency of request
*i* is the **median over repetitions of that same request** and the
statistics are taken over that de-noised series; per-repetition raw values
are kept beside every metric.  Results go to ``DIR/results.json`` and
``DIR/trace-<workload>.json``; the exit code is non-zero if any output or
determinism check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from olxp_checks import fingerprint, parity_problems, state_crc
from olxp_metrics import (
    END_TO_END,
    PER_LAYER,
    Request,
    denoise,
    latency_metrics,
    metric,
    program_medians,
    request_weights,
    sequence,
    weighted_mean,
)
from olxp_trace import Tracer, per_layer_metrics
from olxp_workloads import (
    WORKLOADS,
    bench_config,
    nominal_mix,
    run_pass,
)

HERE = Path(__file__).resolve().parent
# passes per untraced run: every latency is a median of this many samples of
# the same request, and setup_s a median of this many set-ups
PASSES = 3
# --smoke measures this fraction of a pass; set-up and warm-up stay whole,
# because that is where each workload's premise is established (the lag that
# shuts the freshness gate builds, the plan cache and sketches fill)
SMOKE_DIVISOR = 20
DEFAULT_SECONDS = 15


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_1min": os.getloadavg()[0],
    }


def single_run(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool = False) -> dict:
    """Set up, measure and check one workload, in this process.

    An untraced run makes ``PASSES`` passes — fresh engine, install, warm-up,
    a third of the measured requests — that issue the identical sequence, so
    request *i*'s latency is the median over the passes of that request.
    A traced run (no end-to-end number comes from it) and a smoke run make
    one pass of the same size; smoke measures a twentieth of it.
    """
    spec = WORKLOADS[name]
    mix = nominal_mix(spec)
    config = bench_config(
        spec, seed, seconds / PASSES / (SMOKE_DIVISOR if smoke else 1))
    tracer = Tracer() if trace else None
    passes = []
    for _ in range(1 if trace or smoke else PASSES):
        if passes:
            passes[-1].release()
        passes.append(run_pass(spec, config, tracer))
    run = passes[-1]
    problems = []
    if any(sequence(p.warmup + p.requests)
           != sequence(run.warmup + run.requests) for p in passes):
        problems.append("determinism: passes with one seed issued "
                        "different requests")
    requests = denoise([p.requests for p in passes])
    warmup = denoise([p.warmup for p in passes])

    metrics = latency_metrics(requests, mix)
    # the warm-up is stratified like the measured phase: it is forty-odd
    # requests, and how many of them are the one heavy shape is luck
    warmup_s = len(warmup) * weighted_mean(
        [r.ms for r in warmup], request_weights(warmup, mix)) / 1e3
    metrics["setup_s"] = metric(
        statistics.median(p.install_s for p in passes) + warmup_s, "s",
        len(passes))
    metrics["pass_wall_s"] = metric(
        statistics.median(p.wall_s for p in passes), "s")
    metrics["host_dilation"] = metric(
        statistics.median(p.dilation for p in passes), "ratio")
    if trace:
        metrics.update(per_layer_metrics(tracer, run,
                                         metrics["ops_per_s"]["value"]))
        metrics.update(program_medians(requests))

    problems += parity_problems(
        run.db, run.bench.workload.analytical_queries(), seed)
    prints = fingerprint(run.report, requests, state_crc(run.db))
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "smoke": smoke, "trace": trace,
        "metrics": metrics,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if r.aborted),
        "problems": problems,
        "fingerprint": prints,
        "requests": [list(r) for r in requests],
        "measured_ns": [run.measured_start_ns, run.measured_end_ns],
        "spans": tracer.spans if trace else None,
    }


def print_metrics(workload: str, metrics: dict):
    for name, m in metrics.items():
        line = f"{workload} {name} {m['value']:.6g} {m['unit']}"
        if "n" in m:
            line += f" n={m['n']}"
        if "reps" in m:
            reps = m["reps"]
            line += (f" reps[min/med/max]={min(reps):.6g}/"
                     f"{statistics.median(reps):.6g}/{max(reps):.6g}")
        print(line)


def driver_line(detail: dict) -> str:
    """The last line of a single run: the declared metrics of its tier."""
    declared = PER_LAYER if detail["trace"] else END_TO_END
    return json.dumps({
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": detail["metrics"][name]["value"],
                           "unit": detail["metrics"][name]["unit"]}
                    for name in declared},
    })


def write_detail(detail: dict, out: Path):
    """``run-<workload>.json`` for the set runner, ``trace-<workload>.json``
    (the spans) when the run was traced."""
    out.mkdir(parents=True, exist_ok=True)
    spans = detail.pop("spans")
    if spans is not None:
        with open(out / f"trace-{detail['workload']}.json", "w") as handle:
            json.dump({"span": ["name", "start_ns", "end_ns", "parent",
                                "request", "extra"],
                       "measured_ns": detail["measured_ns"],
                       "spans": spans}, handle)
    with open(out / f"run-{detail['workload']}.json", "w") as handle:
        json.dump(detail, handle)


# -- a set of repetitions ------------------------------------------------------


def child_run(name: str, args, trace: int, out: Path) -> dict:
    """One single run in a fresh interpreter; returns its detail record."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", str(out)]
    if args.smoke:
        command.append("--smoke")
    record = out / f"run-{name}.json"
    record.unlink(missing_ok=True)      # never read a previous set's record
    done = subprocess.run(command, env={**os.environ, "PYTHONHASHSEED": "0"},
                          stdout=subprocess.DEVNULL)
    if not record.exists():
        return {"workload": name, "fingerprint": None, "problems": [
            f"run exited with {done.returncode} and left no record"]}
    with open(record) as handle:
        return json.load(handle)


def combine(reps: list[dict], traced: dict | None, mix: dict) -> dict:
    """One workload's entry of ``results.json`` from its repetitions.

    Raises nothing: every failed check lands in the entry's ``problems``.
    """
    runs = reps + ([traced] if traced else [])
    problems = [p for run in runs for p in run["problems"]]
    for run in runs[1:]:
        if run["fingerprint"] != runs[0]["fingerprint"]:
            problems.append(
                f"determinism: repetitions of {run['workload']} disagree: "
                f"{runs[0]['fingerprint']} vs {run['fingerprint']}")
    end_to_end = {}
    per_layer = {}
    if not problems:
        series = denoise([[Request(*r) for r in run["requests"]]
                          for run in reps])
        denoised = latency_metrics(series, mix)
        for name, m in reps[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in reps]
            value = denoised[name]["value"] if name in denoised \
                else statistics.median(values)
            end_to_end[name] = {**m, "value": value, "reps": values}
        if traced:
            per_layer = {name: m for name, m in traced["metrics"].items()
                         if name not in end_to_end}
            per_layer.update(program_medians(series))
            per_layer["trace.overhead_ratio"] = metric(
                traced["metrics"]["pass_wall_s"]["value"]
                / end_to_end["pass_wall_s"]["value"], "ratio")
    return {"end_to_end": end_to_end, "per_layer": per_layer,
            "fingerprint": runs[0]["fingerprint"], "problems": problems}


def run_set(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = environment()
    if env["load_1min"] > env["nproc"]:
        print(f"warning: 1-min load average {env['load_1min']:.2f} exceeds "
              f"{env['nproc']} cores; timings will be noisy", file=sys.stderr)
    names = args.workload or list(WORKLOADS)
    reps: dict = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:
            reps[name].append(
                child_run(name, args, 0, out / f"rep{rep + 1}"))
    results = {"env": env, "seed": args.seed, "seconds": args.seconds,
               "reps": args.reps, "smoke": args.smoke, "workloads": {}}
    failed = False
    for name in names:
        traced = None if args.no_trace else child_run(name, args, 1, out)
        entry = combine(reps[name], traced, nominal_mix(WORKLOADS[name]))
        results["workloads"][name] = entry
        print_metrics(name, entry["end_to_end"])
        print_metrics(name, entry["per_layer"])
        for problem in entry["problems"]:
            failed = True
            print(f"FAILED {name}: {problem}", file=sys.stderr)
    with open(out / "results.json", "w") as handle:
        json.dump(results, handle, indent=1)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes the measured phase (fixed request count "
                             "lasting about this long at the defining commit)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single run: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--no-trace", action="store_true",
                        help="set: skip the traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="measured duration / 20, one set-up")
    parser.add_argument("--out", help="directory for results / details "
                        "(set default: benchmarks/olxp/out)")
    args = parser.parse_args(argv)
    if args.trace is None:
        args.out = args.out or str(HERE / "out")
        return run_set(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("a single run takes exactly one --workload")
    detail = single_run(args.workload[0], args.seed, args.seconds,
                        bool(args.trace), args.smoke)
    print_metrics(detail["workload"], detail["metrics"])
    for problem in detail["problems"]:
        print(f"FAILED {detail['workload']}: {problem}", file=sys.stderr)
    line = driver_line(detail)
    if args.out:
        write_detail(detail, Path(args.out))
    print(line)
    return 1 if detail["problems"] else 0
