"""The OLxPBench runner: agents, load generation, measurement.

Reproduces the paper's client architecture (Fig. 2) on top of the simulated
cluster: the configuration names a workload and rates, the generator
populates request queues, agents pull requests, the engine's timing model
assigns latency, and the statistics module aggregates everything.

Request generation follows §IV-C:

* **open loop** — requests are emitted at the precise configured rate,
  without waiting for responses (the paper's default; it is what lets the
  interference experiments control request rates exactly);
* **closed loop** — a fixed thread pool where each thread issues its next
  request only after the previous one completes (plus think time).

Agent combination modes:

* ``sequential`` — one closed-loop thread alternates online transactions
  and analytical queries in rate proportion;
* ``concurrent`` — independent OLTP and OLAP agents run simultaneously;
* ``hybrid`` — hybrid agents send hybrid transactions (real-time query
  in-between an online transaction).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from random import Random

from repro.core.config import BenchConfig
from repro.core.session import run_transaction
from repro.core.stats import ClassTable
from repro.engines.base import HTAPCluster
from repro.errors import ConfigError
from repro.sql.result import REPORT_SECTIONS, ExecStats
from repro.workloads.base import Workload, weighted_choice


@dataclass(kw_only=True)
class RunReport(ExecStats, ClassTable):
    """Everything measured during one benchmark run.

    A report *is* the run's merged ``ExecStats`` — every request's counters
    accumulated by ``merge``, readable and assignable as ``report.<counter>``
    — plus the per-class table and what only a run has.
    """

    config: BenchConfig
    engine: str
    lock_wait_ms: float = 0.0
    lock_waits: int = 0
    lock_acquisitions: int = 0
    busy_ms: dict = field(default_factory=dict)        # group -> busy ms
    utilisation: dict = field(default_factory=dict)
    columnar_routed: int = 0
    columnar_refused: int = 0
    # the replica's encoding layer accounting at run end (segments/bytes/
    # compression, None when the engine has no columnar replica)
    encoding: dict | None = None
    # commit-path split over the run (fast path vs two-phase)
    single_partition_commits: int = 0
    multi_partition_commits: int = 0

    @property
    def multi_partition_commit_fraction(self) -> float:
        total = self.single_partition_commits + self.multi_partition_commits
        if total == 0:
            return 0.0
        return self.multi_partition_commits / total

    def _counter_line(self, section: str) -> str:
        cells = " ".join(
            f"{label}={getattr(self, name):{text_format}}"
            for name, label, _csv, text_format in REPORT_SECTIONS[section])
        return f"  {section}: {cells}"

    def summary_text(self) -> str:
        lines = [
            f"engine={self.engine} workload={self.config.workload} "
            f"mode={self.config.mode} loop={self.config.loop} "
            f"window={self.window_ms:.0f}ms",
        ]
        for kind, metrics in sorted(self.classes.items()):
            summary = metrics.latency.summary()
            lines.append(
                f"  {kind:>7}: attempted={metrics.attempted:<6} "
                f"completed={metrics.completed:<6} "
                f"tput={metrics.throughput(self.window_ms):9.2f}/s "
                f"avg={summary.mean:9.2f}ms p95={summary.p95:9.2f}ms "
                f"p99.9={summary.p999:9.2f}ms"
            )
        if self.lock_acquisitions:
            lines.append(
                f"  locks: acquisitions={self.lock_acquisitions} "
                f"waits={self.lock_waits} wait_ms={self.lock_wait_ms:.1f}"
            )
        # one line per declared counter section with a non-zero counter, in
        # declaration order; the replica's encoding accounting rides after
        # the executor's own section, and ``partitions`` closes the report
        # because it carries the run's commit split
        for section, counters in REPORT_SECTIONS.items():
            if section == "partitions":
                continue
            if any(getattr(self, name) for name, *_ in counters):
                lines.append(self._counter_line(section))
            if section == "vectorized" and self.encoding \
                    and self.encoding.get("segments_encoded"):
                lines.append(
                    f"  encoding: segments={self.encoding['segments_encoded']}"
                    f"/{self.encoding['segments_total']} "
                    f"bytes_saved={self.encoding['bytes_saved']} "
                    f"compression={self.encoding['compression_ratio']:.2f}x"
                )
        commits = self.single_partition_commits + self.multi_partition_commits
        if commits:
            lines.append(
                f"{self._counter_line('partitions')} "
                f"multi_partition_commits={self.multi_partition_commits}"
                f"/{commits} "
                f"({self.multi_partition_commit_fraction:.1%})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Arrival:
    time_ms: float
    kind: str


def open_loop_arrivals(rate_per_s: float, kind: str, total_ms: float,
                       phase_ms: float = 0.0) -> list[_Arrival]:
    """Evenly spaced arrivals at the exact configured rate (open loop)."""
    if rate_per_s <= 0:
        return []
    interval = 1000.0 / rate_per_s
    arrivals = []
    t = phase_ms
    while t < total_ms:
        arrivals.append(_Arrival(t, kind))
        t += interval
    return arrivals


class OLxPBench:
    """Benchmark driver: owns one engine + one installed workload."""

    def __init__(self, engine: HTAPCluster, workload: Workload,
                 scale: float = 1.0, with_foreign_keys: bool = False,
                 seed: int = 42):
        if with_foreign_keys and not engine.supports_foreign_keys:
            raise ConfigError(
                f"engine {engine.name!r} does not support foreign keys; "
                "use the FK-free schema variant"
            )
        self.engine = engine
        self.workload = workload
        self.seed = seed
        # per-(kind, seed) parameter streams; reset by every run() so two
        # runs with the same config issue identical request sequences
        self._rngs: dict[tuple, Random] = {}
        workload.install(engine.db, Random(seed), scale,
                         with_foreign_keys=with_foreign_keys)
        self._conn = engine.db.connect()
        self._profiles = {
            "oltp": workload.oltp_transactions(),
            "olap": workload.analytical_queries(),
            "hybrid": workload.hybrid_transactions(),
        }

    # -- public API ---------------------------------------------------------------

    def run(self, config: BenchConfig) -> RunReport:
        """Execute one measurement run; timing state resets, data persists."""
        if config.workload != self.workload.name:
            raise ConfigError(
                f"config is for workload {config.workload!r} but this bench "
                f"was prepared with {self.workload.name!r}"
            )
        self.engine.reset_sim()
        # fresh per-class parameter streams: two runs with the same config
        # and seed must issue identical request sequences
        self._rngs = {}
        # commit-path counters are cumulative on the manager; remember the
        # baseline so the report covers this run only
        manager = self.engine.db.txn_manager
        self._commit_baseline = (manager.single_partition_commits,
                                 manager.multi_partition_commits)
        if config.loop == "open" and config.mode != "sequential":
            return self._run_open_loop(config)
        return self._run_closed_loop(config)

    # -- open loop -------------------------------------------------------------------

    def _class_rates(self, config: BenchConfig) -> dict:
        if config.mode == "hybrid":
            rates = {"hybrid": config.hybrid_rate or config.oltp_rate}
            if config.oltp_rate and config.hybrid_rate:
                rates["oltp"] = config.oltp_rate
            if config.olap_rate:
                rates["olap"] = config.olap_rate
            return rates
        rates = {}
        if config.oltp_rate:
            rates["oltp"] = config.oltp_rate
        if config.olap_rate:
            rates["olap"] = config.olap_rate
        if config.hybrid_rate:
            rates["hybrid"] = config.hybrid_rate
        return rates

    def _run_open_loop(self, config: BenchConfig) -> RunReport:
        rates = self._class_rates(config)
        if not rates:
            raise ConfigError("all request rates are zero")
        arrivals: list[_Arrival] = []
        for i, (kind, rate) in enumerate(sorted(rates.items())):
            phase = (1000.0 / rate) * (i / max(1, len(rates))) if rate else 0
            arrivals.extend(
                open_loop_arrivals(rate, kind, config.total_ms, phase)
            )
        arrivals.sort(key=lambda a: a.time_ms)
        return self._execute(arrivals, config)

    # -- closed loop ------------------------------------------------------------------

    def _run_closed_loop(self, config: BenchConfig) -> RunReport:
        rates = self._class_rates(config)
        if not rates:
            raise ConfigError("all request rates are zero")
        threads = 1 if config.mode == "sequential" else config.closed_threads
        rng = Random(config.seed ^ 0x5EED)
        report = self._new_report(config)
        # each thread: issue, wait for completion, think, repeat
        heap = [(0.0, i) for i in range(threads)]
        heapq.heapify(heap)
        kinds = sorted(rates)
        weights = [rates[k] for k in kinds]
        seq_cycle = itertools.cycle(self._sequential_pattern(rates))
        while heap:
            now, thread = heapq.heappop(heap)
            if now >= config.total_ms:
                continue
            if config.mode == "sequential":
                kind = next(seq_cycle)
            else:
                kind = rng.choices(kinds, weights)[0]
            latency = self._dispatch(now, kind, config, report)
            next_time = now + latency + config.think_time_ms
            heapq.heappush(heap, (next_time, thread))
        self._finalise(report, config)
        return report

    @staticmethod
    def _sequential_pattern(rates: dict) -> list[str]:
        """Deterministic alternation proportional to rates (mode 1, §IV-C)."""
        if not rates:
            return ["oltp"]
        smallest = min(r for r in rates.values() if r > 0)
        pattern = []
        for kind in sorted(rates):
            pattern.extend([kind] * max(1, round(rates[kind] / smallest)))
        return pattern

    # -- shared execution core ------------------------------------------------------------

    def _new_report(self, config: BenchConfig) -> RunReport:
        return RunReport(
            config=config,
            engine=self.engine.name,
            window_ms=config.duration_ms,
        )

    def _execute(self, arrivals: list[_Arrival],
                 config: BenchConfig) -> RunReport:
        report = self._new_report(config)
        for arrival in arrivals:
            self._dispatch(arrival.time_ms, arrival.kind, config, report)
        self._finalise(report, config)
        return report

    def _dispatch(self, now: float, kind: str, config: BenchConfig,
                  report: RunReport) -> float:
        """Execute one request; record metrics; return its latency (ms)."""
        profiles = self._profiles[kind]
        overrides = {
            "oltp": config.oltp_weights,
            "olap": config.olap_weights,
            "hybrid": config.hybrid_weights,
        }[kind]
        rng = self._rng_for(kind, config)
        profile = weighted_choice(profiles, rng, overrides)

        # snapshot before routing: route_analytical ticks the engine too,
        # so merges it triggers belong to this request's attribution
        replica = self.engine.db.columnar
        merges_before = (replica.segments_merged_total()
                         if replica is not None else 0)
        sketch_inv_before = (replica.sketches.invalidated
                             if replica is not None else 0)
        columnar = False
        if kind == "olap":
            columnar = self.engine.route_analytical(now)
            if columnar:
                report.columnar_routed += 1
            else:
                report.columnar_refused += 1

        work = run_transaction(
            self._conn, kind, profile.name, profile.program, rng,
            route_columnar=columnar,
        )
        breakdown = self.engine.account(now, work, columnar)
        latency = breakdown.total
        work.merge_into(report)
        if replica is not None:
            # replica-side events while serving this request (the engine
            # tick replicates + compacts): ordered-compaction merges, and
            # sketch entries dropped by replication kills or compaction
            # re-seals, belong to the run like the statements' own counters
            report.segments_merged += \
                replica.segments_merged_total() - merges_before
            report.sketch_invalidations += \
                replica.sketches.invalidated - sketch_inv_before

        if now >= config.warmup_ms:
            report.observe(kind, profile.name, latency, breakdown,
                           aborted=work.aborted,
                           completed=now + latency <= config.total_ms)
        return latency

    def _rng_for(self, kind: str, config: BenchConfig) -> Random:
        key = (kind, config.seed)
        rng = self._rngs.get(key)
        if rng is None:
            rng = Random(f"{kind}:{config.seed}")
            self._rngs[key] = rng
        return rng

    def _finalise(self, report: RunReport, config: BenchConfig):
        manager = self.engine.db.txn_manager
        base_single, base_multi = getattr(self, "_commit_baseline", (0, 0))
        report.single_partition_commits = \
            manager.single_partition_commits - base_single
        report.multi_partition_commits = \
            manager.multi_partition_commits - base_multi
        locks = self.engine.locks
        report.lock_wait_ms = locks.total_wait_ms
        report.lock_waits = locks.waits
        report.lock_acquisitions = locks.acquisitions
        if self.engine.db.columnar is not None:
            report.encoding = self.engine.db.columnar.encoding_stats()
        report.busy_ms = {
            name: group.busy_ms for name, group in self.engine.groups.items()
        }
        report.utilisation = self.engine.utilisation(config.total_ms)
