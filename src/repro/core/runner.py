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
from repro.core.stats import ClassMetrics, LatencyCollector
from repro.engines.base import HTAPCluster
from repro.errors import ConfigError
from repro.workloads.base import Workload, weighted_choice


@dataclass
class RunReport:
    """Everything measured during one benchmark run."""

    config: BenchConfig
    engine: str
    window_ms: float
    classes: dict = field(default_factory=dict)       # kind -> ClassMetrics
    per_transaction: dict = field(default_factory=dict)  # name -> collector
    lock_wait_ms: float = 0.0
    lock_waits: int = 0
    lock_acquisitions: int = 0
    busy_ms: dict = field(default_factory=dict)        # group -> busy ms
    utilisation: dict = field(default_factory=dict)
    columnar_routed: int = 0
    columnar_refused: int = 0
    # vectorized-executor counters (aggregated over every request)
    vectorized_statements: int = 0
    batches_scanned: int = 0
    segments_pruned: int = 0
    # encoding-aware execution counters (aggregated over every request)
    segments_encoded: int = 0
    runs_skipped: int = 0
    columns_decoded: int = 0
    values_decoded: int = 0
    # delta–main compaction observability: ordered-merge output segments
    # over the run, delta-overlay rows merge-on-read scans considered,
    # ORDER BYs satisfied by scan order, and code-space grouped batches
    segments_merged: int = 0
    delta_rows_pending: int = 0
    sort_elided: int = 0
    groups_coded: int = 0
    # shared-dictionary counters: join rows probed as global codes and
    # batches grouped against the table-level accumulator
    join_code_probes: int = 0
    groups_global_coded: int = 0
    # plan-cache outcome over the run, plus the replica's encoding layer
    # accounting at run end (segments/bytes/compression, None when the
    # engine has no columnar replica)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    plan_cache_contention: int = 0
    encoding: dict | None = None
    # partition counters (aggregated over every request)
    partitions_scanned: int = 0
    partitions_pruned: int = 0
    partial_aggregates: int = 0
    # worker-pool counters: pool width requests ran under (max over the
    # run; 0 = sequential), ordered-gather blocking time, and background
    # compactions scheduled off the query path
    pool_workers: int = 0
    gather_wait_ms: float = 0.0
    bg_compactions: int = 0
    # fault counters (aggregated over every request): injected faults,
    # faults survived via retry/fallback/degraded routing, and statements
    # the circuit breaker degraded to the row pipeline
    faults_injected: int = 0
    faults_recovered: int = 0
    degraded_statements: int = 0
    # segment-sketch counters (aggregated over every request): cached
    # whole-segment aggregate partials built / served, input rows elided
    # by cache hits, and cache entries dropped by kills or compactions
    sketches_built: int = 0
    sketches_hit: int = 0
    sketch_rows_elided: int = 0
    sketch_invalidations: int = 0
    # commit-path split over the run (fast path vs two-phase)
    single_partition_commits: int = 0
    multi_partition_commits: int = 0

    @property
    def multi_partition_commit_fraction(self) -> float:
        total = self.single_partition_commits + self.multi_partition_commits
        if total == 0:
            return 0.0
        return self.multi_partition_commits / total

    def metrics(self, kind: str) -> ClassMetrics:
        return self.classes.setdefault(kind, ClassMetrics())

    def throughput(self, kind: str) -> float:
        if kind not in self.classes:
            return 0.0
        return self.classes[kind].throughput(self.window_ms)

    def latency(self, kind: str):
        if kind not in self.classes:
            return LatencyCollector().summary()
        return self.classes[kind].latency.summary()

    def transaction_latency(self, name: str):
        collector = self.per_transaction.get(name)
        return collector.summary() if collector else LatencyCollector().summary()

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
        if self.vectorized_statements:
            lines.append(
                f"  vectorized: statements={self.vectorized_statements} "
                f"batches={self.batches_scanned} "
                f"segments_pruned={self.segments_pruned} "
                f"segments_encoded={self.segments_encoded} "
                f"runs_skipped={self.runs_skipped}"
            )
        if self.encoding and self.encoding.get("segments_encoded"):
            lines.append(
                f"  encoding: segments={self.encoding['segments_encoded']}"
                f"/{self.encoding['segments_total']} "
                f"bytes_saved={self.encoding['bytes_saved']} "
                f"compression={self.encoding['compression_ratio']:.2f}x"
            )
        if self.segments_merged or self.sort_elided \
                or self.delta_rows_pending or self.groups_coded:
            lines.append(
                f"  delta-main: segments_merged={self.segments_merged} "
                f"delta_rows_pending={self.delta_rows_pending} "
                f"sort_elided={self.sort_elided} "
                f"groups_coded={self.groups_coded}"
            )
        if self.join_code_probes or self.groups_global_coded:
            lines.append(
                f"  shared dicts: join_code_probes={self.join_code_probes} "
                f"groups_global_coded={self.groups_global_coded}"
            )
        if self.plan_cache_hits or self.plan_cache_misses:
            lines.append(
                f"  plan cache: hits={self.plan_cache_hits} "
                f"misses={self.plan_cache_misses} "
                f"evictions={self.plan_cache_evictions} "
                f"contention={self.plan_cache_contention}"
            )
        if self.pool_workers or self.bg_compactions:
            lines.append(
                f"  pool: workers={self.pool_workers} "
                f"gather_wait_ms={self.gather_wait_ms:.1f} "
                f"bg_compactions={self.bg_compactions}"
            )
        if self.faults_injected or self.faults_recovered \
                or self.degraded_statements:
            lines.append(
                f"  faults: injected={self.faults_injected} "
                f"recovered={self.faults_recovered} "
                f"degraded_statements={self.degraded_statements}"
            )
        if self.sketches_built or self.sketches_hit \
                or self.sketch_invalidations:
            lines.append(
                f"  sketches: built={self.sketches_built} "
                f"hit={self.sketches_hit} "
                f"rows_elided={self.sketch_rows_elided} "
                f"invalidations={self.sketch_invalidations}"
            )
        commits = self.single_partition_commits + self.multi_partition_commits
        if commits:
            lines.append(
                f"  partitions: scanned={self.partitions_scanned} "
                f"pruned={self.partitions_pruned} "
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
        bg_before = self.engine.db.bg_compactions_total
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
        exec_stats = work.combined_stats()
        if replica is not None:
            # ordered-compaction merges triggered while serving this
            # request (the engine tick replicates + compacts): attribute
            # them to the statement window that caused them
            exec_stats.segments_merged += \
                replica.segments_merged_total() - merges_before
            # sketch invalidations are replica-side events (kills during
            # replication, compaction re-seals): attribute them to the
            # request whose engine tick caused them, like the merges
            exec_stats.sketch_invalidations += \
                replica.sketches.invalidated - sketch_inv_before
        # background compactions the engine scheduled while serving this
        # request, attributed the same way as the merges above
        exec_stats.bg_compactions += \
            self.engine.db.bg_compactions_total - bg_before
        report.batches_scanned += exec_stats.batches_scanned
        report.segments_pruned += exec_stats.segments_pruned
        report.vectorized_statements += exec_stats.vectorized_statements
        report.segments_encoded += exec_stats.segments_encoded
        report.runs_skipped += exec_stats.runs_skipped
        report.columns_decoded += exec_stats.columns_decoded
        report.values_decoded += exec_stats.values_decoded
        report.delta_rows_pending += exec_stats.delta_rows_pending
        report.sort_elided += exec_stats.sort_elided
        report.groups_coded += exec_stats.groups_coded
        report.join_code_probes += exec_stats.join_code_probes
        report.groups_global_coded += exec_stats.groups_global_coded
        report.segments_merged += exec_stats.segments_merged
        report.plan_cache_hits += exec_stats.plan_cache_hits
        report.plan_cache_misses += exec_stats.plan_cache_misses
        report.plan_cache_evictions += exec_stats.plan_cache_evictions
        report.plan_cache_contention += exec_stats.plan_cache_contention
        report.partitions_scanned += exec_stats.partitions_scanned
        report.partitions_pruned += exec_stats.partitions_pruned
        report.partial_aggregates += exec_stats.partial_aggregates
        report.pool_workers = max(report.pool_workers,
                                  exec_stats.pool_workers)
        report.gather_wait_ms += exec_stats.gather_wait_ms
        report.bg_compactions += exec_stats.bg_compactions
        report.faults_injected += exec_stats.faults_injected
        report.faults_recovered += exec_stats.faults_recovered
        report.degraded_statements += exec_stats.degraded_statements
        report.sketches_built += exec_stats.sketches_built
        report.sketches_hit += exec_stats.sketches_hit
        report.sketch_rows_elided += exec_stats.sketch_rows_elided
        report.sketch_invalidations += exec_stats.sketch_invalidations

        measured = now >= config.warmup_ms
        if measured:
            metrics = report.metrics(kind)
            metrics.attempted += 1
            if work.aborted:
                metrics.aborted += 1
            elif now + latency <= config.total_ms:
                metrics.completed += 1
            metrics.latency.add(latency)
            metrics.queue_wait_ms += breakdown.queue_wait
            metrics.lock_wait_ms += breakdown.lock_wait
            metrics.service_ms += breakdown.service
            metrics.io_ms += breakdown.io
            collector = report.per_transaction.get(profile.name)
            if collector is None:
                collector = LatencyCollector(profile.name)
                report.per_transaction[profile.name] = collector
            collector.add(latency)
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
