"""Ablations of three design choices of the simulated cluster.

* open-loop vs closed-loop load generation (the framework supports both;
  open loop keeps the arrival rate exact under slowdowns, closed loop
  self-throttles — §IV-C);
* columnar routing of analytical queries (TiDB's TiFlash replica) vs
  forcing everything onto the row store;
* buffer-pool size: the scan-evict interference channel weakens when the
  pool is large enough to absorb analytical scans.
"""

from conftest import fresh_bench, run_once


def test_ablation_loop_mode(benchmark, series):
    """Open loop holds the configured rate; closed loop self-throttles when
    latency rises, so its throughput tracks 1/latency."""

    def run():
        bench_open = fresh_bench("tidb", "fibenchmark", scale=0.2)
        open_loop = run_once(bench_open, workload="fibenchmark",
                             oltp_rate=500, duration_ms=1500, warmup_ms=300)
        bench_closed = fresh_bench("tidb", "fibenchmark", scale=0.2)
        closed_loop = run_once(bench_closed, workload="fibenchmark",
                               loop="closed", closed_threads=4, oltp_rate=1,
                               duration_ms=1500, warmup_ms=300)
        return open_loop, closed_loop

    open_loop, closed_loop = benchmark.pedantic(run, rounds=1, iterations=1)
    open_tput = open_loop.throughput("oltp")
    closed_tput = closed_loop.throughput("oltp")
    closed_avg = closed_loop.latency("oltp").mean

    series.add("open-loop throughput (tps)", 500, open_tput)
    series.add("closed-loop throughput (tps)", "~threads/latency",
               closed_tput)
    series.add("closed-loop avg (ms)", "-", closed_avg)
    series.emit(benchmark)

    assert abs(open_tput - 500) / 500 < 0.1
    # closed loop: throughput ~= threads / latency (Little's law with L=4)
    predicted = 4 / (closed_avg / 1000.0)
    assert abs(closed_tput - predicted) / predicted < 0.25


def test_ablation_columnar_routing(benchmark, series):
    """Forcing analytics onto the row store (freshness limit 0) must hurt
    OLTP latency; with the TiFlash replica available it must not."""

    def run():
        routed = fresh_bench("tidb", "subenchmark")
        with_replica = run_once(
            routed, workload="subenchmark", oltp_rate=30, olap_rate=1,
            duration_ms=6000, warmup_ms=1500,
            oltp_weights={"NewOrder": 0.0, "Payment": 0.0,
                          "OrderStatus": 0.6, "Delivery": 0.0,
                          "StockLevel": 0.4})
        forced = fresh_bench("tidb", "subenchmark", freshness_limit=-1.0)
        row_only = run_once(
            forced, workload="subenchmark", oltp_rate=30, olap_rate=1,
            duration_ms=6000, warmup_ms=1500,
            oltp_weights={"NewOrder": 0.0, "Payment": 0.0,
                          "OrderStatus": 0.6, "Delivery": 0.0,
                          "StockLevel": 0.4})
        return with_replica, row_only

    with_replica, row_only = benchmark.pedantic(run, rounds=1, iterations=1)
    replica_avg = with_replica.latency("oltp").mean
    forced_avg = row_only.latency("oltp").mean

    series.add("OLTP avg, analytics on TiFlash (ms)", "-", replica_avg)
    series.add("OLTP avg, analytics forced to TiKV (ms)", "-", forced_avg)
    series.add("routing benefit factor", ">1", forced_avg / replica_avg)
    series.emit(benchmark)

    assert with_replica.columnar_routed > 0
    assert row_only.columnar_routed == 0
    assert forced_avg > 1.5 * replica_avg


def test_ablation_buffer_pool(benchmark, series):
    """A pool large enough to absorb analytical scans suppresses the
    scan-evict interference channel."""

    def run():
        small = fresh_bench("tidb", "subenchmark", buffer_pool_pages=512,
                            freshness_limit=-1.0)
        small_report = run_once(
            small, workload="subenchmark", oltp_rate=30, olap_rate=1,
            duration_ms=6000, warmup_ms=1500,
            oltp_weights={"NewOrder": 1.0, "Payment": 0.0,
                          "OrderStatus": 0.0, "Delivery": 0.0,
                          "StockLevel": 0.0})
        large = fresh_bench("tidb", "subenchmark",
                            buffer_pool_pages=8192, freshness_limit=-1.0)
        large_report = run_once(
            large, workload="subenchmark", oltp_rate=30, olap_rate=1,
            duration_ms=6000, warmup_ms=1500,
            oltp_weights={"NewOrder": 1.0, "Payment": 0.0,
                          "OrderStatus": 0.0, "Delivery": 0.0,
                          "StockLevel": 0.0})
        return small_report, large_report

    small_report, large_report = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    small_avg = small_report.latency("oltp").mean
    large_avg = large_report.latency("oltp").mean

    series.add("OLTP avg, 512-page pool (ms)", "-", small_avg)
    series.add("OLTP avg, 8192-page pool (ms)", "-", large_avg)
    series.add("small/large pool latency", ">1", small_avg / large_avg)
    series.emit(benchmark)

    assert small_avg > large_avg
