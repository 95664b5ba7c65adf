"""Fig. 10 — scale-out behaviour of TiDB and OceanBase (4 -> 16 nodes).

Paper: data size and target request rates rise proportionally with cluster
size.  OceanBase's OLTP latency grows ~20% (avg) / ~24% (p95) from 4 to 16
nodes, TiDB's more than doubles; OLxP latency rises sharply for both; under
the same OLAP pressure TiDB's OLTP latency rises only ~6% vs OceanBase's
~18% (TiDB's decoupled row/columnar storage isolates analytics better).

Clusters hash-partition data one partition per node, so growing the node
count *redistributes* data: remote-warehouse transactions become
multi-partition (two-phase) commits, and columnar scans scatter-gather
across the partitioned replica.  The report includes the measured
multi-partition commit fraction and the partition-parallel OLAP speedup.
"""

from conftest import fresh_bench, run_once
from record import record_bench

from repro.analysis import ScalingStudy

NODE_COUNTS = (4, 8, 16)
BASE_RATE = 200.0
BASE_HYBRID = 8.0
# the isolation comparison uses a read-heavy mix, so the OLAP pressure is
# the only disturbance (and TiDB's replica stays fresh enough for TiFlash)
READ_MIX = {"NewOrder": 0.0, "Payment": 0.0, "OrderStatus": 0.5,
            "Delivery": 0.0, "StockLevel": 0.5}


def measure(engine_name: str) -> tuple[ScalingStudy, dict]:
    study = ScalingStudy(engine=engine_name)
    commit_fractions = {}
    for nodes in NODE_COUNTS:
        factor = nodes / NODE_COUNTS[0]
        bench = fresh_bench(engine_name, "subenchmark",
                            scale=factor, nodes=nodes)
        oltp = run_once(bench, workload="subenchmark",
                        oltp_rate=BASE_RATE * factor,
                        duration_ms=1500, warmup_ms=400)
        study.add(nodes, "oltp", oltp)
        commit_fractions[nodes] = oltp.multi_partition_commit_fraction
        plain_bench = fresh_bench(engine_name, "subenchmark",
                                  scale=factor, nodes=nodes)
        plain = run_once(plain_bench, workload="subenchmark",
                         oltp_rate=BASE_RATE * factor,
                         duration_ms=1500, warmup_ms=400,
                         oltp_weights=READ_MIX)
        study.add(nodes, "oltp_read_mix", plain, request_class="oltp")
        mixed_bench = fresh_bench(engine_name, "subenchmark",
                                  scale=factor, nodes=nodes)
        mixed = run_once(mixed_bench, workload="subenchmark",
                         oltp_rate=BASE_RATE * factor, olap_rate=1,
                         duration_ms=1500, warmup_ms=400,
                         oltp_weights=READ_MIX)
        study.add(nodes, "oltp_with_olap", mixed, request_class="oltp")
        hybrid_bench = fresh_bench(engine_name, "subenchmark",
                                   scale=factor, nodes=nodes)
        hybrid = run_once(hybrid_bench, workload="subenchmark",
                          mode="hybrid", hybrid_rate=BASE_HYBRID * factor,
                          oltp_rate=0, duration_ms=1500, warmup_ms=400)
        study.add(nodes, "hybrid", hybrid)
    return study, {"multi_partition_commit_fraction": commit_fractions}


def scatter_gather_speedup(nodes: int = 16) -> dict:
    """Partition-parallel OLAP on TiDB: partitions=nodes vs partitions=1.

    Same cluster size, same workload, same rates; the only difference is
    whether the columnar replica is partitioned (scatter-gather fan-out)
    or monolithic (serial scan).  Returns end-to-end OLAP latencies plus
    the service-demand speedup of one full-scan aggregate.
    """
    factor = nodes / NODE_COUNTS[0]
    results = {}
    for label, partitions in (("partitioned", nodes), ("monolithic", 1)):
        bench = fresh_bench("tidb", "subenchmark", scale=factor,
                            nodes=nodes, partitions=partitions)
        report = run_once(bench, workload="subenchmark", oltp_rate=0.0,
                          olap_rate=4, duration_ms=1500, warmup_ms=400)
        results[label] = {
            "avg_olap_ms": report.latency("olap").mean,
            "scatter_partitions": report.scatter_partitions,
            "partitions_scanned": report.partitions_scanned,
        }
    results["latency_speedup"] = (results["monolithic"]["avg_olap_ms"]
                                  / results["partitioned"]["avg_olap_ms"])
    return results


def run_fig10():
    return measure("tidb"), measure("oceanbase"), scatter_gather_speedup()


def test_fig10_scalability(benchmark, series):
    (tidb, tidb_extra), (oceanbase, ob_extra), scatter = \
        benchmark.pedantic(run_fig10, rounds=1, iterations=1)

    tidb_oltp = tidb.growth("oltp")
    ob_oltp = oceanbase.growth("oltp")
    tidb_oltp_p95 = tidb.growth("oltp", "p95_latency_ms")
    ob_oltp_p95 = oceanbase.growth("oltp", "p95_latency_ms")
    tidb_hybrid = tidb.growth("hybrid")
    ob_hybrid = oceanbase.growth("hybrid")

    def olap_penalty(study):
        """Latency increase from OLAP pressure at the largest size."""
        plain = study.series("oltp_read_mix")[-1].avg_latency_ms
        mixed = study.series("oltp_with_olap")[-1].avg_latency_ms
        return mixed / plain

    tidb_penalty = olap_penalty(tidb)
    ob_penalty = olap_penalty(oceanbase)

    series.add("TiDB OLTP avg growth 4->16", ">2.0", tidb_oltp)
    series.add("OceanBase OLTP avg growth 4->16", 1.20, ob_oltp)
    series.add("TiDB OLTP p95 growth 4->16", ">2.0", tidb_oltp_p95)
    series.add("OceanBase OLTP p95 growth 4->16", 1.24, ob_oltp_p95)
    series.add("TiDB OLxP growth 4->16", "sharp", tidb_hybrid)
    series.add("OceanBase OLxP growth 4->16", "sharp", ob_hybrid)
    series.add("TiDB latency under OLAP @16", 1.06, tidb_penalty)
    series.add("OceanBase latency under OLAP @16", 1.18, ob_penalty)
    tidb_2pc = tidb_extra["multi_partition_commit_fraction"]
    ob_2pc = ob_extra["multi_partition_commit_fraction"]
    series.add("TiDB multi-partition commit fraction @16", ">0",
               tidb_2pc[NODE_COUNTS[-1]])
    series.add("OceanBase multi-partition commit fraction @16", ">0",
               ob_2pc[NODE_COUNTS[-1]])
    series.add("TiDB scatter-gather OLAP speedup @16", ">1",
               scatter["latency_speedup"])
    series.emit(benchmark)
    benchmark.extra_info["multi_partition_commit_fraction"] = {
        "tidb": tidb_2pc, "oceanbase": ob_2pc,
    }
    benchmark.extra_info["scatter_gather"] = scatter

    record_bench("fig10", {
        "figure": "fig10",
        "workload": "subenchmark",
        "node_counts": list(NODE_COUNTS),
        "oltp_growth_4_to_16": {"tidb": tidb_oltp, "oceanbase": ob_oltp},
        "oltp_p95_growth_4_to_16": {"tidb": tidb_oltp_p95,
                                    "oceanbase": ob_oltp_p95},
        "hybrid_growth_4_to_16": {"tidb": tidb_hybrid,
                                  "oceanbase": ob_hybrid},
        "olap_latency_penalty_at_16": {"tidb": tidb_penalty,
                                       "oceanbase": ob_penalty},
        "multi_partition_commit_fraction": {
            "tidb": {str(k): v for k, v in tidb_2pc.items()},
            "oceanbase": {str(k): v for k, v in ob_2pc.items()},
        },
        "scatter_gather": scatter,
    })

    # shapes: neither scales out well; TiDB degrades more on plain OLTP,
    # but isolates OLAP pressure better than OceanBase
    assert tidb_oltp > ob_oltp > 1.0
    assert tidb_hybrid > 1.2 and ob_hybrid > 1.2
    assert tidb_penalty < ob_penalty
    # growing the cluster redistributes data: remote-partition writes pay
    # two-phase commits, and the partitioned replica speeds up analytics
    assert tidb_2pc[NODE_COUNTS[-1]] > 0
    assert ob_2pc[NODE_COUNTS[-1]] > 0
    assert scatter["partitioned"]["scatter_partitions"] > 1
    assert scatter["latency_speedup"] > 1.02
