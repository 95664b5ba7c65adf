"""Smoke test of the OLxP benchmark (tier-1; ~33 s, in-process, smoke sizes).

Checks the harness, not the engine's speed: every declared metric is
emitted, the output checks pass and fail when they should, and the
engagement facts that justify each workload hold.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import olxp_run
import pytest
from olxp_metrics import END_TO_END, PER_LAYER
from olxp_trace import layer_times
from olxp_workloads import WORKLOADS, nominal_mix

SECONDS = olxp_run.DEFAULT_SECONDS
CLASSES = {"retail_lagged": ("oltp", "olap"), "retail_fresh": ("oltp", "olap"),
           "retail_quiet": ("olap",), "banking_hybrid": ("hybrid",)}


@pytest.fixture(scope="module")
def runs():
    """One traced smoke run per workload: a traced run carries both tiers
    (its end-to-end numbers are never reported, only their names matter)."""
    return {name: olxp_run.single_run(name, 11, SECONDS, trace=True,
                                      smoke=True)
            for name in WORKLOADS}


def test_benchmark_json_declares_what_the_code_emits():
    declared = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/olxp"]
    assert declared["command"] == ["python3", "benchmarks/olxp/run.py"]
    assert declared["run_seconds"] == SECONDS
    assert {w["name"]: w["why"] for w in declared["workloads"]} \
        == {name: spec.why for name, spec in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in declared["per_layer"]} == PER_LAYER


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    for name, run in runs.items():
        metrics = run["metrics"]
        for metric, (unit, _better, _bound) in END_TO_END.items():
            assert metrics[metric]["unit"] == unit, (name, metric)
            assert metrics[metric]["value"] > 0, (name, metric)
        for metric, (unit, _better) in PER_LAYER.items():
            assert metrics[metric]["unit"] == unit, (name, metric)
        for kind in CLASSES[name]:
            assert metrics[f"{kind}_mean_ms"]["value"] > 0
            assert metrics[f"{kind}_p95_ms"]["unit"] == "ms"
        assert metrics["fail_ratio"]["value"] == 0
        line = json.loads(olxp_run.driver_line(run))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(PER_LAYER)
        assert set(json.loads(olxp_run.driver_line({**run, "trace": False}))
                   ["metrics"]) == set(END_TO_END)


def test_output_checks_pass_and_self_times_partition_the_wall(runs):
    for name, run in runs.items():
        assert run["problems"] == [], name
        assert run["attempted"] > 0 and run["failed"] == 0
        start, end = run["measured_ns"]
        layers = layer_times(run["spans"], start, end)
        assert sum(layer.self_ns for layer in layers.values()) == end - start
        assert layers["core.run"].self_ns < 0.2 * (end - start), name


def test_each_workload_engages_the_layers_it_is_there_for(runs):
    def routed(name):
        return runs[name]["metrics"]["engines.columnar_routed_ratio"]["value"]

    # the gate shuts during warm-up: 4 requests get through, whatever the
    # run's length (4 of 220 at full size), and none of them is measured
    assert routed("retail_lagged") <= 0.15
    assert runs["retail_lagged"]["metrics"]["sql.vec_select_share"][
        "value"] == 0
    assert routed("retail_fresh") == 1.0
    assert routed("retail_quiet") == 1.0
    assert runs["retail_fresh"]["fingerprint"]["vectorized_statements"] > 0
    assert runs["retail_quiet"]["metrics"]["storage.sketch_hit_ratio"][
        "value"] > 0.5
    assert runs["banking_hybrid"]["fingerprint"]["vectorized_statements"] == 0
    # the controlled pair issues identical requests; only the route differs
    assert runs["retail_lagged"]["fingerprint"]["request_sequence_crc"] \
        == runs["retail_fresh"]["fingerprint"]["request_sequence_crc"]


def test_same_seed_repeats_exactly_and_checks_fail_when_broken(
        runs, tmp_path, monkeypatch):
    name = "banking_hybrid"
    first = runs[name]
    again = olxp_run.single_run(name, 11, SECONDS, trace=False, smoke=True)
    other = olxp_run.single_run(name, 12, SECONDS, trace=False, smoke=True)
    assert again["fingerprint"] == first["fingerprint"]
    assert other["fingerprint"]["state_crc"] \
        != first["fingerprint"]["state_crc"]

    mix = nominal_mix(WORKLOADS[name])
    entry = olxp_run.combine([again, again], first, mix)
    assert entry["problems"] == []
    assert entry["end_to_end"]["ops_per_s"]["reps"] \
        == [again["metrics"]["ops_per_s"]["value"]] * 2
    assert "trace.overhead_ratio" in entry["per_layer"]

    perturbed = copy.deepcopy(again)
    perturbed["fingerprint"]["values_decoded"] += 1
    assert olxp_run.combine([again, perturbed], None, mix)["problems"]

    # the command itself exits non-zero on a perturbed repetition
    replies = iter([again, perturbed])
    monkeypatch.setattr(olxp_run, "child_run",
                        lambda *_args: next(replies))
    argv = ["--workload", name, "--reps", "2", "--no-trace", "--smoke",
            "--out", str(tmp_path)]
    assert olxp_run.main(argv) == 1
    replies = iter([again, again])
    assert olxp_run.main(argv) == 0
    assert json.loads((tmp_path / "results.json").read_text())[
        "workloads"][name]["end_to_end"]["setup_s"]["unit"] == "s"
