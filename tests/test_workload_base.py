"""Workload base utilities: weighted choice, read-only fractions, install."""

from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.errors import WorkloadError
from repro.sim.work import WorkResult
from repro.sql.result import ExecStats
from repro.workloads.base import (
    TransactionProfile,
    read_only_fraction,
    weighted_choice,
)


def profile(name: str, weight: float, read_only: bool = False):
    return TransactionProfile(name, lambda s, r: None, weight=weight,
                              read_only=read_only)


class TestWeightedChoice:
    def test_respects_weights(self):
        profiles = [profile("a", 0.9), profile("b", 0.1)]
        rng = Random(1)
        counts = Counter(weighted_choice(profiles, rng).name
                         for _ in range(2000))
        assert counts["a"] > 5 * counts["b"]

    def test_zero_weight_never_chosen(self):
        profiles = [profile("a", 1.0), profile("b", 0.0)]
        rng = Random(2)
        assert all(weighted_choice(profiles, rng).name == "a"
                   for _ in range(200))

    def test_overrides_replace_weights(self):
        profiles = [profile("a", 1.0), profile("b", 0.0)]
        rng = Random(3)
        names = {weighted_choice(profiles, rng,
                                 {"a": 0.0, "b": 1.0}).name
                 for _ in range(50)}
        assert names == {"b"}

    def test_empty_list_rejected(self):
        with pytest.raises(WorkloadError):
            weighted_choice([], Random(1))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(WorkloadError):
            weighted_choice([profile("a", 0.0)], Random(1))

    def test_negative_weight_rejected(self):
        with pytest.raises(WorkloadError):
            profile("a", -1.0)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
           st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_always_returns_a_member(self, weights, seed):
        profiles = [profile(f"p{i}", w) for i, w in enumerate(weights)]
        chosen = weighted_choice(profiles, Random(seed))
        assert chosen in profiles


class TestReadOnlyFraction:
    def test_weighted_fraction(self):
        profiles = [profile("r", 0.2, read_only=True),
                    profile("w", 0.8)]
        assert read_only_fraction(profiles) == pytest.approx(0.2)

    def test_empty_is_zero(self):
        assert read_only_fraction([]) == 0.0


class TestWorkResult:
    def test_read_only_property(self):
        assert WorkResult(kind="oltp", name="t").read_only
        written = WorkResult(kind="oltp", name="t",
                             write_keys=frozenset({("T", (1,))}))
        assert not written.read_only

    def test_combined_stats_merges_realtime(self):
        stats = ExecStats()
        stats.rows_row_store["a"] = 5
        realtime = ExecStats()
        realtime.rows_row_store["a"] = 7
        realtime.rows_row_store["b"] = 1
        work = WorkResult(kind="hybrid", name="x", stats=stats,
                          realtime_stats=realtime)
        combined = work.combined_stats()
        assert combined.rows_row_store["a"] == 12
        assert combined.rows_row_store["b"] == 1
        # the originals are untouched
        assert stats.rows_row_store["a"] == 5

    def test_combined_stats_without_realtime(self):
        stats = ExecStats()
        stats.pk_lookups = 3
        work = WorkResult(kind="oltp", name="t", stats=stats)
        assert work.combined_stats().pk_lookups == 3


class TestInstall:
    def test_install_builds_schema_and_loads(self):
        from repro.workloads.fibench import Fibenchmark

        db = Database(with_columnar=True)
        workload = Fibenchmark()
        workload.install(db, Random(5), scale=0.01)
        assert db.catalog.table("account").name == "account"
        assert db.storage.store("account").row_count >= 100
        assert db.replication_lag() == 0  # install replicates

    def test_feature_summary_without_db_probes_schema(self):
        from repro.workloads.fibench import Fibenchmark

        summary = Fibenchmark().feature_summary()
        assert summary["tables"] == 3

    def test_profiles_dispatch(self):
        from repro.workloads.fibench import Fibenchmark

        workload = Fibenchmark()
        assert len(workload.profiles("oltp")) == 6
        assert len(workload.profiles("olap")) == 4
        assert len(workload.profiles("hybrid")) == 6
        with pytest.raises(WorkloadError):
            workload.profiles("batch")
