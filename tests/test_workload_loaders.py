"""Loaders: population rules, scaling, determinism."""

from random import Random

import pytest

from repro.db import Database
from repro.workloads import make_workload
from repro.workloads.subench.loader import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    ITEMS,
    customer_last_name,
)
from repro.workloads.tabench.loader import sub_nbr_of


def install(name: str, scale: float, seed: int = 21) -> Database:
    db = Database(with_columnar=True)
    make_workload(name).install(db, Random(seed), scale)
    return db


class TestSubenchLoader:
    @pytest.fixture(scope="class")
    def db(self):
        return install("subenchmark", scale=1.0)

    def test_cardinalities(self, db):
        assert db.storage.store("warehouse").row_count == 1
        assert db.storage.store("district").row_count == \
            DISTRICTS_PER_WAREHOUSE
        assert db.storage.store("customer").row_count == \
            DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT
        assert db.storage.store("item").row_count == ITEMS
        assert db.storage.store("stock").row_count == ITEMS
        assert db.storage.store("orders").row_count == \
            db.storage.store("customer").row_count
        assert db.storage.store("history").row_count == \
            db.storage.store("customer").row_count

    def test_order_lines_match_declared_counts(self, db):
        declared = db.query("SELECT SUM(o_ol_cnt) FROM orders").scalar()
        assert db.storage.store("order_line").row_count == declared

    def test_new_order_backlog_fraction(self, db):
        undelivered = db.storage.store("new_order").row_count
        orders = db.storage.store("orders").row_count
        assert 0.2 < undelivered / orders < 0.4

    def test_undelivered_orders_have_null_carrier(self, db):
        mismatches = db.query(
            "SELECT COUNT(*) FROM new_order no "
            "JOIN orders o ON o.o_w_id = no.no_w_id "
            "AND o.o_d_id = no.no_d_id AND o.o_id = no.no_o_id "
            "WHERE o.o_carrier_id IS NOT NULL").scalar()
        assert mismatches == 0

    def test_district_next_o_id_consistent(self, db):
        assert db.query(
            "SELECT MIN(d_next_o_id) FROM district").scalar() == \
            CUSTOMERS_PER_DISTRICT + 1

    def test_warehouse_scale(self):
        db = install("subenchmark", scale=2.0)
        assert db.storage.store("warehouse").row_count == 2
        assert db.storage.store("district").row_count == \
            2 * DISTRICTS_PER_WAREHOUSE

    def test_last_name_syllables(self):
        assert customer_last_name(0) == "BARBARBAR"
        assert customer_last_name(371) == "PRICALLYOUGHT"
        assert customer_last_name(999) == "EINGEINGEING"


class TestTabenchLoader:
    @pytest.fixture(scope="class")
    def db(self):
        return install("tabenchmark", scale=0.05)

    def test_sub_nbr_is_padded_id(self, db):
        row = db.query(
            "SELECT s_id, sub_nbr FROM subscriber WHERE s_id = 17").first()
        assert row == (17, sub_nbr_of(17))
        assert len(row[1]) == 15

    def test_child_tables_reference_subscribers(self, db):
        orphans = db.query(
            "SELECT COUNT(*) FROM access_info WHERE s_id NOT IN "
            "(SELECT s_id FROM subscriber)").scalar()
        assert orphans == 0

    def test_access_info_per_subscriber_bounds(self, db):
        counts = db.query(
            "SELECT s_id, COUNT(*) FROM access_info GROUP BY s_id").rows
        assert all(1 <= n <= 4 for _s, n in counts)

    def test_call_forwarding_times_valid(self, db):
        bad = db.query(
            "SELECT COUNT(*) FROM call_forwarding "
            "WHERE end_time <= start_time").scalar()
        assert bad == 0

    def test_facility_activity_rate(self, db):
        live = db.query(
            "SELECT AVG(is_active) FROM special_facility").scalar()
        assert 0.7 < live < 0.95


class TestChbenchLoader:
    @pytest.fixture(scope="class")
    def db(self):
        return install("chbenchmark", scale=1.0)

    def test_tpch_side_tables(self, db):
        assert db.storage.store("supplier").row_count == 100
        assert db.storage.store("nation").row_count == 25
        assert db.storage.store("region").row_count == 5

    def test_nation_region_linkage(self, db):
        dangling = db.query(
            "SELECT COUNT(*) FROM nation WHERE n_regionkey NOT IN "
            "(SELECT r_regionkey FROM region)").scalar()
        assert dangling == 0

    def test_supplier_nation_linkage(self, db):
        dangling = db.query(
            "SELECT COUNT(*) FROM supplier WHERE su_nationkey NOT IN "
            "(SELECT n_nationkey FROM nation)").scalar()
        assert dangling == 0


class TestDeterminism:
    @pytest.mark.parametrize("name,scale", [("fibenchmark", 0.01),
                                            ("tabenchmark", 0.02)])
    def test_same_seed_same_data(self, name, scale):
        first = install(name, scale, seed=33)
        second = install(name, scale, seed=33)
        for table in first.catalog.table_names():
            rows_a = sorted(first.query(f"SELECT * FROM {table}").rows)
            rows_b = sorted(second.query(f"SELECT * FROM {table}").rows)
            assert rows_a == rows_b, table

    def test_different_seed_different_data(self):
        first = install("fibenchmark", 0.01, seed=1)
        second = install("fibenchmark", 0.01, seed=2)
        a = first.query("SELECT SUM(bal) FROM saving").scalar()
        b = second.query("SELECT SUM(bal) FROM saving").scalar()
        assert a != b
