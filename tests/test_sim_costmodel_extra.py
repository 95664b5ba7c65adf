"""Additional cost-model contracts behind the per-engine calibrations."""

import pytest

from repro.sim import (
    MEMSQL_COSTS,
    OCEANBASE_COSTS,
    TIDB_COSTS,
    CostModel,
    CostParams,
)
from repro.sql.result import ExecStats


def stats_with(**kwargs) -> ExecStats:
    stats = ExecStats()
    for key, value in kwargs.items():
        setattr(stats, key, value)
    return stats


class TestCalibrationContracts:
    """The inequalities between the shipped engine calibrations that the
    paper's findings depend on (see the grounding comment above
    ``TIDB_COSTS`` in ``sim/costmodel.py``)."""

    def test_memsql_point_path_cheapest(self):
        assert MEMSQL_COSTS.pk_lookup < OCEANBASE_COSTS.pk_lookup
        assert MEMSQL_COSTS.pk_lookup < TIDB_COSTS.pk_lookup

    def test_memsql_misses_effectively_free(self):
        assert MEMSQL_COSTS.page_miss_penalty < 0.01
        assert TIDB_COSTS.page_miss_penalty > 100 * \
            MEMSQL_COSTS.page_miss_penalty

    def test_only_tidb_pays_columnar_dispatch(self):
        assert TIDB_COSTS.columnar_stmt_overhead > 0
        assert MEMSQL_COSTS.columnar_stmt_overhead == 0
        assert OCEANBASE_COSTS.columnar_stmt_overhead == 0

    def test_only_memsql_amplifies_hybrid_joins_strongly(self):
        assert MEMSQL_COSTS.hybrid_join_amplification > 5
        assert TIDB_COSTS.hybrid_join_amplification == 1.0

    def test_columnar_scan_much_cheaper_per_row_on_tidb(self):
        assert TIDB_COSTS.row_scan_columnar < \
            TIDB_COSTS.row_scan_row_store / 5

    def test_oceanbase_has_no_columnar_advantage(self):
        assert OCEANBASE_COSTS.row_scan_columnar == \
            OCEANBASE_COSTS.row_scan_row_store

    def test_scan_pages_cheaper_than_point_misses_everywhere(self):
        for params in (TIDB_COSTS, MEMSQL_COSTS, OCEANBASE_COSTS):
            assert params.scan_page_cost <= params.page_miss_penalty


class TestCostMonotonicity:
    @pytest.fixture
    def model(self):
        return CostModel(CostParams())

    def test_cost_monotone_in_every_counter(self, model):
        base = model.statement_cost(ExecStats()).cpu
        for field, value in (
                ("pk_lookups", 10), ("index_lookups", 10),
                ("rows_joined", 1000), ("join_ops", 5),
                ("sort_rows", 1000), ("agg_input_rows", 1000),
                ("subqueries", 3)):
            stats = stats_with(**{field: value})
            cost = model.statement_cost(stats).cpu
            assert cost >= base, field

    def test_writes_cost_more_than_reads(self, model):
        reads = stats_with(pk_lookups=10)
        writes = stats_with(pk_lookups=10)
        writes.writes["t"] = 10
        assert model.statement_cost(writes).cpu > \
            model.statement_cost(reads).cpu

    def test_columnar_overhead_only_when_used(self):
        model = CostModel(CostParams(columnar_stmt_overhead=50.0))
        plain = model.statement_cost(ExecStats()).cpu
        columnar = ExecStats()
        columnar.used_columnar = True
        assert model.statement_cost(columnar).cpu == \
            pytest.approx(plain + 50.0)

    def test_hybrid_amplification_inert_outside_hybrid_context(self):
        model = CostModel(CostParams(hybrid_join_amplification=9.0))
        stats = stats_with(rows_joined=1000, join_ops=2)
        normal = model.statement_cost(stats, hybrid_context=False).cpu
        reference = CostModel(CostParams()).statement_cost(
            stats, hybrid_context=False).cpu
        assert normal == pytest.approx(reference)
