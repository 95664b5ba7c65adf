"""Error hierarchy contracts and schema-variant behaviour."""

import pytest

from repro import errors


class TestErrorHierarchy:
    def test_everything_is_repro_error(self):
        for name in ("CatalogError", "SQLError", "SQLSyntaxError",
                     "BindError", "PlanError", "ExecutionError",
                     "IntegrityError", "TransactionError",
                     "TransactionAborted", "WriteConflictError",
                     "ConnectionStateError", "ConfigError", "WorkloadError",
                     "UnsupportedFeatureError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_aborts_are_transaction_errors(self):
        assert issubclass(errors.WriteConflictError,
                          errors.TransactionAborted)
        assert issubclass(errors.TransactionAborted,
                          errors.TransactionError)

    def test_retry_protocol_catchable_as_one_type(self):
        """Drivers retry on TransactionAborted; a write conflict qualifies."""
        with pytest.raises(errors.TransactionAborted):
            raise errors.WriteConflictError("x")

    def test_syntax_error_carries_position(self):
        err = errors.SQLSyntaxError("bad", position=17)
        assert err.position == 17


class TestSchemaVariant:
    def test_workload_variants_differ_only_in_fks(self):
        """Both shipped schema flavours must define identical tables,
        columns and indexes — foreign keys are the only difference."""
        from repro.db import Database
        from repro.workloads import make_workload

        for name in ("subenchmark", "fibenchmark"):
            workload = make_workload(name)
            plain = Database()
            plain.run_script(workload.schema_script(with_foreign_keys=False))
            with_fk = Database()
            with_fk.run_script(workload.schema_script(with_foreign_keys=True))
            assert plain.catalog.summary() == with_fk.catalog.summary()
            for table in plain.catalog.tables():
                twin = with_fk.catalog.table(table.name)
                assert table.column_names == twin.column_names
                assert table.primary_key == twin.primary_key
                assert not table.foreign_keys
            assert any(t.foreign_keys for t in with_fk.catalog.tables())
