"""Benchmark configuration: validation, dict and XML construction."""

import pytest

from repro.core import BenchConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        config = BenchConfig()
        assert config.mode == "concurrent"
        assert config.loop == "open"
        assert config.total_ms == config.warmup_ms + config.duration_ms

    @pytest.mark.parametrize("kwargs", [
        {"mode": "turbo"},
        {"loop": "circular"},
        {"oltp_rate": -1},
        {"duration_ms": 0},
        {"warmup_ms": -1},
        {"closed_threads": 0},
        {"scale": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BenchConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            BenchConfig.from_dict({"tps": 100})


XML = """
<olxpbench>
  <workload>fibenchmark</workload>
  <mode>hybrid</mode>
  <loop>closed</loop>
  <rates oltp="80" olap="1" hybrid="4"/>
  <run duration_ms="2000" warmup_ms="500"/>
  <closed threads="16" think_time_ms="2"/>
  <data scale="0.5" seed="7" with_foreign_keys="true"/>
  <weights kind="oltp">
    <weight name="Balance">0.5</weight>
    <weight name="WriteCheck">0.5</weight>
  </weights>
</olxpbench>
"""


class TestXML:
    def test_full_parse(self):
        config = BenchConfig.from_xml(XML)
        assert config.workload == "fibenchmark"
        assert config.mode == "hybrid"
        assert config.loop == "closed"
        assert (config.oltp_rate, config.olap_rate, config.hybrid_rate) == \
            (80.0, 1.0, 4.0)
        assert config.duration_ms == 2000.0
        assert config.warmup_ms == 500.0
        assert config.closed_threads == 16
        assert config.think_time_ms == 2.0
        assert config.scale == 0.5
        assert config.seed == 7
        assert config.with_foreign_keys is True
        assert config.oltp_weights == {"Balance": 0.5, "WriteCheck": 0.5}

    def test_partial_xml_uses_defaults(self):
        config = BenchConfig.from_xml(
            "<olxpbench><workload>tabenchmark</workload></olxpbench>")
        assert config.workload == "tabenchmark"
        assert config.mode == "concurrent"

    def test_bad_xml_rejected(self):
        with pytest.raises(ConfigError):
            BenchConfig.from_xml("<olxpbench><unclosed></olxpbench>")

    def test_bad_weights_kind_rejected(self):
        with pytest.raises(ConfigError):
            BenchConfig.from_xml(
                '<olxpbench><weights kind="nope">'
                "<weight name=\"A\">1</weight></weights></olxpbench>")

    def test_file_path_accepted(self, tmp_path):
        path = tmp_path / "config.xml"
        path.write_text(XML)
        config = BenchConfig.from_xml(str(path))
        assert config.workload == "fibenchmark"


FK_XML = """
<olxpbench>
  <workload>fibenchmark</workload>
  <rates oltp="100" olap="0" hybrid="0"/>
  <run duration_ms="300" warmup_ms="50"/>
  <data scale="0.02" seed="5" with_foreign_keys="true"/>
</olxpbench>
"""


class TestCLIForeignKeys:
    """``<data with_foreign_keys="true"/>`` must reach the runner: it is
    the paper's semantically consistent schema variant, and the runner is
    what refuses it on an engine without foreign keys."""

    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "config.xml"
        path.write_text(FK_XML)
        return str(path)

    def test_rejected_on_memsql(self, config_path):
        from repro.cli import main

        with pytest.raises(ConfigError, match="foreign keys"):
            main(["run", "--config", config_path, "--engine", "memsql"])

    def test_installs_foreign_keys_on_tidb(self, config_path, monkeypatch,
                                           capsys):
        from repro import cli

        engines = []
        make_engine = cli.make_engine

        def capturing_make_engine(*args, **kwargs):
            engines.append(make_engine(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(cli, "make_engine", capturing_make_engine)
        assert cli.main(["run", "--config", config_path,
                         "--engine", "tidb"]) == 0
        assert "oltp" in capsys.readouterr().out
        tables = engines[0].db.catalog.tables()
        assert any(table.foreign_keys for table in tables)
