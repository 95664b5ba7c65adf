"""Benchmark configuration.

Mirrors the paper's XML-driven client configuration (Fig. 2): workload to
use, transaction/query weights, request rates, SUT options, agent mode and
loop mode are all declarative.  Configurations can be built directly, from
dictionaries, or parsed from an XML file with the same vocabulary the paper
describes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from repro.errors import ConfigError

AGENT_MODES = ("sequential", "concurrent", "hybrid")
LOOP_MODES = ("open", "closed")


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run's parameters.

    Rates are requests per second of *simulated* time.  The three agent
    combination modes follow §IV-C of the paper:

    * ``sequential`` — online transactions and analytical queries take turns
      (OLTP stream first, then OLAP);
    * ``concurrent`` — OLTP agents and OLAP agents run simultaneously;
    * ``hybrid`` — hybrid agents send hybrid transactions that perform a
      real-time query in-between an online transaction.
    """

    workload: str = "subenchmark"
    mode: str = "concurrent"
    loop: str = "open"
    # request rates (per second); a zero rate disables that agent class
    oltp_rate: float = 100.0
    olap_rate: float = 0.0
    hybrid_rate: float = 0.0
    # run shape (simulated milliseconds)
    duration_ms: float = 1000.0
    warmup_ms: float = 200.0
    # closed-loop shape
    closed_threads: int = 8
    think_time_ms: float = 0.0
    # data + determinism
    scale: float = 1.0
    seed: int = 42
    with_foreign_keys: bool = False
    # optional per-transaction weight overrides: {"NewOrder": 0.5, ...}
    oltp_weights: dict = field(default_factory=dict)
    olap_weights: dict = field(default_factory=dict)
    hybrid_weights: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in AGENT_MODES:
            raise ConfigError(
                f"mode must be one of {AGENT_MODES}, got {self.mode!r}"
            )
        if self.loop not in LOOP_MODES:
            raise ConfigError(
                f"loop must be one of {LOOP_MODES}, got {self.loop!r}"
            )
        for rate_name in ("oltp_rate", "olap_rate", "hybrid_rate"):
            if getattr(self, rate_name) < 0:
                raise ConfigError(f"{rate_name} must be >= 0")
        if self.duration_ms <= 0:
            raise ConfigError("duration_ms must be positive")
        if self.warmup_ms < 0:
            raise ConfigError("warmup_ms must be >= 0")
        if self.closed_threads <= 0:
            raise ConfigError("closed_threads must be positive")
        if self.scale <= 0:
            raise ConfigError("scale must be positive")

    @property
    def total_ms(self) -> float:
        return self.warmup_ms + self.duration_ms

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "BenchConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_xml(cls, source: str) -> "BenchConfig":
        """Parse an XML configuration.

        Accepts either a path or an XML string.  Vocabulary::

            <olxpbench>
              <workload>subenchmark</workload>
              <mode>hybrid</mode>
              <loop>open</loop>
              <rates oltp="80" olap="1" hybrid="0"/>
              <run duration_ms="1000" warmup_ms="200"/>
              <closed threads="8" think_time_ms="0"/>
              <data scale="1.0" seed="42" with_foreign_keys="false"/>
              <weights kind="oltp"><weight name="NewOrder">0.45</weight></weights>
            </olxpbench>
        """
        text = source
        if "<" not in source:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ConfigError(f"bad XML configuration: {exc}") from exc

        data: dict = {}

        def set_text(key, cast=str):
            node = root.find(key)
            if node is not None and node.text:
                data[key] = cast(node.text.strip())

        set_text("workload")
        set_text("mode")
        set_text("loop")

        rates = root.find("rates")
        if rates is not None:
            for attr, key in (("oltp", "oltp_rate"), ("olap", "olap_rate"),
                              ("hybrid", "hybrid_rate")):
                if attr in rates.attrib:
                    data[key] = float(rates.attrib[attr])
        run = root.find("run")
        if run is not None:
            if "duration_ms" in run.attrib:
                data["duration_ms"] = float(run.attrib["duration_ms"])
            if "warmup_ms" in run.attrib:
                data["warmup_ms"] = float(run.attrib["warmup_ms"])
        closed = root.find("closed")
        if closed is not None:
            if "threads" in closed.attrib:
                data["closed_threads"] = int(closed.attrib["threads"])
            if "think_time_ms" in closed.attrib:
                data["think_time_ms"] = float(closed.attrib["think_time_ms"])
        datanode = root.find("data")
        if datanode is not None:
            if "scale" in datanode.attrib:
                data["scale"] = float(datanode.attrib["scale"])
            if "seed" in datanode.attrib:
                data["seed"] = int(datanode.attrib["seed"])
            if "with_foreign_keys" in datanode.attrib:
                data["with_foreign_keys"] = (
                    datanode.attrib["with_foreign_keys"].lower()
                    in ("1", "true", "yes")
                )
        for weights in root.findall("weights"):
            kind = weights.attrib.get("kind", "oltp")
            key = {"oltp": "oltp_weights", "olap": "olap_weights",
                   "hybrid": "hybrid_weights"}.get(kind)
            if key is None:
                raise ConfigError(f"unknown weights kind {kind!r}")
            table = {}
            for weight in weights.findall("weight"):
                table[weight.attrib["name"]] = float(weight.text.strip())
            data[key] = table
        return cls.from_dict(data)
