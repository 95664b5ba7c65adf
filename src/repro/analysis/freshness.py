"""Data-freshness analysis.

The paper's core argument is that the value of data decays with time and
that HTAP systems exist to let analytics see *fresh* transactional data.
This module quantifies freshness for a simulated TiDB-style engine:

* ``replication_lag_records`` — how many committed writes the columnar
  replica has not applied yet;
* ``staleness_ms`` — how long ago the newest replicated write was
  committed, given the write arrival rate;
* ``FreshnessProbe`` — samples lag over a run to produce the freshness
  series behind routing decisions (TiFlash is used only while lag stays
  under the engine's freshness limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def replication_lag_records(engine) -> float:
    """Current replication lag of ``engine`` in log records (0 when the
    engine has no columnar replica)."""
    if engine.replication is None:
        return 0.0
    return engine.replication.lag(engine.db.storage.wal_head)


def staleness_ms(lag_records: float, write_rate_per_ms: float) -> float:
    """Approximate age of the replica's view: how long the current write
    rate needs to produce ``lag_records`` records."""
    if lag_records <= 0:
        return 0.0
    if write_rate_per_ms <= 0:
        return float("inf")
    return lag_records / write_rate_per_ms


@dataclass
class FreshnessSample:
    time_ms: float
    lag_records: float
    columnar_eligible: bool


@dataclass
class FreshnessProbe:
    """Collects lag samples from an engine during a run."""

    engine: object
    samples: list = field(default_factory=list)

    def sample(self, now_ms: float) -> FreshnessSample:
        self.engine.tick(now_ms)
        lag = replication_lag_records(self.engine)
        eligible = self.engine.route_analytical(now_ms)
        record = FreshnessSample(now_ms, lag, eligible)
        self.samples.append(record)
        return record
