"""repro — a full reproduction of OLxPBench (ICDE 2022).

Layers, bottom-up:

* ``repro.catalog`` / ``repro.storage`` / ``repro.txn`` / ``repro.sql`` /
  ``repro.db`` — an embedded relational engine (MVCC row store, columnar
  replica, SQL front end).
* ``repro.sim`` — discrete-event cluster simulator and per-engine cost
  models; all benchmark timings are simulated, not wall-clock.
* ``repro.engines`` — TiDB-like, MemSQL-like and OceanBase-like HTAP
  clusters built on the two layers above.
* ``repro.core`` — the OLxPBench framework: config, agents, open/closed-loop
  generators, hybrid transactions, statistics, reports.
* ``repro.workloads`` — subenchmark, fibenchmark, tabenchmark and the
  CH-benCHmark baseline.
* ``repro.analysis`` — lock-overhead, interference and scaling tools.
"""

__version__ = "1.0.0"

from repro.db import Database
from repro.errors import ReproError

__all__ = ["Database", "ReproError", "__version__"]
