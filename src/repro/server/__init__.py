"""Concurrent front end: admission control and the session server.

A ``Server`` drives many closed-loop clients — each on its own
``Connection``, so each with its own MVCC snapshot lifecycle — over one
shared ``Database``; its cooperative scheduler interleaves them
deterministically in simulated time, behind an ``AdmissionController``
that bounds how many analytical requests may be in flight at once.  It
serves fig11's admission-control arms, a repo extension beside the
paper's runner (``core.runner``).
"""

from repro.server.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionStats,
    Ticket,
)
from repro.server.server import (
    ClientSpec,
    Server,
    ServerReport,
    mixed_population,
    query_results,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionStats",
    "Ticket",
    "ClientSpec",
    "Server",
    "ServerReport",
    "mixed_population",
    "query_results",
]
