"""OLTP/OLAP mutual-interference analysis (paper §VI, control-variate method).

The paper divides transactional/analytical request rates into four
numerically increasing groups and, holding one class's rate fixed, sweeps
the other from zero to peak.  ``InterferenceMatrix`` holds such a grid of
run reports and computes the headline quantities the paper reports:
throughput degradation (e.g. "transactional throughput plummets up to 89%")
and latency inflation (e.g. "average latency increases by up to 17.4x").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import RunReport


@dataclass
class InterferenceCell:
    """One grid point: the rates applied and what was measured."""

    primary_rate: float
    secondary_rate: float
    throughput: float
    avg_latency_ms: float
    p95_latency_ms: float


@dataclass
class InterferenceMatrix:
    """Grid of measurements for one victim class under an aggressor class.

    ``primary`` is the victim whose throughput/latency is observed;
    ``secondary`` is the aggressor whose rate is swept.
    """

    primary: str   # "oltp" | "olap" | "hybrid"
    secondary: str
    cells: list = field(default_factory=list)

    def add(self, report: RunReport, primary_rate: float,
            secondary_rate: float):
        summary = report.latency(self.primary)
        self.cells.append(InterferenceCell(
            primary_rate=primary_rate,
            secondary_rate=secondary_rate,
            throughput=report.throughput(self.primary),
            avg_latency_ms=summary.mean,
            p95_latency_ms=summary.p95,
        ))

    # -- headline quantities ---------------------------------------------------

    def _cells_at_primary(self, primary_rate: float) -> list:
        return [c for c in self.cells if c.primary_rate == primary_rate]

    def throughput_drop(self, primary_rate: float) -> float:
        """Max fractional throughput loss vs the zero-aggressor cell."""
        cells = self._cells_at_primary(primary_rate)
        baseline = next((c for c in cells if c.secondary_rate == 0), None)
        if baseline is None or baseline.throughput <= 0:
            return 0.0
        worst = min(c.throughput for c in cells)
        return 1.0 - worst / baseline.throughput

    def latency_inflation(self, primary_rate: float) -> float:
        """Max avg-latency multiple vs the zero-aggressor cell."""
        cells = self._cells_at_primary(primary_rate)
        baseline = next((c for c in cells if c.secondary_rate == 0), None)
        if baseline is None or baseline.avg_latency_ms <= 0:
            return 1.0
        worst = max(c.avg_latency_ms for c in cells)
        return worst / baseline.avg_latency_ms

    def worst_throughput_drop(self) -> float:
        rates = {c.primary_rate for c in self.cells}
        return max((self.throughput_drop(r) for r in rates), default=0.0)

    def worst_latency_inflation(self) -> float:
        rates = {c.primary_rate for c in self.cells}
        return max((self.latency_inflation(r) for r in rates), default=1.0)

    def rows(self) -> list[tuple]:
        """(primary_rate, secondary_rate, throughput, avg, p95) tuples,
        sorted — the raw series behind Figs. 7-9."""
        return sorted(
            (c.primary_rate, c.secondary_rate, c.throughput,
             c.avg_latency_ms, c.p95_latency_ms)
            for c in self.cells
        )
