"""Report rendering: the statistics module's output formats.

The paper's client stores min/max/medium/90th/95th/99.9th/99.99th
percentile latencies to a user-specified file; this module renders a
``RunReport`` as aligned text, Markdown, or CSV rows, and can render an
``InterferenceMatrix`` as the rate-grid tables behind Figs. 7-9.

No counter is named here: the CSV's counter columns (like the text
report's counter sections, ``RunReport.summary_text``) are derived from
the ``ExecStats`` field declarations in ``sql/result.py``.
"""

from __future__ import annotations

import csv
import io

from repro.core.runner import RunReport
from repro.core.stats import LatencySummary
from repro.sql.result import REPORT_SECTIONS

_LATENCY_COLUMNS = ("count", "min", "mean", "median", "p90", "p95", "p99",
                    "p99.9", "p99.99", "max", "std")


def _latency_row(summary: LatencySummary) -> list:
    return [
        summary.count, summary.minimum, summary.mean, summary.median,
        summary.p90, summary.p95, summary.p99, summary.p999, summary.p9999,
        summary.maximum, summary.std,
    ]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_text(report: RunReport, per_transaction: bool = False) -> str:
    """Aligned plain-text report: ``summary_text`` (which owns every counter
    section) plus the per-transaction latencies and node utilisation."""
    lines = [report.summary_text()]
    if per_transaction and report.per_transaction:
        lines.append("  per-transaction latency (ms):")
        width = max(len(name) for name in report.per_transaction)
        for name in sorted(report.per_transaction):
            summary = report.transaction_latency(name)
            lines.append(
                f"    {name:<{width}}  n={summary.count:<6} "
                f"avg={summary.mean:9.2f}  p95={summary.p95:9.2f}  "
                f"p99.9={summary.p999:9.2f}"
            )
    if report.utilisation:
        cells = "  ".join(f"{group}={value:.1%}"
                          for group, value in
                          sorted(report.utilisation.items()))
        lines.append(f"  utilisation: {cells}")
    return "\n".join(lines)


def render_markdown(report: RunReport) -> str:
    """Markdown table: one row per request class."""
    header = ["class", "throughput/s", *_LATENCY_COLUMNS]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for kind in sorted(report.classes):
        summary = report.latency(kind)
        row = [kind, f"{report.throughput(kind):.2f}",
               *(_format_cell(v) for v in _latency_row(summary))]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _counter_columns() -> list:
    """``(CSV column, report attribute)`` for every reported counter, in
    declaration order; the run-level two-phase commit count rides with the
    partition counters, as it does in the text report."""
    columns = []
    for section, counters in REPORT_SECTIONS.items():
        columns += [(csv_name, name) for name, _label, csv_name, _ in counters]
        if section == "partitions":
            columns.append(("multi_partition_commits",
                            "multi_partition_commits"))
    return columns


_COUNTER_COLUMNS = _counter_columns()


def render_csv(reports: list[RunReport]) -> str:
    """One CSV row per (run, class): the raw series behind the figures."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([
        "workload", "engine", "mode", "loop", "oltp_rate", "olap_rate",
        "hybrid_rate", "class", "throughput", *_LATENCY_COLUMNS,
        *(column for column, _ in _COUNTER_COLUMNS),
    ])
    for report in reports:
        config = report.config
        counters = [getattr(report, name) for _, name in _COUNTER_COLUMNS]
        for kind in sorted(report.classes):
            summary = report.latency(kind)
            writer.writerow([
                config.workload, report.engine, config.mode, config.loop,
                config.oltp_rate, config.olap_rate, config.hybrid_rate,
                kind, report.throughput(kind),
                *_latency_row(summary), *counters,
            ])
    return buffer.getvalue()


def write_report(report: RunReport, path: str,
                 per_transaction: bool = True):
    """Store the statistics to a file, as the paper's client does."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_text(report, per_transaction=per_transaction))
        handle.write("\n")
