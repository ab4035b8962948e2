"""The console report: a findings table and a one-line summary.

The table renders through :class:`repro.metrics.reporting.Table`, the
same fixed-width renderer the benches use.  Findings arrive totally
ordered from the engine, so the same tree prints the same bytes.
"""

from __future__ import annotations

from repro.analysis.engine import LintResult
from repro.metrics.reporting import Table

__all__ = ["render_table", "render_summary"]


def render_table(result: LintResult) -> str:
    """Fixed-width findings table (if any) plus the summary line."""
    parts = []
    if result.findings:
        table = Table(headers=["location", "rule", "message"])
        for finding in result.findings:
            table.add(
                f"{finding.path}:{finding.line}:{finding.col}",
                finding.rule,
                finding.message,
            )
        parts.append(table.render())
    parts.append(render_summary(result))
    return "\n".join(parts)


def render_summary(result: LintResult) -> str:
    count = len(result.findings)
    return (
        f"checked {result.files_checked} files: "
        f"{count} finding{'' if count == 1 else 's'}, "
        f"{len(result.suppressed)} suppressed"
    )
