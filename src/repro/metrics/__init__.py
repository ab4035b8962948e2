"""Plain-text table rendering shared by the CLI, benches and examples."""

from repro.metrics.reporting import format_table, format_row, Table

__all__ = ["format_table", "format_row", "Table"]
