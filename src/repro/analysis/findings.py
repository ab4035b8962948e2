"""The unit of lint output: one finding at one source location.

Findings are plain values with a total order, so reports are
byte-deterministic (same input files, same bytes out, enforced by
``tests/analysis``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``path`` is repository-relative with forward slashes, so reports
    are identical regardless of the machine or invocation directory.
    ``line``/``col`` are 1-based line and 0-based column, matching
    ``ast`` node coordinates.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        """``path:line:col: rule: message`` — the grep-able form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
