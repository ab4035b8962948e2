"""repro.analysis: AST-based determinism & contract linter.

A dependency-free static analysis layer that enforces the repo's
invariants at review time instead of debug time:

* all randomness is seeded (**no-unseeded-random**),
* the nullable ``obs=`` handle stays a guarded, write-only side
  channel (**obs-purity**),
* every RPC threads an explicit time budget (**deadline-discipline**),
* failures are never silently swallowed (**no-silent-except**),
* imports follow the committed layer contract (**layer-contract**).

Each rule stays because it has caught real defects or is the
architecture itself; ``docs/lint.md`` records when each last fired.
Entry points: ``python -m repro lint`` and ``tools/lint.py`` (CI).
Library surface: :func:`lint_paths` plus the dataclasses below.
"""

from repro.analysis.engine import LintConfig, LintResult, lint_paths, repo_root
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, rule
from repro.analysis.report import render_table
from repro.analysis.suppress import Suppression, parse_suppressions

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "Suppression",
    "all_rules",
    "lint_paths",
    "parse_suppressions",
    "render_table",
    "repo_root",
    "rule",
]
