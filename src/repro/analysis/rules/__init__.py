"""Rule registration: importing this package registers every rule.

Import order here *is* registry order — keep it alphabetical by module
and do not import rules conditionally.  ``tools/check_docs.py``
regex-scans this package for ``@rule(...)`` decorations and
cross-checks the id set against ``docs/lint.md``, so a rule that is
not imported here is a docs-drift failure, not a silent no-op.
"""

from __future__ import annotations

from repro.analysis.registry import INVALID_SUPPRESSION, PARSE_ERROR, rule


@rule(
    PARSE_ERROR,
    "a file that does not parse cannot be checked; the gate fails it",
)
@rule(
    INVALID_SUPPRESSION,
    "a malformed or reason-less suppression directive (repro-lint allow "
    "comment) is reported instead of honored",
)
def _engine_emitted(module, config):
    return ()


from repro.analysis.rules import deadlines  # noqa: E402,F401
from repro.analysis.rules import excepts  # noqa: E402,F401
from repro.analysis.rules import layering  # noqa: E402,F401
from repro.analysis.rules import obs_purity  # noqa: E402,F401
from repro.analysis.rules import randomness  # noqa: E402,F401
