"""The rule registry: one ``@rule`` decorator, one id list.

A rule is a pure function registered under a stable kebab-case id.
Most rules see one module at a time: ``check(module, config)``.  A
rule registered with ``whole_tree=True`` sees the entire linted tree
at once instead: ``check(tree, config)`` with an
:class:`~repro.analysis.engine.Tree`.  Registration order is import
order and import order is fixed (:mod:`repro.analysis.rules` imports
each rule module explicitly), so the registry is deterministic.

Two ids are *engine-emitted*: ``parse-error`` (a file that does not
parse) and ``invalid-suppression`` (a malformed ``allow`` directive).
They are registered like any other rule so the id list is complete —
for ``--select``, for suppression validation and for the docs drift
check — but their check is a no-op: the engine raises them itself,
and neither can be suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.analysis.findings import Finding

__all__ = [
    "Rule",
    "rule",
    "all_rules",
    "rule_ids",
    "PARSE_ERROR",
    "INVALID_SUPPRESSION",
    "UNSUPPRESSABLE",
]

PARSE_ERROR = "parse-error"
INVALID_SUPPRESSION = "invalid-suppression"

#: Findings about the lint mechanism itself cannot be allowed away.
UNSUPPRESSABLE = frozenset({PARSE_ERROR, INVALID_SUPPRESSION})

CheckFn = Callable[..., Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: identity, one-line rationale, checker."""

    id: str
    summary: str
    check: CheckFn
    whole_tree: bool = False


_REGISTRY: Dict[str, Rule] = {}


def rule(
    rule_id: str, summary: str, whole_tree: bool = False
) -> Callable[[CheckFn], CheckFn]:
    """Register ``check`` under ``rule_id`` (decorator)."""

    def _register(check: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"rule {rule_id!r} registered twice")
        _REGISTRY[rule_id] = Rule(rule_id, summary, check, whole_tree)
        return check

    return _register


def all_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Registered rules in registration order, optionally filtered.

    Unknown ids in ``select`` raise ``KeyError``.
    """
    import repro.analysis.rules  # noqa: F401  - registration side effect

    rules = list(_REGISTRY.values())
    if select is None:
        return rules
    wanted = set(select)
    unknown = wanted - set(_REGISTRY)
    if unknown:
        raise KeyError(f"unknown rule id(s): {sorted(unknown)}")
    return [r for r in rules if r.id in wanted]


def rule_ids() -> List[str]:
    return [r.id for r in all_rules()]
