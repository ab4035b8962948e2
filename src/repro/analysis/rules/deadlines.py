"""deadline-discipline: every RPC carries an explicit time budget.

The resilience layer (PR 3) made deadlines first-class: a request's
remaining budget propagates into batched RPC timeouts so a sub-call
can never outlive the request it serves.  That property only holds if
*every* RPC call site threads a ``timeout=``/``deadline=`` keyword —
one bare ``transport.invoke(...)`` and a dead replica can stall its
caller for the transport's worst-case default, or forever on a
transport without one.

The rule fires in the subsystems that speak RPC (``cluster/``,
``proxy/``, ``browser/`` path segments) on calls to the RPC surface
(``.invoke(...)``, ``.call(...)``) that pass neither keyword.  A
``**kwargs`` splat is accepted: the budget is threaded dynamically and
a static check cannot see inside it.  Passing ``timeout=None``
explicitly is also accepted — it is a visible decision to ride the
transport default, which is the reviewable act this rule exists to
force.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

RULE_ID = "deadline-discipline"

_BUDGET_KEYWORDS = frozenset({"timeout", "deadline"})

#: attribute names that constitute the RPC surface.
_RPC_METHODS = frozenset({"invoke", "call"})


def _has_budget(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs splat
            return True
        if keyword.arg in _BUDGET_KEYWORDS:
            return True
    return False


@rule(
    RULE_ID,
    "RPC call sites in cluster/proxy/browser must thread an explicit "
    "timeout= or deadline= keyword so no call can outlive its request",
)
def check(module, config) -> Iterator[Finding]:
    if not any(part in config.rpc_dirs for part in module.rel_parts):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _RPC_METHODS:
            continue
        if _has_budget(node):
            continue
        yield Finding(
            path=module.rel,
            line=node.lineno,
            col=node.col_offset,
            rule=RULE_ID,
            message=(
                f"RPC call .{func.attr}(...) without a timeout=/deadline= "
                "keyword; thread the caller's budget (or timeout=None to "
                "explicitly ride the transport default)"
            ),
        )
