"""Whole-program analysis: passes that see the entire tree at once.

Importing this package registers every program rule.  Import order is
alphabetical by module and fixed here — like
:mod:`repro.analysis.rules`, registration order is report order, so
the list below is load-bearing for byte-determinism.
"""

from __future__ import annotations

from repro.analysis.program import async_safety  # noqa: F401  - registers rules
from repro.analysis.program import envelopes  # noqa: F401  - registers rules
from repro.analysis.program import layering  # noqa: F401  - registers rules
from repro.analysis.program.context import ProgramContext, build_context
from repro.analysis.program.contract import (
    ContractError,
    Layer,
    LayerContract,
    load_contract,
    parse_contract,
)
from repro.analysis.program.graph import (
    ImportEdge,
    ImportGraph,
    build_graph,
    module_name_for_rel,
)

__all__ = [
    "ProgramContext",
    "build_context",
    "ContractError",
    "Layer",
    "LayerContract",
    "load_contract",
    "parse_contract",
    "ImportEdge",
    "ImportGraph",
    "build_graph",
    "module_name_for_rel",
]
