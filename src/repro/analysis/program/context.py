"""The shared input every whole-program pass consumes.

Built once per lint run (after per-file parsing, before program rules
fire) so the three passes never re-read or re-parse anything — same
ASTs the per-file rules saw, one import graph, one contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.analysis.program.contract import LayerContract
from repro.analysis.program.graph import ImportGraph, module_name_for_rel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.source import SourceModule

__all__ = ["ProgramContext", "build_context"]


@dataclass
class ProgramContext:
    """Everything a program rule may look at, and nothing else."""

    root: str  # analyzed tree root (absolute path)
    modules: Dict[str, "SourceModule"]  # rel path -> parsed module
    graph: ImportGraph
    contract: Optional[LayerContract]  # None when layering not selected
    names: Dict[str, str]  # dotted module name -> rel path


def build_context(
    root: str,
    modules: Dict[str, "SourceModule"],
    graph: ImportGraph,
    contract: Optional[LayerContract],
) -> ProgramContext:
    names = {module_name_for_rel(rel): rel for rel in sorted(modules)}
    return ProgramContext(
        root=root,
        modules=modules,
        graph=graph,
        contract=contract,
        names=names,
    )
