"""The committed layer contract: ``tools/layers.json``.

The contract is an ordered list of layers, each owning a set of
dotted module prefixes.  A module belongs to the layer whose prefix
matches it most specifically (longest dotted prefix wins), so
``repro.core.errors`` can sit in a lower layer than the rest of
``repro.core``.  Three kinds of layer, one JSON list each:

* ``"layer"`` — ranked by position.  An import is allowed only
  downward or sideways: the destination's rank must not exceed the
  source's.
* ``"side"`` — unranked harnesses (chaos, perf, analysis, …).  They
  may import anything, but only other side layers or entry modules
  may import *them* — production code must not depend on a harness.
* ``"entry"`` — top-level entrypoints (``repro``, ``repro.__main__``).
  They may import anything; nothing outside entry may import them.
  Because the entry prefix is the package root, it also catches any
  future package nobody assigned a layer: the moment real code imports
  it, the gate trips and forces a contract decision.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CONTRACT_PATH",
    "ContractError",
    "Layer",
    "LayerContract",
    "load_contract",
    "parse_contract",
]

#: where the contract lives, relative to the linted tree's root.
CONTRACT_PATH = "tools/layers.json"

CONTRACT_VERSION = 1

LAYER_KIND = "layer"
SIDE_KIND = "side"
ENTRY_KIND = "entry"

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")
_MODULE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


class ContractError(Exception):
    """The contract file is missing, unparseable, or inconsistent.

    Distinct from a lint finding on purpose: a broken contract means
    the gate cannot run at all, and the CLI maps it to exit code 2.
    """


@dataclass(frozen=True)
class Layer:
    """One named layer owning a set of module prefixes."""

    name: str
    kind: str  # LAYER_KIND | SIDE_KIND | ENTRY_KIND
    rank: int  # position among ranked layers; -1 for side/entry
    modules: Tuple[str, ...]


@dataclass(frozen=True)
class LayerContract:
    """The parsed, validated contract."""

    path: str  # rel path of the contract file (finding anchor)
    layers: Tuple[Layer, ...]  # ranked first, then side, then entry

    @cached_property
    def owners(self) -> Dict[str, Layer]:
        """Module prefix -> the layer that declares it."""
        return {p: layer for layer in self.layers for p in layer.modules}

    def prefix_of(self, module: str) -> Optional[str]:
        """The longest contract prefix owning ``module``, or None."""
        probe = module
        while probe not in self.owners:
            if "." not in probe:
                return None
            probe = probe.rsplit(".", 1)[0]
        return probe

    def assignment(self, module: str) -> Optional[Layer]:
        """The layer owning ``module`` via longest-dotted-prefix match."""
        prefix = self.prefix_of(module)
        return None if prefix is None else self.owners[prefix]

    def packages(self) -> frozenset:
        """The top-level packages the contract names (what it judges)."""
        return frozenset(prefix.split(".", 1)[0] for prefix in self.owners)


def load_contract(root: Path) -> LayerContract:
    """Read and validate ``CONTRACT_PATH`` under ``root``."""
    try:
        text = (root / CONTRACT_PATH).read_text(encoding="utf-8")
    except OSError as exc:
        raise ContractError(f"layer contract {CONTRACT_PATH}: {exc}") from exc
    return parse_contract(text, CONTRACT_PATH)


def parse_contract(text: str, rel: str) -> LayerContract:
    """Parse + validate contract text (exposed for tests)."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ContractError(f"layer contract {rel}: {exc}") from exc
    if not isinstance(data, dict):
        raise ContractError(f"layer contract {rel}: must be a JSON object")
    version = data.get("version")
    if version != CONTRACT_VERSION:
        raise ContractError(
            f"layer contract {rel}: version must be {CONTRACT_VERSION}, "
            f"got {version!r}"
        )
    layers: List[Layer] = []
    seen_prefixes: set = set()
    for kind in (LAYER_KIND, SIDE_KIND, ENTRY_KIND):
        entries = data.get(kind, [])
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) for entry in entries
        ):
            raise ContractError(
                f"layer contract {rel}: {kind!r} must be a list of objects"
            )
        for entry in entries:
            name = entry.get("name")
            modules = entry.get("modules")
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ContractError(
                    f"layer contract {rel}: bad layer name {name!r}"
                )
            if any(layer.name == name for layer in layers):
                raise ContractError(
                    f"layer contract {rel}: duplicate layer name {name!r}"
                )
            if (
                not isinstance(modules, list)
                or not modules
                or not all(isinstance(m, str) for m in modules)
            ):
                raise ContractError(
                    f"layer contract {rel}: layer {name!r} needs a non-empty "
                    "string list of modules"
                )
            for module in modules:
                if not _MODULE_RE.match(module):
                    raise ContractError(
                        f"layer contract {rel}: bad module prefix {module!r} "
                        f"in layer {name!r}"
                    )
                if module in seen_prefixes:
                    raise ContractError(
                        f"layer contract {rel}: module prefix {module!r} "
                        "assigned twice"
                    )
                seen_prefixes.add(module)
            ranked = sum(layer.kind == LAYER_KIND for layer in layers)
            layers.append(
                Layer(
                    name=name,
                    kind=kind,
                    rank=ranked if kind == LAYER_KIND else -1,
                    modules=tuple(modules),
                )
            )
    if not any(layer.kind == LAYER_KIND for layer in layers):
        raise ContractError(
            f"layer contract {rel}: at least one \"layer\" entry required"
        )
    return LayerContract(path=rel, layers=tuple(layers))
