"""Declared dependencies == third-party imports under ``src/repro``.

An import nobody declared breaks a fresh install; a declaration nobody
imports is an install-time cost with no caller (``networkx`` was one:
its last importer was a method only a test called).  Both directions
are checked from the source, lazy in-function imports included.
"""

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def _declared() -> set:
    """Names in ``[project].dependencies``, read without ``tomllib``."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)^\]", text, re.S | re.M)
    assert block, "pyproject.toml has no literal [project].dependencies list"
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', block.group(1))
    }


def _third_party_imports() -> dict:
    """Top-level third-party module -> one importing file (rel path)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, path.relative_to(REPO_ROOT).as_posix())
    return found


def test_every_third_party_import_is_declared():
    declared = _declared()
    undeclared = {
        top: rel
        for top, rel in _third_party_imports().items()
        if top.lower() not in declared
    }
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"


def test_every_declared_dependency_is_imported():
    orphaned = _declared() - {top.lower() for top in _third_party_imports()}
    assert not orphaned, f"declared but never imported under src/repro: {orphaned}"
