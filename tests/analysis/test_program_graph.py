"""Import-graph construction: naming, resolution, flags, determinism."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graph import (
    build_graph,
    module_name_for_rel,
)
from repro.analysis.source import parse_module

_TREE = {
    "src/pkg/__init__.py": "from pkg import util\n",
    "src/pkg/util.py": "VALUE = 1\n",
    "src/pkg/core.py": (
        "from typing import TYPE_CHECKING\n"
        "import pkg.util\n"
        "if TYPE_CHECKING:\n"
        "    from pkg import shapes\n"
        "def late():\n"
        "    from pkg import util\n"
        "    return util.VALUE\n"
    ),
    "src/pkg/shapes.py": "import pkg.core\n",
    "src/pkg/relative.py": "from . import util\n",
}


def _parse_tree(tmp_path, tree=None):
    modules = {}
    for rel, text in (tree or _TREE).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        modules[rel] = parse_module(path, rel)
    return modules


class TestNaming:
    @pytest.mark.parametrize(
        "rel,expected",
        [
            ("src/repro/cluster/ring.py", "repro.cluster.ring"),
            ("src/repro/__init__.py", "repro"),
            ("src/repro/core/__init__.py", "repro.core"),
            ("tools/lint.py", "tools.lint"),
        ],
    )
    def test_module_name_for_rel(self, rel, expected):
        assert module_name_for_rel(rel) == expected


class TestResolution:
    def test_from_import_prefers_the_submodule(self, tmp_path):
        # `from pkg import util` must read as pkg.* -> pkg.util, not as
        # a dependency on the package __init__ (which would charge every
        # re-export's imports to the importer).
        graph = build_graph(_parse_tree(tmp_path))
        pairs = {(e.src, e.dst) for e in graph.edges}
        assert ("pkg", "pkg.util") in pairs
        assert ("pkg.core", "pkg.util") in pairs
        assert ("pkg.core", "pkg") not in pairs

    def test_relative_import_resolves(self, tmp_path):
        graph = build_graph(_parse_tree(tmp_path))
        assert ("pkg.relative", "pkg.util") in {
            (e.src, e.dst) for e in graph.edges
        }

    def test_lazy_and_typing_flags(self, tmp_path):
        graph = build_graph(_parse_tree(tmp_path))
        by_site = {
            (e.src, e.dst, e.line, e.typing_only) for e in graph.edges
        }
        # core imports util twice: top-level and inside late(); the
        # in-function import is a runtime edge like the other.
        assert ("pkg.core", "pkg.util", 2, False) in by_site
        assert ("pkg.core", "pkg.util", 6, False) in by_site
        # the TYPE_CHECKING import carries no runtime coupling.
        assert ("pkg.core", "pkg.shapes", 4, True) in by_site
        assert all(not e.typing_only for e in graph.runtime_edges())

    def test_external_imports_are_ignored(self, tmp_path):
        graph = build_graph(
            _parse_tree(
                tmp_path,
                {"src/pkg/one.py": "import os\nfrom json import loads\n"},
            )
        )
        assert graph.edges == []


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_order_independent(self, data, tmp_path_factory):
        # The graph must not depend on the order modules arrive in —
        # dict insertion order is an implementation detail of the
        # caller, never of the report built from the graph.
        tmp_path = tmp_path_factory.mktemp("graph")
        modules = _parse_tree(tmp_path)
        rels = data.draw(st.permutations(sorted(modules)))
        shuffled = {rel: modules[rel] for rel in rels}
        assert build_graph(shuffled) == build_graph(modules)
