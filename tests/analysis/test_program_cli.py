"""CLI behavior of the layer contract: exit codes and the report."""

from repro.analysis.cli import main
from repro.analysis.registry import all_rules

from tests.analysis.conftest import FIXTURES, REPO_ROOT

MINIPROG = FIXTURES / "miniprog"


def _miniprog(*extra):
    return ["--root", str(MINIPROG), "--paths", "src", *extra]


def _tree(tmp_path, contract=None):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("X = 1\n", encoding="utf-8")
    if contract is not None:
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "layers.json").write_text(
            contract, encoding="utf-8"
        )
    return ["--root", str(tmp_path), "--paths", "src"]


class TestExitCodes:
    def test_repository_head_is_clean_under_program_gate(self, capsys):
        # The committed tree obeys its own layer contract.
        code = main(["--root", str(REPO_ROOT), "--select", "layer-contract"])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(_miniprog()) == 1
        out = capsys.readouterr().out
        assert "layer-contract" in out
        assert "3 findings" in out

    def test_missing_contract_exits_two(self, tmp_path, capsys):
        # Naming the rule demands its contract; a bare run over a tree
        # without one simply has nothing to judge.
        args = _tree(tmp_path)
        assert main(args) == 0
        assert main([*args, "--select", "layer-contract"]) == 2
        assert "layer contract" in capsys.readouterr().err

    def test_invalid_contract_exits_two(self, tmp_path, capsys):
        code = main(_tree(tmp_path, '{"version": 99}\n'))
        assert code == 2
        assert "version" in capsys.readouterr().err

    def test_unknown_rule_id_exits_two(self, capsys):
        code = main(_miniprog("--select", "no-such-rule"))
        assert code == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_selecting_a_program_rule_implies_the_pass(self, capsys):
        code = main(_miniprog("--select", "layer-contract"))
        assert code == 1
        assert "layer-contract" in capsys.readouterr().out


class TestFormats:
    def test_table_parity(self, capsys):
        assert main(_miniprog()) == 1
        out = capsys.readouterr().out
        assert "layer-contract" in out
        assert "src/pkg/alpha/a.py:4:0" in out

    def test_list_rules_includes_program_rules(self):
        # One registry: the whole-tree rule sits beside the per-file ones.
        whole_tree = [r.id for r in all_rules() if r.whole_tree]
        assert whole_tree == ["layer-contract"]

    def test_registry_matches_expected_ids(self):
        per_file = {r.id for r in all_rules() if not r.whole_tree}
        assert per_file == {
            "no-unseeded-random",
            "obs-purity",
            "deadline-discipline",
            "no-silent-except",
            "parse-error",
            "invalid-suppression",
        }
