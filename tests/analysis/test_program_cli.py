"""CLI behavior of --program: exit codes and formats."""

import json

from repro.analysis.cli import main
from repro.analysis.registry import program_rule_ids

from tests.analysis.conftest import FIXTURES, REPO_ROOT

MINIPROG = FIXTURES / "miniprog"

PROGRAM_RULE_IDS = {
    "blocking-in-async",
    "unawaited-coroutine",
    "handler-deadline",
    "error-envelope",
    "import-cycle",
    "layer-contract",
}


def _miniprog(*extra):
    return ["--root", str(MINIPROG), "--paths", "src", "--program", *extra]


class TestExitCodes:
    def test_repository_head_is_clean_under_program_gate(self, capsys):
        # The committed tree passes `lint --program --strict` — the
        # CI gate this PR adds.
        code = main(
            [
                "--root",
                str(REPO_ROOT),
                "--program",
                "--strict",
                "--format",
                "jsonl",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, capsys):
        assert main(_miniprog("--strict")) == 1
        out = capsys.readouterr().out
        assert "import-cycle" in out
        assert "layer-contract" in out

    def test_non_strict_is_advisory(self, capsys):
        assert main(_miniprog()) == 0
        assert "import-cycle" in capsys.readouterr().out

    def test_missing_contract_exits_two(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("X = 1\n", encoding="utf-8")
        code = main(
            ["--root", str(tmp_path), "--paths", "src", "--program", "--strict"]
        )
        assert code == 2
        assert "layer contract" in capsys.readouterr().err

    def test_invalid_contract_exits_two(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("X = 1\n", encoding="utf-8")
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "layers.toml").write_text(
            "version = 99\n", encoding="utf-8"
        )
        code = main(
            ["--root", str(tmp_path), "--paths", "src", "--program", "--strict"]
        )
        assert code == 2
        assert "version" in capsys.readouterr().err

    def test_unknown_rule_id_exits_two(self, capsys):
        code = main(_miniprog("--select", "no-such-rule"))
        assert code == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_selecting_a_program_rule_implies_the_pass(self, capsys):
        # `--select import-cycle` without --program still runs it.
        code = main(
            [
                "--root",
                str(MINIPROG),
                "--paths",
                "src",
                "--select",
                "import-cycle",
                "--strict",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "import-cycle" in out
        assert "layer-contract" not in out


class TestFormats:
    def test_jsonl_parity(self, capsys):
        assert main(_miniprog("--format", "jsonl")) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert {row["rule"] for row in rows} >= {
            "import-cycle",
            "layer-contract",
        }
        assert all(
            set(row) == {"path", "line", "col", "rule", "message"}
            for row in rows
        )

    def test_table_parity(self, capsys):
        assert main(_miniprog("--format", "table")) == 0
        out = capsys.readouterr().out
        assert "import-cycle" in out
        assert "src/pkg/alpha/a.py" in out

    def test_jsonl_is_byte_identical_across_runs(self, capsys):
        assert main(_miniprog("--format", "jsonl")) == 0
        first = capsys.readouterr().out
        assert main(_miniprog("--format", "jsonl")) == 0
        assert capsys.readouterr().out == first

    def test_list_rules_includes_program_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in PROGRAM_RULE_IDS:
            assert rule_id in out

    def test_registry_matches_expected_ids(self):
        assert set(program_rule_ids()) == PROGRAM_RULE_IDS
