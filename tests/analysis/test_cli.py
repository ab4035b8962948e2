"""CLI behavior: the gate and entry points."""

import subprocess
import sys

from repro.analysis.cli import main
from repro.analysis.registry import rule_ids

from tests.analysis.conftest import REPO_ROOT

RULE_IDS = {
    "no-unseeded-random",
    "obs-purity",
    "deadline-discipline",
    "no-silent-except",
    "layer-contract",
    "parse-error",
    "invalid-suppression",
}


def _violating_tree(tmp_path):
    """A tiny repo tree with one RNG and one silent-except violation."""
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import random\n"
        "\n"
        "def f():\n"
        "    try:\n"
        "        return random.random()\n"
        "    except:\n"
        "        pass\n",
        encoding="utf-8",
    )
    return pkg


class TestStrictGate:
    def test_repository_head_is_clean(self, capsys):
        # The committed tree must pass its own gate — the headline
        # acceptance criterion.
        code = main(["--root", str(REPO_ROOT)])
        assert code == 0
        assert capsys.readouterr().out.startswith("checked ")

    def test_injected_violations_fail_and_are_named(self, tmp_path, capsys):
        _violating_tree(tmp_path)
        code = main(["--root", str(tmp_path), "--paths", "src"])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/mod.py:5:" in out
        assert "no-unseeded-random" in out
        assert "src/mod.py:6:" in out
        assert "no-silent-except" in out


class TestConfig:
    def test_list_rules_covers_the_registry(self):
        assert set(rule_ids()) == RULE_IDS


class TestEntryPoints:
    @staticmethod
    def _env():
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return env

    def _run(self, *command):
        return subprocess.run(
            [*command, "--paths", "src/repro/analysis"],
            cwd=REPO_ROOT,
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_module_entry_point(self):
        proc = self._run(sys.executable, "-m", "repro", "lint")
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout

    def test_tools_script_entry_point(self):
        proc = self._run(sys.executable, str(REPO_ROOT / "tools" / "lint.py"))
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout
