"""CLI behavior: the strict gate and entry points."""

import subprocess
import sys

from repro.analysis.cli import main

from tests.analysis.conftest import REPO_ROOT

RULE_IDS = {
    "no-wall-clock",
    "no-unseeded-random",
    "no-iteration-order-hazard",
    "obs-purity",
    "deadline-discipline",
    "no-silent-except",
    "parse-error",
    "invalid-suppression",
}


def _violating_tree(tmp_path):
    """A tiny repo tree with one wall-clock and one RNG violation."""
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import random\n"
        "import time\n"
        "\n"
        "def f():\n"
        "    return time.time() + random.random()\n",
        encoding="utf-8",
    )
    return pkg


class TestStrictGate:
    def test_repository_head_is_clean(self, capsys):
        # The committed tree must pass its own gate — the headline
        # acceptance criterion.
        code = main(
            ["--root", str(REPO_ROOT), "--strict", "--format", "jsonl"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_injected_violations_fail_and_are_named(self, tmp_path, capsys):
        _violating_tree(tmp_path)
        code = main(
            ["--root", str(tmp_path), "--paths", "src", "--strict"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "src/mod.py" in out
        assert "no-wall-clock" in out
        assert "no-unseeded-random" in out
        assert ":5:" in out  # both violations sit on line 5

    def test_non_strict_run_is_advisory(self, tmp_path, capsys):
        _violating_tree(tmp_path)
        code = main(["--root", str(tmp_path), "--paths", "src"])
        assert code == 0
        assert "no-wall-clock" in capsys.readouterr().out

    def test_proxy_cache_docstring_regression(self, capsys):
        # proxy/cache.py discusses time.monotonic in prose; the
        # AST-based rule must not flag documentation.
        cache = REPO_ROOT / "src" / "repro" / "proxy" / "cache.py"
        assert "time.monotonic" in cache.read_text(encoding="utf-8")
        code = main(
            [
                "--root",
                str(REPO_ROOT),
                "--paths",
                "src/repro/proxy/cache.py",
                "--select",
                "no-wall-clock",
                "--strict",
            ]
        )
        assert code == 0


class TestConfig:
    def test_list_rules_covers_the_registry(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out


class TestEntryPoints:
    @staticmethod
    def _env():
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return env

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            cwd=REPO_ROOT,
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "no-wall-clock" in proc.stdout

    def test_tools_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint.py"), "--list-rules"],
            cwd=REPO_ROOT,
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "no-wall-clock" in proc.stdout
