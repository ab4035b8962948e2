"""The real artefact as a subprocess: ``python -m repro serve --port 0``.

The server gets the last CPU this process may use and the generator
keeps the first, so on the 2-core box each has a core to itself.  CPU
and memory are read from ``/proc`` from outside, never from the program.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

_TICK = os.sysconf("SC_CLK_TCK")
_CPUS = sorted(os.sched_getaffinity(0))  # read before anything is pinned


def require_program() -> None:
    """Exit non-zero when the program under test is not in this checkout."""
    if not (SRC / "repro" / "service" / "cli.py").is_file():
        raise SystemExit(f"e2e benchmark: no program to measure under {SRC}")


def pin_generator(pinned: bool) -> None:
    """Keep this process off the server's cpu (or give it all back)."""
    if len(_CPUS) > 1:
        os.sched_setaffinity(0, _CPUS[:-1] if pinned else _CPUS)


class ServerProcess:
    """Owns one serving subprocess; ``stop`` always reaps it."""

    def __init__(self, log_name: str):
        OUT.mkdir(exist_ok=True)
        self._log = open(OUT / f"server-{log_name}.log", "wb")
        # A fixed hash seed: dict layouts, and so the server's speed, are
        # the same on every run instead of one more source of spread.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.pid = self.proc.pid
        if len(_CPUS) > 1:
            os.sched_setaffinity(self.pid, _CPUS[-1:])
        self.host, self.port = self._read_address()

    def _read_address(self) -> Tuple[str, int]:
        line = self.proc.stdout.readline().decode()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not announce an address: {line!r}")
        host, _, port = line.strip().rsplit("http://", 1)[1].rpartition(":")
        return host, int(port)

    def cpu_seconds(self) -> float:
        """user+sys CPU of the server process so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
