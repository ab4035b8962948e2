"""What a serving node loads: the ledger stack, not the image stack.

``python -m repro serve`` answers status checks and takes claims; it
never synthesises, compresses or watermarks a photo, walks a graph or
injects a fault.  Importing what ``run_serve`` imports — and building
the app it builds — must therefore leave ``scipy``, ``repro.media`` and
the simulator-only packages unloaded: they were a third of a fresh
node's resident memory and of its time from spawn to listening.  The
check runs in a subprocess because this test session has long since
imported all of them.
"""

import subprocess
import sys

SERVE_CLOSURE = """
import asyncio, sys
import repro.obs, repro.service.cli, repro.service.app, repro.service.cluster

async def build():
    obs = repro.obs.Observability(clock=asyncio.get_running_loop().time)
    cluster = repro.service.cluster.LiveCluster(obs=obs)
    repro.service.app.ServiceApp(cluster=cluster, obs=obs)

asyncio.run(build())
unwanted = {unwanted!r}
print(sorted(
    name for name in sys.modules
    if any(name == u or name.startswith(u + ".") for u in unwanted)
))
"""

UNWANTED = (
    "scipy",
    "unittest",
    "repro.media",
    "repro.browser",
    "repro.proxy",
    "repro.aggregator",
    "repro.chaos",
    "repro.perf",
    "repro.analysis",
)


def _python(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


def test_serving_loads_no_image_or_simulator_stack():
    assert _python(SERVE_CLOSURE.format(unwanted=UNWANTED)) == "[]"


def test_the_serve_command_line_loads_neither_linter_nor_perf_harness():
    """``python -m repro serve`` is the process that stays up: building
    the argument parser must not import the packages of the subcommands
    it is not running."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "--populate" in result.stdout  # serve's own arguments are there
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "repro.service.cli" in imported
    assert [
        name for name in imported
        if name.startswith(("repro.analysis", "repro.perf"))
    ] == []


def test_appeals_still_bring_the_image_stack():
    """Appeals compare photos, so the module keeps its imports; it is
    only the ``repro.ledger`` package root that no longer drags it in."""
    loaded = _python(
        "import sys, repro.ledger\n"
        "before = 'repro.media' in sys.modules\n"
        "import repro.ledger.appeals\n"
        "print(before, 'repro.media' in sys.modules)"
    )
    assert loaded == "False True"
