#!/usr/bin/env python3
"""CI entry point for the repro determinism & contract linter.

Equivalent to ``PYTHONPATH=src python -m repro lint``, but runnable
from the repository root without setting PYTHONPATH — it inserts
``src/`` itself.  The linter is dependency-free (stdlib ``ast`` only),
so like ``tools/check_docs.py`` this needs no pip install.

Usage (the CI gate):

    python tools/lint.py --strict

The second gated tree (examples and the simulator benches):

    python tools/lint.py --strict --paths examples benchmarks/conftest.py benchmarks/bench_*.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
