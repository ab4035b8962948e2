"""Deterministic microbenchmark harness for the repository's hot paths.

The reproduction's performance story is part of its claims: the
batching frontend (E17), the proxy filter pre-check (E6) and the
aggregator hash scan (E12) all assume the vectorized fast paths really
are faster than their scalar reference oracles.  This package pins that
assumption the same way the chaos checker pins consistency:

* :mod:`repro.perf.workloads` — seeded workload builders shared with
  the pytest benches, so the harness and E17 measure the same bytes;
* :mod:`repro.perf.harness` — the warmup/repeat measurement protocol
  (ops/sec, p50/p99 per-op latency, tracemalloc allocation peak), with
  an equal-results lock: a paired case aborts if the fast path and its
  scalar oracle disagree;
* :mod:`repro.perf.report` — canonical-JSON reports
  (``BENCH_hotpaths.json`` at the repo root) and the tolerance-band
  comparison CI gates on;
* :mod:`repro.perf.suite` — the hot-path case registry;
* :mod:`repro.perf.timing` — the *only* module in ``src/repro`` allowed
  to read the host clock (see ``LintConfig.allow_wall_clock``).

Timing numbers are machine-dependent and therefore informational; the
CI gate compares *speedup ratios* (fast vs oracle on the same machine,
same run), which transfer across hosts.  See docs/perf.md.
"""

from repro.perf.harness import BenchCase, PerfError, run_case, run_suite
from repro.perf.report import (
    REPORT_SCHEMA,
    build_report,
    canonical_json,
    compare_to_baseline,
    strip_timing,
    validate_report,
)
from repro.perf.suite import default_suite

__all__ = [
    "BenchCase",
    "PerfError",
    "REPORT_SCHEMA",
    "build_report",
    "canonical_json",
    "compare_to_baseline",
    "default_suite",
    "run_case",
    "run_suite",
    "strip_timing",
    "validate_report",
]
