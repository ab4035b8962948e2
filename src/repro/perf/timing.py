"""The one place in ``src/repro`` that reads the host clock.

Everything else in the package runs on injected simulation time — the
``no-wall-clock`` lint rule enforces that — but a microbenchmark
harness exists precisely to measure wall time, so this module is the
single audited exemption (``LintConfig.allow_wall_clock`` lists exactly
this file).  Keeping the exemption to one two-function module
means a grep for real-time leaks still has one obvious place to look.
"""

from __future__ import annotations

import time

__all__ = ["monotonic_ns", "busy_wait_ns"]


def monotonic_ns() -> int:
    """Current monotonic time in nanoseconds (highest resolution clock)."""
    return time.perf_counter_ns()


def busy_wait_ns(duration_ns: int) -> None:
    """Spin for ``duration_ns`` nanoseconds of wall time.

    The regression-gate self-test injects this into a fast path to
    fake a slowdown; spinning (rather than sleeping) keeps the stall
    visible to ``perf_counter_ns`` at microsecond scale.
    """
    if duration_ns <= 0:
        return
    deadline = time.perf_counter_ns() + duration_ns
    while time.perf_counter_ns() < deadline:
        pass
