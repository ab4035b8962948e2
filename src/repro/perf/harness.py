"""The measurement protocol: warmup, repeats, percentiles, allocations.

One :class:`BenchCase` describes one hot path.  *Paired* cases carry
both the vectorized fast path and its scalar reference oracle; the
harness times both, computes the speedup, and — before reporting any
number — asserts the two produce checksum-identical results.  A fast
path that drifts from its oracle is a correctness bug, and the harness
treats it as one (raises, rather than reporting a tainted speedup).

Protocol per side:

1. ``warmup`` untimed calls (JIT-free Python still benefits: branch
   caches, page faults, numpy internals);
2. ``repeats`` timed calls; per-op p50/p99 come from the per-call
   distribution, ops/sec from the median call;
3. one extra call under ``tracemalloc`` for the allocation peak —
   separate, because tracing skews timing by an order of magnitude.

A paired case's two sides run steps 1-2 interleaved, call by call.

Wall-clock access is confined to :mod:`repro.perf.timing`.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.perf.timing import busy_wait_ns, monotonic_ns

__all__ = ["BenchCase", "PerfError", "run_case", "run_suite"]


class PerfError(Exception):
    """Raised when a case is mis-specified or an oracle disagrees."""


@dataclass(frozen=True)
class BenchCase:
    """One measured hot path.

    Attributes
    ----------
    name:
        Stable case id (the key in ``BENCH_hotpaths.json``).
    description:
        One line for the report table.
    setup:
        ``setup(seed) -> state``; everything random derives from the
        seed, so checksums are reproducible across runs and machines.
    fast:
        ``fast(state) -> result``; the vectorized path under test.
    ops:
        ``ops(state) -> int``; logical operations per call (keys
        probed, signatures verified …), the denominator for per-op
        latency.
    checksum:
        ``checksum(state, result) -> str``; a deterministic digest of
        the *result*, used both as the paired equal-results lock and as
        the cross-run/cross-machine identity check in ``--check``.
    baseline:
        Optional scalar oracle ``baseline(state) -> result``; present
        on paired cases.
    min_speedup:
        Floor the fast path must clear over the oracle on any machine
        (paired cases only).  The CI gate takes the max of this floor
        and the committed baseline's speedup scaled by the tolerance.
    """

    name: str
    description: str
    setup: Callable[[int], Any]
    fast: Callable[[Any], Any]
    ops: Callable[[Any], int]
    checksum: Callable[[Any, Any], str]
    baseline: Optional[Callable[[Any], Any]] = None
    min_speedup: float = 1.0


def _time(fns: List[Callable[[Any], Any]], state: Any, rounds: int, warmup: int,
          slowdown_ns: int) -> tuple[List[List[int]], List[Any]]:
    """Per-call nanoseconds of each of ``fns`` after ``warmup``; each one's last result.

    One call of each per round, in an order that flips every round, so a
    host stall lands on both sides of a paired case.  ``slowdown_ns`` is
    busy-waited inside every timed call of ``fns[0]`` only.
    """
    sides = list(range(len(fns)))
    samples: List[List[int]] = [[] for _ in fns]
    results: List[Any] = [None] * len(fns)
    for round_ in range(rounds):
        for side in sides if round_ % 2 == 0 else sides[::-1]:
            started = monotonic_ns()
            results[side] = fns[side](state)
            if round_ >= warmup:
                busy_wait_ns(slowdown_ns if side == 0 else 0)
                samples[side].append(monotonic_ns() - started)
    return samples, results


def _timing(fn: Callable[[Any], Any], state: Any, ops: int,
            samples_ns: List[int]) -> Dict[str, float]:
    """One side's timing from its samples, plus a call for its allocation peak."""
    samples = np.array(samples_ns, dtype=np.float64)
    median_call_ns = float(np.percentile(samples, 50))
    per_op = samples / float(max(ops, 1))
    tracemalloc.start()
    fn(state)
    _, alloc_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "ops_per_sec": float(max(ops, 1)) / (median_call_ns / 1e9),
        "p50_ns_per_op": float(np.percentile(per_op, 50)),
        "p99_ns_per_op": float(np.percentile(per_op, 99)),
        "median_call_ms": median_call_ns / 1e6,
        "alloc_peak_bytes": int(alloc_peak),
    }


def run_case(
    case: BenchCase,
    seed: int,
    warmup: int,
    repeats: int,
    slowdown_ns: int = 0,
) -> Dict[str, Any]:
    """Measure one case; returns its report entry.

    ``slowdown_ns`` injects a busy-wait into every *fast-path* call —
    the hook the regression-gate self-test uses to fake a slowdown
    without touching product code.
    """
    if warmup < 0 or repeats < 1:
        raise PerfError("need warmup >= 0 and repeats >= 1")
    state = case.setup(seed)
    ops = int(case.ops(state))
    if ops < 1:
        raise PerfError(f"case {case.name!r} reports {ops} ops")
    fns = [case.fast] if case.baseline is None else [case.fast, case.baseline]
    samples, results = _time(fns, state, warmup + repeats, warmup, slowdown_ns)
    fast_timing = _timing(case.fast, state, ops, samples[0])
    digest = case.checksum(state, results[0])
    entry: Dict[str, Any] = {
        "kind": "paired" if case.baseline is not None else "single",
        "description": case.description,
        "ops": ops,
        "checksum": digest,
        "min_speedup": float(case.min_speedup),
        "timing": {"fast": fast_timing},
    }
    if case.baseline is not None:
        base_digest = case.checksum(state, results[1])
        if base_digest != digest:
            raise PerfError(
                f"case {case.name!r}: fast path and scalar oracle disagree "
                f"(fast {digest[:16]}, oracle {base_digest[:16]})"
            )
        base_timing = _timing(case.baseline, state, ops, samples[1])
        entry["timing"]["baseline"] = base_timing
        entry["timing"]["speedup"] = fast_timing["ops_per_sec"] / base_timing["ops_per_sec"]
    return entry


def run_suite(
    cases: Sequence[BenchCase],
    seed: int,
    warmup: int,
    repeats: int,
    slowdown_ns: int = 0,
) -> Dict[str, Dict[str, Any]]:
    """Measure every case; returns ``{case name: entry}``."""
    names = [case.name for case in cases]
    if len(set(names)) != len(names):
        raise PerfError(f"duplicate case names in suite: {sorted(names)}")
    return {
        case.name: run_case(
            case, seed, warmup, repeats, slowdown_ns=slowdown_ns
        )
        for case in cases
    }
