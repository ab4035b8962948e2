#!/usr/bin/env python3
"""End-to-end benchmark of the live revocation service, with a per-layer budget.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--repeat N]

``--trace 0`` measures the end-to-end metrics: the real artefact
(``python -m repro serve --port 0``) as a subprocess on its own core,
driven over loopback by this one process through 2 keep-alive
connections, tracing off.  ``--trace 1`` measures the per-layer metrics:
a shorter set-up of the same subprocess run for the generator, process
and ``/metrics`` counters, then an in-process traced run of the same
seeded stream for the spans.  Without ``--trace`` both are run.

Every metric is printed by name with its unit.  The exit code is 1 when
any answer was wrong (see oracle.py).  When exactly one workload and one
trace mode are run, the last line of standard output is the result as
one JSON object, which is what the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from statistics import median
from typing import Dict, List, NamedTuple, Optional, Tuple

import loadgen
import promtext
import server
import tracing
from metrics import END_TO_END, PER_LAYER
from oracle import WRITE_KINDS, over_budget
from spans import write_jsonl
from stats import percentile, slices, spread
from workloads import WARMUP_REQUESTS, WORKLOADS, stream

ROUNDS = 3  # fresh servers per end-to-end run, each set up and measured
SLICE_SECONDS = 0.5
# The sandbox's host slows by 20-50% for seconds at a time (a pure-CPU
# loop shows it with nothing else running), always in the same
# direction, and often for more than half of a run.  So the timing
# metrics are read from the quietest tenth of a run's half-second
# slices, not from the median slice: across ten runs of one commit the
# median slice spread by 0.22-0.35, the quietest-tenth slice by
# 0.05-0.06.  Set-up time is likewise the quietest of the rounds'.
QUIET_PERCENTILE = 10
NOISY_LOAD = 0.5
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


class Result(NamedTuple):
    workload: str
    trace: int
    seed: int
    metrics: Dict[str, float]
    attempted: int
    failed: int
    violations: List[str]

    def contract_line(self) -> str:
        return json.dumps({
            "correct": not self.violations,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        })


# -- the subprocess run ---------------------------------------------------------------------


class Round(NamedTuple):
    """One fresh server: its set-up, one measured window, its audit."""

    setup_s: float
    samples: List[loadgen.Sample]
    marks: List[Tuple[float, float]]  # (time, server cpu so far) every SLICE_SECONDS
    own_cpu: float
    rss_start: float
    rss_checkpoint: float
    rss_end: float
    before: Dict[promtext.Sample, float]
    after: Dict[promtext.Sample, float]
    audit_misses: int
    violations: List[str]


async def measure_round(workload: str, seed: int, seconds: float) -> Round:
    spec = WORKLOADS[workload]
    started = time.perf_counter()
    srv = server.ServerProcess(workload)
    driver = None
    try:
        await loadgen.wait_healthy(srv.host, srv.port)
        oracle = await loadgen.populate(srv.host, srv.port, workload, seed)
        setup_s = time.perf_counter() - started
        driver = loadgen.Driver(srv.host, srv.port, oracle, stream(workload, seed))
        await driver.closed(count=WARMUP_REQUESTS)
        before = await loadgen.scrape(srv.host, srv.port)
        rss = {"start": srv.rss_mb()}
        driver.checkpoint = (
            WARMUP_REQUESTS + spec.rss_checkpoint,
            lambda: rss.setdefault("checkpoint", srv.rss_mb()),
        )
        marks: List[Tuple[float, float]] = []

        async def sample_cpu() -> None:
            while True:
                marks.append((time.perf_counter(), srv.cpu_seconds()))
                await asyncio.sleep(SLICE_SECONDS)

        own0 = time.process_time()
        sampler = asyncio.ensure_future(sample_cpu())
        try:
            if spec.loop == "closed":
                samples = await driver.closed(seconds=seconds)
            else:
                samples = await driver.open(seconds)
        finally:
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
        marks.append((time.perf_counter(), srv.cpu_seconds()))
        own_cpu = time.process_time() - own0
        rss["end"] = srv.rss_mb()
        after = await loadgen.scrape(srv.host, srv.port)
        audit_misses = await loadgen.audit(srv.host, srv.port, oracle, oracle.written)
    finally:
        if driver is not None:
            await driver.close()
        srv.stop()
    return Round(
        setup_s, samples, marks, own_cpu,
        rss["start"], rss.get("checkpoint", rss["end"]), rss["end"],
        before, after, audit_misses, list(oracle.violations),
    )


async def subprocess_run(workload: str, seed: int, seconds: float, rounds: int) -> Result:
    """``rounds`` fresh servers, each measured for ``seconds / rounds``.

    Splitting the window over several servers spreads it over more of
    the sandbox's slow and fast spells and over several process
    instances; set-up is timed on each.  The timing metrics come from
    the quietest slices of all rounds pooled (see QUIET_PERCENTILE),
    memory is the median over the rounds.
    """
    server.pin_generator(True)
    try:
        done_rounds = [
            await measure_round(workload, seed, seconds / rounds) for _ in range(rounds)
        ]
    finally:
        server.pin_generator(False)
    samples = [s for r in done_rounds for s in r.samples]
    parts = [
        part for r in done_rounds for part in slices(r.samples, r.marks)
        if part.seconds > SLICE_SECONDS / 2  # the stub left when the window closes
    ]
    attempted = sum(s.ops for s in samples)
    done = attempted - sum(s.failed for s in samples)
    failed = attempted - done + sum(r.audit_misses for r in done_rounds)
    wall = sum(r.marks[-1][0] - r.marks[0][0] for r in done_rounds)
    server_cpu = sum(r.marks[-1][1] - r.marks[0][1] for r in done_rounds)
    kop = max(done, 1) / 1000.0

    def latencies(*kinds):
        return [s.latency_ms for s in samples if s.kind in kinds]

    def counter(name, **labels):
        return sum(promtext.delta(r.before, r.after, name, **labels) for r in done_rounds)

    def succeeded(rows):
        return sum(s.ops - s.failed for s in rows)

    all_ms = [s.latency_ms for s in samples]
    ok_replies = sum(counter("service_responses_total", code=c) for c in ("200", "201", "304"))
    queries = counter("frontend_queries_total")
    batches = counter("frontend_batch_size_count")
    metrics = {
        "setup_s": min(r.setup_s for r in done_rounds),
        "ops_per_s": percentile(
            [succeeded(p.samples) / p.seconds for p in parts], 100 - QUIET_PERCENTILE
        ),
        "p50_ms": percentile(
            [percentile([s.latency_ms for s in p.samples], 50) for p in parts],
            QUIET_PERCENTILE,
        ),
        "p90_ms": percentile(
            [percentile([s.latency_ms for s in p.samples], 90) for p in parts],
            QUIET_PERCENTILE,
        ),
        "server_cpu_ms_per_op": percentile(
            [p.server_cpu * 1e3 / max(succeeded(p.samples), 1) for p in parts],
            QUIET_PERCENTILE,
        ),
        "server_rss_mb": median(r.rss_checkpoint for r in done_rounds),
        "loadgen.late_p99_ms": percentile([s.late * 1e3 for s in samples], 99),
        "loadgen.client_cpu_share": sum(r.own_cpu for r in done_rounds) / wall,
        "loadgen.p99_ms": percentile(all_ms, 99),
        "loadgen.max_ms": max(all_ms),
        "loadgen.status_p50_ms": percentile(latencies("status", "status_batch"), 50),
        "loadgen.status_p90_ms": percentile(latencies("status", "status_batch"), 90),
        "loadgen.write_p50_ms": percentile(latencies(*WRITE_KINDS), 50),
        "loadgen.write_p90_ms": percentile(latencies(*WRITE_KINDS), 90),
        "loadgen.bloom_p50_ms": percentile(latencies("bloom"), 50),
        "loadgen.failed_per_kop": failed / attempted * 1e3,
        "loadgen.over_budget_per_kop": (
            sum(s.ops for s in samples if over_budget(s.kind, s.latency_ms)) / attempted * 1e3
        ),
        "server.cpu_util": server_cpu / wall,
        "server.rss_growth_kb_per_kop": (
            sum(r.rss_end - r.rss_start for r in done_rounds) * 1024.0 / kop
        ),
        "service.app.non2xx_per_kop": (counter("service_responses_total") - ok_replies) / kop,
        "filters.bloom.short_circuit_ratio": (
            counter("frontend_filter_short_circuits_total") / queries if queries else 0.0
        ),
        "cluster.frontend.items_per_batch": (
            counter("frontend_batch_size_sum") / batches if batches else 0.0
        ),
        "cluster.frontend.retries_per_kop": counter("frontend_retries_total") / kop,
        "cluster.frontend.degraded_per_kop": counter("frontend_degraded_answers_total") / kop,
        "cluster.frontend.deadline_answers_per_kop": (
            counter("frontend_deadline_answers_total") / kop
        ),
    }
    violations = [v for r in done_rounds for v in r.violations]
    return Result(workload, 0, seed, metrics, attempted, failed, violations)


def end_to_end(workload: str, seed: int, seconds: float) -> Result:
    result = asyncio.run(subprocess_run(workload, seed, seconds, ROUNDS))
    wanted = {m.name for m in END_TO_END}
    return result._replace(
        metrics={k: v for k, v in result.metrics.items() if k in wanted}
    )


def per_layer(workload: str, seed: int, seconds: float) -> Result:
    outside = asyncio.run(subprocess_run(workload, seed, seconds, 1))

    async def inside():
        run = await tracing.traced_run(workload, seed)
        return run, await tracing.replay_protocol(run)

    run, (parse_s, render_s) = asyncio.run(inside())
    budget = tracing.layer_budget(run)
    layers = tracing.layer_metrics(run, budget, parse_s, render_s)
    server.OUT.mkdir(exist_ok=True)
    write_jsonl(run.spans, server.OUT / f"trace-{workload}.jsonl")
    with open(server.OUT / f"budget-{workload}.json", "w") as out:
        json.dump(budget, out, indent=1, sort_keys=True)
    merged = {**outside.metrics, **layers}
    metrics = {m.name: merged[m.name] for m in PER_LAYER}
    traced_failed = sum(s.failed for s in (*run.untraced, *run.traced))
    return Result(
        workload, 1, seed, metrics,
        outside.attempted + sum(s.ops for s in (*run.untraced, *run.traced)),
        outside.failed + traced_failed,
        outside.violations + run.violations,
    )


# -- printing ------------------------------------------------------------------------------------


def print_result(result: Result) -> None:
    kind = "per-layer" if result.trace else "end-to-end"
    print(f"== {result.workload} seed={result.seed} {kind}: "
          f"{result.attempted} ops attempted, {result.failed} failed")
    for name, value in result.metrics.items():
        print(f"  {name:<44} {value:>14.4f} {UNITS[name]}")
    for violation in result.violations:
        print(f"  VIOLATION {violation}")


def print_repeats(results: List[Result]) -> None:
    bounds = {m.name: m.bound for m in END_TO_END}
    grouped: Dict[tuple, List[float]] = {}
    for result in results:
        for name, value in result.metrics.items():
            grouped.setdefault((result.workload, name), []).append(value)
    print(f"\n{'workload':<14} {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), values in grouped.items():
        mid, q1, q3, share = spread(values)
        bound = bounds.get(name)
        verdict = "" if bound is None else f"{bound:>6.2f}" + (" !" if share > bound else "")
        print(f"{workload:<14} {name:<44} {mid:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{share:>8.3f} {verdict}")


def environment() -> dict:
    load = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_1m": load,
        "noisy": load > NOISY_LOAD,
    }


# -- entry ----------------------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured window (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole selection N times, alternating workload order")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    server.require_program()
    sys.path.insert(0, str(server.SRC))  # the traced run imports the program

    env = environment()
    print(f"nproc={env['nproc']} python={env['python']} load_1m={env['load_1m']:.2f}"
          + ("  NOISY: load average above 0.5, expect wider spreads" if env["noisy"] else ""))
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    results: List[Result] = []
    for round_ in range(args.repeat):
        for name in names if round_ % 2 == 0 else reversed(names):
            for mode in modes:
                measure = per_layer if mode else end_to_end
                result = measure(name, args.seed + round_, args.seconds)
                print_result(result)
                results.append(result)
    if args.repeat > 1:
        print_repeats(results)
    server.OUT.mkdir(exist_ok=True)
    with open(server.OUT / "results.json", "w") as out:
        json.dump({"environment": env, "seconds": args.seconds,
                   "runs": [r._asdict() for r in results]}, out, indent=1)
    if len(results) == 1:
        print(results[0].contract_line())
    return 1 if any(r.violations for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
