"""E20 — Observability overhead: instrumentation must not move the numbers.

Claim: the :mod:`repro.obs` layer (metrics registry, per-query trace
spans, exporters) observes every stage of the revocation pipeline
without perturbing it.  Two properties make that claim checkable:

* **Zero simulated-time cost.**  Instrumentation draws no randomness,
  sets no timers and schedules no events, so the discrete-event run is
  the *same run* with and without ``instrument=True`` — every answer,
  every sim-time latency, identical.  The p50 regression bound below
  (<5%) is therefore expected to measure ~0%; a non-zero value means
  instrumentation leaked into the event schedule, which is a bug.
* **Bounded wall-clock cost.**  Counters, histogram observes and span
  dicts do cost real CPU.  The wall-clock column reports that price
  informationally (CI machines are too noisy for a tight assert), and
  the committed CSV records it.

Method: the E17 burst workload (status checks through a 4-shard
cluster with the serial-server cost model) runs twice per row — once
uninstrumented, once with ``instrument=True`` — and the table compares
sim-time p50/p99, answers, and wall-clock runtime, plus the span and
metric volume the instrumented run produced.
"""

import time

import numpy as np

from repro.cluster import ClusterConfig, SimulatedCluster
from repro.metrics.reporting import Table

POPULATION = 1000
BURST_QUERIES = 1500
SEED = 20
NUM_SHARDS = 4
MAX_P50_REGRESSION = 0.05  # the acceptance bound: <5% sim-time p50


def _burst_run(instrument, queries=BURST_QUERIES, seed=SEED):
    """The E17 burst, with instrumentation on or off; returns measurements."""
    cluster = SimulatedCluster(
        NUM_SHARDS,
        config=ClusterConfig(replication_factor=1),
        seed=seed,
        instrument=instrument,
    )
    population = cluster.seed_population(POPULATION, revoked_fraction=0.3)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, population.size, size=queries)
    sim = cluster.simulator
    answers, latencies = {}, {}

    def ask(slot, identifier):
        started = sim.now
        cluster.frontend.status_async(
            identifier,
            lambda answer: (
                answers.__setitem__(slot, answer),
                latencies.__setitem__(slot, sim.now - started),
            ),
        )

    for slot, index in enumerate(indices):
        sim.schedule(0.0, ask, slot, population.identifiers[index])
    # E20 measures the real wall-clock overhead of instrumentation.
    wall_started = time.perf_counter()
    sim.run(until=120.0)
    wall = time.perf_counter() - wall_started
    assert len(answers) == queries
    for slot, index in enumerate(indices):
        assert answers[slot].ok
        assert answers[slot].revoked == population.revoked(index)
    ordered = np.array(sorted(latencies.values()))
    return {
        "p50_ms": float(np.percentile(ordered, 50)) * 1e3,
        "p99_ms": float(np.percentile(ordered, 99)) * 1e3,
        "wall_s": wall,
        "spans": len(cluster.obs.spans) if cluster.obs is not None else 0,
        "metrics": len(cluster.obs.metrics) if cluster.obs is not None else 0,
        "latencies": latencies,
    }


def _compare(report, queries, seed, title):
    base = _burst_run(instrument=False, queries=queries, seed=seed)
    instrumented = _burst_run(instrument=True, queries=queries, seed=seed)
    table = Table(
        headers=[
            "variant", "queries", "p50 (ms)", "p99 (ms)",
            "wall (s)", "spans", "metric series",
        ],
        title=title,
    )
    for name, r in (("baseline", base), ("instrumented", instrumented)):
        table.add(
            name, queries,
            f"{r['p50_ms']:.3f}", f"{r['p99_ms']:.3f}",
            f"{r['wall_s']:.2f}", r["spans"], r["metrics"],
        )
    overhead = (
        instrumented["p50_ms"] / base["p50_ms"] - 1.0
        if base["p50_ms"] > 0 else 0.0
    )
    wall_overhead = (
        instrumented["wall_s"] / base["wall_s"] - 1.0
        if base["wall_s"] > 0 else 0.0
    )
    table.add(
        "p50 overhead", "", f"{overhead:+.2%}", "",
        f"{wall_overhead:+.2%}", "", "",
    )
    report(table)

    # The acceptance bound — and the stronger truth behind it: the
    # instrumented run is the *same* simulated run, latency for
    # latency, because obs never touches the event schedule.
    assert overhead < MAX_P50_REGRESSION
    assert base["latencies"] == instrumented["latencies"]
    # The instrumented run actually observed the workload.
    assert instrumented["spans"] >= queries
    assert instrumented["metrics"] > 0
    return overhead


def test_e20_instrumentation_overhead(report, benchmark):
    _compare(
        report, BURST_QUERIES, SEED,
        title="E20: observability overhead on the E17 burst workload",
    )
    benchmark(lambda: _burst_run(instrument=True, queries=200, seed=29))


def test_e20_smoke_overhead(report):
    """CI smoke: the comparison holds at 1/7th the workload."""
    _compare(
        report, 200, SEED + 1,
        title="E20 smoke: observability overhead (reduced burst)",
    )
