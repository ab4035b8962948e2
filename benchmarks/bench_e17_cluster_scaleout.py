"""E17 — Cluster scale-out: sharding multiplies revocation-service throughput.

Claim: the paper's economics (appendix; section 4.4's "perhaps fifty
machines" sizing) assume the revocation service scales *horizontally* —
planetary status-check load is served by adding shards behind a
stateless frontend, and replication absorbs node failures without
serving stale revocation state.

Method: the whole cluster (consistent-hash ring, replica groups,
batching frontend) runs inside the discrete-event simulator with a
serial-server cost model on every shard, so a shard has a concrete
capacity ceiling.  A fixed burst of status checks is pushed through
clusters of 1/2/4/8 shards and we measure sustained throughput and p99
latency; then a 4-shard, 3-way-replicated cluster serves a steady load
while one replica is killed mid-run, and every answer is checked
against the seeded ground truth.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, SimulatedCluster
from repro.metrics.reporting import Table
from repro.perf.workloads import burst_indices

SHARD_COUNTS = (1, 2, 4, 8)
BURST_QUERIES = 1500
POPULATION = 1000


GROUP = 50  # queries per status_many_async batch in the steady-load driver


def _drive(cluster, population, indices, spacing, kill=None, until=120.0):
    """Drive queries through the batch status path; (answers, latencies).

    Queries arrive in groups of :data:`GROUP` through
    ``status_many_async`` — one vectorized Bloom pass and per-shard RPC
    batching per group, the same end-to-end path production reads take.
    """
    sim = cluster.simulator
    answers, latencies = {}, {}

    def ask_group(base_slot, identifiers):
        started = sim.now

        def record(offset, answer):
            answers[base_slot + offset] = answer
            latencies[base_slot + offset] = sim.now - started

        cluster.frontend.status_many_async(
            [identifier.serial for identifier in identifiers], record
        )

    for base_slot in range(0, len(indices), GROUP):
        batch = [
            population.identifiers[index]
            for index in indices[base_slot : base_slot + GROUP]
        ]
        sim.schedule(base_slot * spacing, ask_group, base_slot, batch)
    if kill is not None:
        at, victim = kill
        sim.schedule(at, cluster.kill_shard, victim)
    sim.run(until=until)
    return answers, latencies


def _burst_run(num_shards, queries=BURST_QUERIES, seed=17):
    """Push a burst through an unreplicated cluster; measure drain."""
    cluster = SimulatedCluster(
        num_shards,
        config=ClusterConfig(replication_factor=1),
        seed=seed,
    )
    population = cluster.seed_population(POPULATION, revoked_fraction=0.3)
    indices = burst_indices(seed, population.size, queries)
    sim = cluster.simulator
    finished = {}
    answers, latencies = {}, {}

    def ask_all(identifiers):
        started = sim.now

        def record(slot, answer):
            answers[slot] = answer
            latencies[slot] = sim.now - started
            finished[slot] = sim.now

        cluster.frontend.status_many_async(
            [identifier.serial for identifier in identifiers], record
        )

    # The whole burst lands at t=0 as one batch call: a single
    # vectorized Bloom pass, then per-shard RPC batching fans the
    # survivors out — the end-to-end batch read path under burst load.
    sim.schedule(
        0.0,
        ask_all,
        [population.identifiers[index] for index in indices],
    )
    sim.run(until=120.0)
    assert len(answers) == queries
    for slot, index in enumerate(indices):
        assert answers[slot].ok
        assert answers[slot].revoked == population.revoked(index)
    makespan = max(finished.values())
    ordered = np.array(sorted(latencies.values()))
    return {
        "throughput": queries / makespan,
        "p50_ms": float(np.percentile(ordered, 50)) * 1e3,
        "p99_ms": float(np.percentile(ordered, 99)) * 1e3,
        "makespan_s": makespan,
    }


def test_e17_throughput_scales_with_shards(report, benchmark):
    table = Table(
        headers=["shards", "queries", "throughput (q/s)", "p50 (ms)", "p99 (ms)"],
        title="E17: cluster scale-out under a status-check burst",
    )
    results = {}
    for num_shards in SHARD_COUNTS:
        results[num_shards] = _burst_run(num_shards)
        r = results[num_shards]
        table.add(
            num_shards,
            BURST_QUERIES,
            f"{r['throughput']:,.0f}",
            f"{r['p50_ms']:.1f}",
            f"{r['p99_ms']:.1f}",
        )
    report(table)

    throughputs = [results[n]["throughput"] for n in SHARD_COUNTS]
    # The claim's shape: every doubling of shards buys more throughput,
    # and the 8-shard cluster clears at least 4x the single shard.
    for smaller, larger in zip(throughputs, throughputs[1:]):
        assert larger > smaller
    assert throughputs[-1] > 4 * throughputs[0]
    # The queue-drain tail shrinks as capacity grows.
    assert results[8]["p99_ms"] < results[1]["p99_ms"]

    benchmark(lambda: _burst_run(2, queries=200, seed=29))


def test_e17_replica_failure_mid_run(report):
    cluster = SimulatedCluster(
        num_shards=4,
        config=ClusterConfig(replication_factor=3, read_quorum=2),
        seed=23,
        rpc_timeout=0.1,
    )
    population = cluster.seed_population(600, revoked_fraction=0.35)
    indices = burst_indices(23, population.size, 500)
    victim = "shard-2"
    answers, latencies = _drive(
        cluster, population, indices, spacing=0.001, kill=(0.2, victim)
    )

    assert len(answers) == len(indices)
    correct = sum(
        1
        for slot, index in enumerate(indices)
        if answers[slot].ok and answers[slot].revoked == population.revoked(index)
    )
    ordered = np.array(sorted(latencies.values()))
    table = Table(
        headers=["metric", "value"],
        title="E17: steady load with one replica killed mid-run",
    )
    table.add("queries", len(indices))
    table.add("correct answers", correct)
    table.add("killed shard", victim)
    table.add("suspected shards", ",".join(cluster.detector.suspects()))
    table.add("p50 (ms)", f"{np.percentile(ordered, 50) * 1e3:.1f}")
    table.add("p99 (ms)", f"{np.percentile(ordered, 99) * 1e3:.1f}")
    table.add("read repairs", cluster.frontend.stats.read_repairs)
    report(table)

    # Every answer — including those issued after the kill — matches
    # the seeded ground truth: quorum reads never serve stale state.
    assert correct == len(indices)
    assert cluster.detector.suspects() == [victim]
