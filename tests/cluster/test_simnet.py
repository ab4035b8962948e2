"""The cluster under the discrete-event simulator: faults and determinism."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ShardCostModel, SimulatedCluster


def _run_queries(cluster, population, indices, kill_at=None, victim=None):
    """Schedule status queries; returns parallel (answers, latencies)."""
    sim = cluster.simulator
    answers = {}
    latencies = {}

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
        sim.schedule(slot * 0.002, ask, slot, population.identifiers[index])
    if kill_at is not None:
        sim.schedule(kill_at, cluster.kill_shard, victim)
    sim.run(until=30.0)
    return answers, latencies


def _small_cluster(seed=11, **kwargs):
    kwargs.setdefault("config", ClusterConfig(replication_factor=3))
    kwargs.setdefault("rpc_timeout", 0.05)
    return SimulatedCluster(num_shards=3, seed=seed, **kwargs)


def test_quorum_reads_correct_with_replica_killed_mid_run():
    cluster = _small_cluster()
    population = cluster.seed_population(80, revoked_fraction=0.3)
    rng = np.random.default_rng(5)
    indices = rng.integers(0, population.size, size=60)
    answers, latencies = _run_queries(
        cluster, population, indices, kill_at=0.05, victim="shard-1"
    )
    assert len(answers) == len(indices)
    for slot, index in enumerate(indices):
        answer = answers[slot]
        assert answer.ok, answer.error
        assert answer.revoked == population.revoked(index)
    # The dead shard is discovered through timeouts alone.
    assert cluster.detector.suspects() == ["shard-1"]
    # Hedged quorum reads mask the dead replica: no query ever waits
    # for the RPC timeout, the surviving pair answers first.
    assert max(latencies.values()) < cluster.transport.timeout


def test_population_seeding_places_real_replicas():
    cluster = _small_cluster()
    population = cluster.seed_population(50, revoked_fraction=0.5)
    replication = cluster.frontend.config.replication_factor
    for index, identifier in enumerate(population.identifiers):
        replicas = cluster.ring.replicas(identifier.to_compact(), replication)
        for shard_id in replicas:
            record = cluster.shards[shard_id].ledger.store.get(identifier.serial)
            assert record is not None
            assert (record.revocation_epoch == 1) == population.revoked(index)
    with pytest.raises(ValueError):
        cluster.seed_population(1, revoked_fraction=1.5)


def test_batching_amortizes_shard_requests():
    cluster = _small_cluster()
    population = cluster.seed_population(100, revoked_fraction=0.2)
    sim = cluster.simulator
    done = []
    sent = []  # (sim time, shard, batch size) of every status RPC
    invoke = cluster.transport.invoke

    def spy(shard_id, method, payload, callback, timeout=None):
        if method == "status":
            sent.append((sim.now, shard_id, len(payload["serials"])))
        invoke(shard_id, method, payload, callback, timeout=timeout)

    cluster.transport.invoke = spy
    # A burst arriving at one instant must coalesce.
    for index in range(40):
        identifier = population.identifiers[index]
        sim.schedule(
            0.0005, cluster.frontend.status_async, identifier, done.append
        )
    sim.run(until=10.0)
    stats = cluster.frontend.stats
    assert len(done) == 40
    # Three shards, replication 3: every shard hears of all 40 ids at
    # the instant they arrived, in one RPC of 32 (max_batch) and one of
    # 8.  What follows are proof fetches for reads whose signer was the
    # last of the three to answer.
    assert sorted(sent[:6]) == sorted(
        (0.0005, f"shard-{i}", size) for i in range(3) for size in (32, 8)
    )
    assert sum(size for _, _, size in sent[6:]) == stats.proof_fetches
    assert stats.shard_lookups == 120 + stats.proof_fetches


def test_same_seed_same_trajectory():
    outcomes = []
    for _ in range(2):
        cluster = _small_cluster(seed=23)
        population = cluster.seed_population(40, revoked_fraction=0.4)
        indices = list(range(30))
        answers, latencies = _run_queries(cluster, population, indices)
        outcomes.append(
            (
                [answers[slot].revoked for slot in range(len(indices))],
                [round(latencies[slot], 9) for slot in range(len(indices))],
                cluster.simulator.now,
            )
        )
    assert outcomes[0] == outcomes[1]


def test_revive_heals_via_read_repair_in_sim():
    cluster = _small_cluster(
        config=ClusterConfig(replication_factor=3, read_quorum=2)
    )
    population = cluster.seed_population(10, revoked_fraction=0.0)
    sim = cluster.simulator
    identifier = population.identifiers[0]
    replicas = cluster.frontend.replicas_for(identifier)
    victim = replicas[-1]

    # Manually diverge the victim: it misses a revocation epoch.
    for shard_id in replicas:
        if shard_id == victim:
            continue
        record = cluster.shards[shard_id].ledger.store.get(identifier.serial)
        from repro.ledger.records import RevocationState

        record.state = RevocationState.REVOKED
        record.revocation_epoch = 1

    answers = []
    sim.schedule(0.0, cluster.frontend.status_async, identifier, answers.append)
    sim.run(until=5.0)
    assert answers and answers[0].revoked and answers[0].epoch == 1
    sim.run(until=10.0)  # let the repair RPC land
    healed = cluster.shards[victim].ledger.store.get(identifier.serial)
    assert healed.revocation_epoch == 1


def test_cost_model_prices_batches():
    model = ShardCostModel(request_overhead=1.0, per_status_item=0.5, per_write=2.0)
    assert model.cost("status", {"serials": [1, 2, 3]}) == pytest.approx(2.5)
    assert model.cost("claim", {}) == pytest.approx(3.0)
    assert model.cost("challenge", {}) == pytest.approx(1.0)
