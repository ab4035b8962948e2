"""One assembly, three adapters: the same seed must mean the same cluster.

The scenario — claim, revoke, lose a replica, read, get it back — runs
on the local, netsim and asyncio adapters from one seed and one
frontend configuration; every adapter must give the same answers and
end in the same replica state.  The population test holds the netsim
and asyncio adapters to byte-equal seeded records.
"""

import asyncio

import numpy as np
import pytest

from repro.chaos import state_digest
from repro.cluster import LearningBloom, LocalCluster, SimulatedCluster
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.ledger.recovery import records_digest
from repro.service.cluster import LiveCluster, LiveClusterConfig

SEED = 7
LIVE = LiveClusterConfig(num_shards=4, seed=SEED)


def _shared():
    """What the synchronous and netsim adapters need to match the live one."""
    return dict(config=LIVE.cluster_config(), seed=SEED, cluster_id="irs1")


ADAPTERS = {
    "local": lambda: LocalCluster(
        4, filterset=LearningBloom(LIVE.filter_capacity), **_shared()
    ),
    "netsim": lambda: SimulatedCluster(
        4, filterset=LearningBloom(LIVE.filter_capacity), **_shared()
    ),
    "asyncio": lambda: LiveCluster(LIVE),
}


async def _call(cluster, start):
    """Issue one callback-style call; wait for its answer and stragglers."""
    answered = asyncio.get_running_loop().create_future()
    start(lambda *result: answered.set_result(result))
    if isinstance(cluster, SimulatedCluster):
        cluster.simulator.run()
    result = await asyncio.wait_for(answered, timeout=5.0)
    await asyncio.sleep(0.01)  # live: let post-quorum replica replies land
    return result


async def _scenario(make):
    cluster = make()
    frontend = cluster.frontend
    owner = KeyPair.generate(bits=512, rng=cluster.rngs.stream("owner"))
    content_hash = sha256_hex(b"assembly:photo")
    signature = owner.sign(content_hash.encode("utf-8"))

    identifier, error = await _call(
        cluster,
        lambda cb: frontend.claim_async(content_hash, signature, owner.public, cb),
    )
    assert error is None
    outcome, error = await _call(
        cluster, lambda cb: frontend.revoke_async(identifier, owner, cb)
    )
    assert error is None

    victim = frontend.replicas_for(identifier)[0]
    cluster.kill_shard(victim)
    (answer,) = await _call(
        cluster, lambda cb: frontend.status_async(identifier, cb)
    )
    assert answer.answered_by in set(cluster.shards) - {victim}
    assert cluster.directory.verify(answer.proof)

    cluster.revive_shard(victim)
    (after,) = await _call(
        cluster, lambda cb: frontend.status_async(identifier, cb)
    )
    states = cluster.replica_states()
    holders = {
        shard_id: states[shard_id][identifier.serial]
        for shard_id in cluster.placement(identifier.serial)
    }
    assert len(set(holders.values())) == 1, holders
    return {
        "identifier": identifier.to_string(),
        "revoke": outcome,
        "answers": [
            (a.revoked, a.state, a.epoch, a.source, a.degraded, a.error)
            for a in (answer, after)
        ],
        "digest": state_digest(states),
    }


@pytest.fixture(scope="module")
def outcomes():
    return {name: asyncio.run(_scenario(make)) for name, make in ADAPTERS.items()}


@pytest.mark.parametrize("adapter", sorted(ADAPTERS))
def test_replica_loss_scenario_is_adapter_independent(adapter, outcomes):
    outcome = outcomes[adapter]
    assert outcome["answers"] == [(True, "revoked", 1, "shard", False, None)] * 2
    assert outcome == outcomes["local"]


class _StoppedLoop:
    """Stands in for the event loop where only its clock is read."""

    def time(self) -> float:
        return 0.0


def test_seeded_population_is_identical_on_netsim_and_asyncio():
    netsim = SimulatedCluster(4, **_shared())
    live = LiveCluster(LIVE, loop=_StoppedLoop())
    seeded = [c.seed_population(64, revoked_fraction=0.3) for c in (netsim, live)]

    assert seeded[0].identifiers == seeded[1].identifiers
    assert np.array_equal(seeded[0].revoked_mask, seeded[1].revoked_mask)
    assert seeded[0].owner.public == seeded[1].owner.public
    for shard_id in netsim.shards:
        digests = [
            records_digest(c.shards[shard_id].ledger.store.records_map())
            for c in (netsim, live)
        ]
        assert digests[0] == digests[1], shard_id
    # One seeding loop: a filterset that can learn hears every born-revoked id.
    assert live.frontend.filterset.added == int(seeded[1].revoked_mask.sum())
