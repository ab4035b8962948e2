"""One assembly, three adapters: the same seed must mean the same cluster.

The scenario — claim, revoke, lose a replica, read, get it back — runs
on the local, netsim and asyncio adapters from one seed and one
frontend configuration; every adapter must give the same answers and
end in the same replica state, and on all three a second owner's claim
of the same bytes is refused.  The population test holds the netsim
and asyncio adapters to byte-equal seeded records, and the read-path
tests hold all three to one signature per authoritative read and to
batches that leave when the tick ends, not when a timer fires.
"""

import asyncio

import numpy as np
import pytest

from repro.chaos import resilience_config, state_digest
from repro.cluster import ClusterConfig, LearningBloom, LocalCluster, SimulatedCluster
from repro.cluster.shard import CLAIM_COLLISION
from repro.core.errors import ClaimError
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.ledger.recovery import records_digest
from repro.service.cluster import FILTER_CAPACITY, RPC_TIMEOUT, LiveCluster

SEED = 7


def _shared():
    """What the synchronous and netsim adapters need to match the live one."""
    return dict(config=ClusterConfig.full(), seed=SEED, cluster_id="irs1")


ADAPTERS = {
    "local": lambda: LocalCluster(
        4, filterset=LearningBloom(FILTER_CAPACITY), **_shared()
    ),
    "netsim": lambda: SimulatedCluster(
        4, filterset=LearningBloom(FILTER_CAPACITY), **_shared()
    ),
    "asyncio": lambda: LiveCluster(4, seed=SEED),
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


# -- a claim is its owner's ----------------------------------------------------


async def _second_owner(make):
    cluster = make()
    frontend = cluster.frontend
    first = KeyPair.generate(bits=512, rng=cluster.rngs.stream("owner-a"))
    second = KeyPair.generate(bits=512, rng=cluster.rngs.stream("owner-b"))
    content_hash = sha256_hex(b"assembly:contested")

    def claim(owner):
        signature = owner.sign(content_hash.encode("utf-8"))
        return _call(cluster, lambda cb: frontend.claim_async(
            content_hash, signature, owner.public, cb
        ))

    def records(serial):
        return {
            shard_id: cluster.shards[shard_id].ledger.store.get(serial).to_payload()
            for shard_id in cluster.placement(serial)
        }

    identifier, error = await claim(first)
    assert error is None
    held = records(identifier.serial)
    assert len(held) == 3

    # Same bytes, another owner's key: refused on every replica, and
    # the first owner's record is untouched.
    taken, error = await claim(second)
    assert error == CLAIM_COLLISION and taken == identifier
    assert records(identifier.serial) == held

    # The first owner's retry is still an idempotent duplicate.
    again, error = await claim(first)
    assert error is None and again == identifier
    assert records(identifier.serial) == held
    for shard_id in cluster.placement(identifier.serial):
        shard = cluster.shards[shard_id]
        payload = {
            "serial": identifier.serial,
            "content_hash": content_hash,
            "public_key": first.public,
        }
        assert shard.claim(payload) == {
            "serial": identifier.serial, "duplicate": True
        }
        with pytest.raises(ClaimError, match=CLAIM_COLLISION):
            shard.claim({**payload, "public_key": second.public})
    if frontend.hints is not None:
        assert frontend.hints.pending() == 0  # a refusal is not a missed write


@pytest.mark.parametrize("adapter", sorted(ADAPTERS))
def test_another_owner_cannot_claim_the_same_content(adapter):
    asyncio.run(_second_owner(ADAPTERS[adapter]))


class _StoppedLoop:
    """Stands in for the event loop where only its clock is read."""

    def time(self) -> float:
        return 0.0


def test_the_served_default_is_the_policy_e19_measured():
    """``full`` is written once: serve's default and E19's tier cannot drift."""
    live = LiveCluster(loop=_StoppedLoop())
    assert live.frontend.config == resilience_config("full", 4).resolved()


def test_seeded_population_is_identical_on_netsim_and_asyncio():
    netsim = SimulatedCluster(4, **_shared())
    live = LiveCluster(4, seed=SEED, loop=_StoppedLoop())
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


# -- one signature, no timer ---------------------------------------------------


def _spy_status_rpcs(cluster, log):
    """Append ``(sim time or None, shard, serials)`` to ``log`` per status RPC."""
    invoke = cluster.transport.invoke
    simulator = getattr(cluster, "simulator", None)

    def spy(shard_id, method, payload, callback, timeout=None):
        if method == "status":
            now = simulator.now if simulator is not None else None
            log.append((now, shard_id, list(payload["serials"])))
        invoke(shard_id, method, payload, callback, timeout=timeout)

    cluster.transport.invoke = spy


def _signatures(cluster):
    return sum(
        shard.ledger.status_queries_served for shard in cluster.shards.values()
    )


def _assert_proven(cluster, answer, revoked):
    assert answer.ok and answer.source == "shard", answer
    assert answer.revoked == revoked
    assert answer.proof is not None and answer.proof.revoked == answer.revoked
    assert cluster.directory.verify(answer.proof)


async def _one_signature(make):
    cluster = make()
    population = cluster.seed_population(8, revoked_fraction=1.0)
    identifier = population.identifiers[0]
    log = []
    _spy_status_rpcs(cluster, log)

    # (On netsim "exactly one" also needs the signer's reply among the
    # first two to arrive, which this seed's link latencies give.)
    before = _signatures(cluster)
    (answer,) = await _call(
        cluster, lambda cb: cluster.frontend.status_async(identifier, cb)
    )
    _assert_proven(cluster, answer, revoked=True)
    assert _signatures(cluster) - before == 1
    assert len(log) == 3 and cluster.frontend.stats.proof_fetches == 0

    # Kill the replica that signs, before anything suspects it: the
    # other two still make the quorum, neither signed, and one of them
    # is asked again for a proof.
    signer = cluster.frontend.replicas_for(identifier)[0]
    assert answer.answered_by == signer
    cluster.kill_shard(signer)
    del log[:]
    (answer,) = await _call(
        cluster, lambda cb: cluster.frontend.status_async(identifier, cb)
    )
    _assert_proven(cluster, answer, revoked=True)
    assert answer.answered_by != signer
    assert len(log) == 4 and cluster.frontend.stats.proof_fetches == 1
    assert sorted(shard for _, shard, _ in log).count(answer.answered_by) == 2


@pytest.mark.parametrize("adapter", sorted(ADAPTERS))
def test_authoritative_read_costs_one_signature(adapter):
    asyncio.run(_one_signature(ADAPTERS[adapter]))


async def _one_tick(make):
    cluster = make()
    population = cluster.seed_population(64, revoked_fraction=1.0)
    groups = {}
    for identifier in population.identifiers:
        groups.setdefault(
            tuple(cluster.placement(identifier.serial)), []
        ).append(identifier)
    together = max(groups.values(), key=len)[:5]
    log = []
    _spy_status_rpcs(cluster, log)
    loop = asyncio.get_running_loop()

    # k lookups for the same shards, issued together: one RPC per shard
    # carrying all k serials.
    answers = {}
    done = loop.create_future()

    def collect(index, answer):
        answers[index] = answer
        if len(answers) == len(together):
            done.set_result(None)

    cluster.frontend.status_many_async(
        [identifier.serial for identifier in together], collect, use_filter=False
    )
    if isinstance(cluster, SimulatedCluster):
        cluster.simulator.run()
    await asyncio.wait_for(done, timeout=5.0)
    for answer in answers.values():
        _assert_proven(cluster, answer, revoked=True)
    serials = sorted(identifier.serial for identifier in together)
    assert sorted(shard for _, shard, _ in log[:3]) == sorted(
        cluster.placement(serials[0])
    )
    assert all(sorted(carried) == serials for _, _, carried in log[:3])
    # Anything after those three is a proof fetch (netsim: a signer
    # whose reply came third).
    assert (
        sum(len(carried) for _, _, carried in log[3:])
        == cluster.frontend.stats.proof_fetches
    )

    # A lone lookup leaves in the tick after the one that enqueued it.
    del log[:]
    if isinstance(cluster, SimulatedCluster):
        sim = cluster.simulator
        issued = sim.now
        answered = []
        cluster.frontend.status_async(
            together[0], lambda answer: answered.append(sim.now)
        )
        sim.run()
        # Sent at the instant it was asked for, answered one round trip
        # on the LAN model later; the 2 ms window alone used to cost more.
        assert [sent for sent, _, _ in log[:3]] == [issued] * 3
        assert 0.0 < answered[0] - issued < 0.002
    else:
        # The end-of-tick marker is a ``call_soon`` of its own, behind
        # whatever the admitting iteration had already queued.
        answered = loop.create_future()
        loop.call_soon(log.append, "next tick")
        cluster.frontend.status_async(together[0], answered.set_result)
        assert log == []
        loop.call_soon(loop.call_soon, log.append, "tick after")
        await asyncio.wait_for(answered, timeout=5.0)
        assert [entry if isinstance(entry, str) else "rpc" for entry in log] == [
            "next tick", "rpc", "rpc", "rpc", "tick after",
        ]


@pytest.mark.parametrize("adapter", ["asyncio", "netsim"])
def test_lookups_of_one_tick_share_an_rpc_and_none_waits_on_a_timer(adapter):
    asyncio.run(_one_tick(ADAPTERS[adapter]))


def test_the_live_end_of_tick_marker_is_not_a_timer(monkeypatch):
    async def inner():
        cluster = ADAPTERS["asyncio"]()
        population = cluster.seed_population(64, revoked_fraction=1.0)
        first = population.identifiers[0]
        second = next(
            identifier
            for identifier in population.identifiers[1:]
            if cluster.placement(identifier.serial)
            == cluster.placement(first.serial)
        )
        log = []
        _spy_status_rpcs(cluster, log)
        loop = asyncio.get_running_loop()
        delays = []
        call_later = loop.call_later

        def counted(delay, *args):
            delays.append(delay)
            return call_later(delay, *args)

        monkeypatch.setattr(loop, "call_later", counted)
        # Two reads admitted in one loop iteration, each by its own call.
        answers = [loop.create_future(), loop.create_future()]
        cluster.frontend.status_async(first, answers[0].set_result, proof=False)
        cluster.frontend.status_async(second, answers[1].set_result, proof=False)
        for answer in await asyncio.wait_for(asyncio.gather(*answers), 5.0):
            assert answer.ok and answer.revoked
        # One RPC per shard carried both ...
        assert sorted(shard for _, shard, _ in log) == sorted(
            cluster.placement(first.serial)
        )
        assert all(
            carried == [first.serial, second.serial] for _, _, carried in log
        )
        # ... and every timer armed waits for something (a deadline
        # backstop per read, the test's own wait_for): none for the
        # marker, and none for an RPC to a live, undelayed replica.
        assert delays.count(0.25) == 2 and min(delays) > 0.0
        assert RPC_TIMEOUT not in delays

    asyncio.run(inner())
