"""Property tests for the replication layer (Hypothesis).

Two properties carry the whole consistency story:

* **Quorum overlap** — for *any* replication factor N and quorums with
  R + W > N, a quorum-acknowledged write is observed by every later
  quorum read, no matter which replicas were down for the write and
  which are down for the read (within what the quorums tolerate).
* **LWW convergence** — replicas applying the same set of
  ``apply_state`` messages converge to the same (state, epoch)
  regardless of delivery order or duplication, and the survivor is the
  highest epoch.  This is the property the chaos self-test breaks on
  purpose (see :mod:`repro.chaos.selftest`).

A third holds the read path's economy to the first: a quorum read in
which one replica signs reaches the verdict of one in which all do,
under every reply order, and never answers without a proof.  A fourth
holds the verdict read (``proof=False``, nobody signs) to the proof
read: same replicas, same arrival order, same ``(revoked, state,
epoch)`` whenever the proof read answers at all.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterDirectory,
    ClusterFrontend,
    ClusterShard,
    HashRing,
    StatusCollector,
)
from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.records import ClaimRecord, RevocationState, claim_digest
from repro.netsim.simulator import ManualClock

from tests.cluster.conftest import HeldTransport, LocalCluster, signatures

MAX_SHARDS = 5


@st.composite
def quorum_scenarios(draw):
    """(n, w, r, dead-for-write, dead-for-read) with R + W > N.

    The dead sets stay within what each quorum tolerates — more
    failures than that and the operation *reports* failure, which is a
    different (also correct) outcome tested elsewhere.
    """
    n = draw(st.integers(1, MAX_SHARDS))
    w = draw(st.integers(1, n))
    r = draw(st.integers(n - w + 1, n))
    indexes = st.integers(0, n - 1)
    dead_for_write = draw(st.sets(indexes, max_size=n - w))
    dead_for_read = draw(st.sets(indexes, max_size=n - r))
    return n, w, r, sorted(dead_for_write), sorted(dead_for_read)


@settings(max_examples=25, deadline=None)
@given(scenario=quorum_scenarios())
def test_quorum_read_always_observes_quorum_write(scenario):
    n, w, r, dead_for_write, dead_for_read = scenario
    cluster = LocalCluster(
        num_shards=n,
        config=ClusterConfig(
            replication_factor=n, write_quorum=w, read_quorum=r
        ),
    )
    identifier = cluster.claim_photo("quorum-property")
    replicas = cluster.frontend.replicas_for(identifier)

    # Write (revoke) with some replicas down: quorum W still reachable.
    for index in dead_for_write:
        cluster.transport.kill(replicas[index])
    verdict = cluster.frontend.revoke(identifier, cluster.owner)
    assert verdict["epoch"] == 1

    # Read with a *different* set down (the writers may be the dead
    # ones now): quorum R must still observe the acknowledged epoch.
    for index in dead_for_write:
        cluster.transport.revive(replicas[index])
    for index in dead_for_read:
        cluster.transport.kill(replicas[index])
    answer = cluster.frontend.status(identifier)
    assert answer.ok
    assert answer.revoked
    assert answer.epoch == 1


@st.composite
def delivery_interleavings(draw):
    """One message set and two arbitrary deliveries of it.

    The second delivery duplicates every message (each arrives twice,
    in any order), modelling the duplication + reordering the netsim
    link-fault layer injects.
    """
    epochs = draw(
        st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True)
    )
    states = ["revoked", "not_revoked"]
    messages = [(epoch, draw(st.sampled_from(states))) for epoch in epochs]
    order_a = draw(st.permutations(messages))
    order_b = draw(st.permutations(messages + messages))
    return messages, order_a, order_b


_FIXTURES = {}


def _shared_fixtures():
    """One RSA key pair / TSA / claim template for every example."""
    if not _FIXTURES:
        rng = np.random.default_rng(99)
        clock = ManualClock()
        keypair = KeyPair.generate(bits=512, rng=rng)
        tsa = TimestampAuthority(
            keypair=KeyPair.generate(bits=512, rng=rng), clock=clock.now
        )
        content_hash = sha256_hex(b"lww-property")
        _FIXTURES.update(
            clock=clock,
            keypair=keypair,
            tsa=tsa,
            content_hash=content_hash,
            signature=keypair.sign(content_hash.encode("utf-8")),
            timestamp=tsa.issue(claim_digest(content_hash, keypair.public)),
        )
    return _FIXTURES


def _fresh_replica(shard_id: str, serial: int, keypair=None) -> ClusterShard:
    f = _shared_fixtures()
    shard = ClusterShard(
        shard_id,
        "lww",
        f["tsa"],
        keypair=keypair or f["keypair"],
        clock=f["clock"].now,
    )
    shard.ledger.store.put(
        ClaimRecord(
            identifier=PhotoIdentifier("lww", serial),
            content_hash=f["content_hash"],
            content_signature=f["signature"],
            public_key=f["keypair"].public,
            timestamp=f["timestamp"],
            state=RevocationState.NOT_REVOKED,
            revocation_epoch=0,
        )
    )
    return shard


@settings(max_examples=50, deadline=None)
@given(interleaving=delivery_interleavings())
def test_lww_convergence_is_order_and_duplication_independent(interleaving):
    messages, order_a, order_b = interleaving
    serial = 7
    replica_a = _fresh_replica("a", serial)
    replica_b = _fresh_replica("b", serial)
    for replica, order in ((replica_a, order_a), (replica_b, order_b)):
        for epoch, state in order:
            replica.apply_state(
                {"serial": serial, "state": state, "epoch": epoch}
            )

    record_a = replica_a.ledger.store.get(serial)
    record_b = replica_b.ledger.store.get(serial)
    # Convergence: same survivor on both replicas...
    assert (record_a.state, record_a.revocation_epoch) == (
        record_b.state,
        record_b.revocation_epoch,
    )
    # ...and the survivor is exactly the highest-epoch message.
    winner_epoch, winner_state = max(messages)
    assert record_a.revocation_epoch == winner_epoch
    assert record_a.state == RevocationState(winner_state)
    # Duplicated deliveries were recognized as stale, not re-applied.
    assert replica_b.stale_applies_ignored >= len(messages)


# -- the collector under every reply order --------------------------------------

_SERIAL = 7
_STATES = ["not_revoked", "revoked"]  # a replica's state at epoch e: e % 2


def _replica_keys():
    """One signing key per replica slot, generated once."""
    f = _shared_fixtures()
    if "replica_keys" not in f:
        rng = np.random.default_rng(7)
        f["replica_keys"] = [
            KeyPair.generate(bits=512, rng=rng) for _ in range(MAX_SHARDS)
        ]
    return f["replica_keys"]


def _replica_at(index: int, epoch: int) -> ClusterShard:
    shard = _fresh_replica(f"s{index}", _SERIAL, keypair=_replica_keys()[index])
    if epoch:
        shard.apply_state(
            {"serial": _SERIAL, "state": _STATES[epoch % 2], "epoch": epoch}
        )
    return shard


@st.composite
def read_scripts(draw):
    """(quorum, per-replica (reply kind, epoch), arrival order, fetch script).

    Every replica's reply to the read arrives, in any order; the ones
    after the quorum are the late ones.  ``fetch`` scripts the proof
    fetch, should the collector ask for one: how many further replies
    land before its own, and whether it comes back signed, as an error,
    or from a replica that has moved on to a newer epoch meanwhile.
    """
    n = draw(st.integers(1, MAX_SHARDS))
    quorum = draw(st.integers(1, n))
    replies = [
        (
            draw(st.sampled_from(["signed", "unsigned", "error"])),
            draw(st.integers(0, 3)),
        )
        for _ in range(n)
    ]
    order = draw(st.permutations(range(n)))
    fetch = (
        draw(st.integers(0, n)),
        draw(st.sampled_from(["signed", "error", "moved"])),
    )
    return quorum, replies, order, fetch


def _all_signed_oracle(quorum, replies, order):
    """The parent commit's collector: every replica signs, first quorum decides.

    Returns ``(ok, epoch, stale)``; ``stale`` in the order the old
    collector reported it (quorum members, then late replies).
    """
    n = len(replies)
    answers, errors, decided, late_stale = {}, 0, None, []
    for index in order:
        kind, epoch = replies[index]
        if decided is None:
            if kind == "error":
                errors += 1
                if n - errors < quorum:
                    return False, -1, []
            else:
                answers[index] = epoch
                if len(answers) >= quorum:
                    decided = max(answers.values())
        elif kind != "error" and epoch < decided:
            late_stale.append(index)
    stale = [i for i, epoch in answers.items() if epoch < decided]
    return True, decided, stale + late_stale


@settings(max_examples=150, deadline=None)
@given(script=read_scripts())
def test_collector_reaches_the_all_signed_verdict_under_any_reply_order(script):
    quorum, replies, order, (fetch_after, fetch_kind) = script
    shards = [_replica_at(i, epoch) for i, (_, epoch) in enumerate(replies)]
    names = [shard.shard_id for shard in shards]
    directory = ClusterDirectory(shards)
    ok, epoch, stale = _all_signed_oracle(quorum, replies, order)
    outcomes, repairs, fetches = [], [], []
    collector = StatusCollector(
        _SERIAL,
        names,
        quorum,
        outcomes.append,
        on_stale=lambda shard_id, outcome: repairs.append(shard_id),
        on_unproven=lambda shard_id, asked: fetches.append((shard_id, asked)),
    )

    def answer(index, signed):
        return shards[index].status(
            {"serials": [_SERIAL], "signed": [signed]}
        )[0]

    def land_fetch():
        asked = names.index(fetches[0][0])
        if fetch_kind == "error":
            collector.record_error(names[asked], "rpc timeout after 0.100s")
            return
        if fetch_kind == "moved":
            newer = replies[asked][1] + 1
            shards[asked].apply_state(
                {"serial": _SERIAL, "state": _STATES[newer % 2], "epoch": newer}
            )
        collector.record(names[asked], answer(asked, True))

    to_land = None  # replies still to arrive before the fetch's own
    for index in order:
        kind, _ = replies[index]
        decided = len(outcomes)
        if kind == "error":
            collector.record_error(names[index], "shard down")
        else:
            collector.record(names[index], answer(index, kind == "signed"))
        # A read the quorum can answer is never failed by a replica's
        # reply or error -- only, below, by losing the proof fetch.
        assert not ok or all(outcome.ok for outcome in outcomes[decided:])
        if to_land is None:
            to_land = fetch_after if fetches else None
        elif to_land > 0:
            to_land -= 1
        if to_land == 0:
            land_fetch()
            to_land = -1
    if to_land is not None and to_land > 0:
        land_fetch()

    assert len(outcomes) == 1  # on_done fires exactly once
    assert len(fetches) <= 1  # at most one proof fetch per attempt
    assert all(asked is collector for _, asked in fetches)
    outcome = outcomes[0]
    if not ok:
        assert not outcome.ok and "unreachable" in outcome.error
        assert not fetches
        return
    if not outcome.ok:
        assert fetches and fetch_kind != "signed", outcome.error
        return
    assert outcome.epoch == epoch
    assert outcome.state == _STATES[epoch % 2]
    assert [names.index(s) for s in outcome.stale_shards] == stale
    assert repairs == outcome.stale_shards
    # The proof is one replica's own signature, made at the winning epoch.
    assert directory.verify(outcome.proof)
    assert outcome.proof.revoked == (outcome.state == "revoked")
    signer = shards[names.index(outcome.answered_by)]
    assert outcome.proof.ledger_fingerprint == signer.fingerprint
    assert signer.ledger.store.get(_SERIAL).revocation_epoch == epoch


# -- the verdict read against the proof read --------------------------------------


@st.composite
def read_races(draw):
    """(quorum, per-replica (alive, epoch), arrival order, fetch script).

    ``fetch`` scripts the proof fetch, should the proof read issue one:
    how many further replies land before its own, and whether the
    replica asked dies first.
    """
    n = draw(st.integers(1, MAX_SHARDS))
    quorum = draw(st.integers(1, n))
    replicas = [
        (draw(st.booleans()), draw(st.integers(0, 3))) for _ in range(n)
    ]
    order = draw(st.permutations(range(n)))
    fetch = (draw(st.integers(0, n)), draw(st.booleans()))
    return quorum, replicas, order, fetch


def _raced_read(quorum, replicas, order, fetch, proof):
    """One read through a real frontend, replies landing in ``order``."""
    fetch_after, fetch_dies = fetch
    shards = [_replica_at(i, epoch) for i, (_, epoch) in enumerate(replicas)]
    names = [shard.shard_id for shard in shards]
    transport = HeldTransport({shard.shard_id: shard for shard in shards})
    for name, (alive, _) in zip(names, replicas):
        if not alive:
            transport.kill(name)
    frontend = ClusterFrontend(
        "lww",
        HashRing(names),
        transport,
        _shared_fixtures()["tsa"],
        config=ClusterConfig(replication_factor=len(shards), read_quorum=quorum),
    )
    transport.hold = True
    answers = []
    frontend.status_async(
        PhotoIdentifier("lww", _SERIAL), answers.append, proof=proof
    )
    sent = list(transport.held)
    assert transport.signed_flags().count(True) == (1 if proof else 0)

    def land_fetch():
        """Land the proof fetch, if one is waiting."""
        for call in transport.held:
            if call[1] == "status" and call not in sent:
                if fetch_dies:
                    transport.kill(call[0])
                transport.land(call)
                return

    to_land = None  # replies still to arrive before the fetch's own
    for index in order:
        transport.deliver(names[index])
        if to_land is None:
            to_land = fetch_after if frontend.stats.proof_fetches else None
        elif to_land > 0:
            to_land -= 1
        if to_land == 0:
            land_fetch()
    land_fetch()
    (answer,) = answers  # answered exactly once
    return frontend, shards, answer


@settings(max_examples=100, deadline=None)
@given(race=read_races())
def test_verdict_read_reaches_the_proof_read_verdict_without_a_signature(race):
    quorum, replicas, order, fetch = race
    frontend, shards, verdict = _raced_read(*race, proof=False)
    assert frontend.stats.signed_reads == frontend.stats.proof_fetches == 0
    assert signatures(shards) == 0
    assert verdict.proof is None
    # It answers whenever a quorum of replicas does: losing a signer or
    # a proof fetch is not among the ways it can fail.
    alive = sum(1 for is_alive, _ in replicas if is_alive)
    assert verdict.ok == (alive >= quorum)

    frontend, shards, proven = _raced_read(*race, proof=True)
    if not proven.ok:
        return
    assert ClusterDirectory(shards).verify(proven.proof)
    assert proven.proof.revoked == proven.revoked
    assert verdict.ok
    assert (verdict.revoked, verdict.state, verdict.epoch) == (
        proven.revoked, proven.state, proven.epoch,
    )
