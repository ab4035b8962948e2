"""The hot-path case registry: what ``python -m repro perf`` measures.

The paired cases are the fast paths production code calls — the Bloom
batch probe, the packed Hamming scan, snapshot-anchored recovery, RSA on
libcrypto's ``modexp`` — each against the reference oracle it must equal
(the differential tests in ``tests/perf/test_vectorized_vs_scalar.py``
hold all but recovery equal under hypothesis-generated workloads; here
the harness additionally locks each run's results by checksum before
reporting a speedup).  The single-sided cases time the quorum round and
the event log, which have no second implementation to race.

``min_speedup`` floors are deliberately far below the measured
speedups — they are the "vectorization still exists on the slowest
supported machine" line, not the trajectory; the committed baseline's
speedup scaled by the tolerance supplies the tighter band.  See
docs/perf.md for the case table and the re-baselining procedure.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

import numpy as np

from repro.perf.harness import BenchCase
from repro.perf.workloads import (
    burst_indices,
    member_keys,
    probe_keys,
    signature_blobs,
)

__all__ = ["default_suite"]


def _digest(parts: List[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _bool_digest(values: Any) -> str:
    return _digest([np.asarray(values, dtype=bool).tobytes()])


# -- membership filters -----------------------------------------------------


def _bloom_setup(seed: int) -> Dict[str, Any]:
    from repro.filters.bloom import BloomFilter

    members = member_keys(seed, 8192)
    bloom = BloomFilter.for_capacity(len(members), 0.01)
    bloom.add_many(members)
    return {"filter": bloom, "probes": probe_keys(members, seed + 1, 4096)}


def _membership_fast(state: Dict[str, Any]) -> np.ndarray:
    return state["filter"].query_many(state["probes"])


def _membership_oracle(state: Dict[str, Any]) -> List[bool]:
    flt = state["filter"]
    return [key in flt for key in state["probes"]]


def _membership_ops(state: Dict[str, Any]) -> int:
    return len(state["probes"])


def _membership_checksum(state: Dict[str, Any], result: Any) -> str:
    return _bool_digest(result)


# -- perceptual-hash distance ------------------------------------------------


def _hamming_setup(seed: int) -> Dict[str, Any]:
    from repro.media.perceptual import RobustHash, pack_signatures

    hashes = [RobustHash(bits=blob) for blob in signature_blobs(seed, 2048)]
    return {
        "query": RobustHash(bits=signature_blobs(seed + 1, 1)[0]),
        "hashes": hashes,
        "packed": pack_signatures(hashes),
    }


def _hamming_fast(state: Dict[str, Any]) -> np.ndarray:
    from repro.media.perceptual import hamming_many

    return hamming_many(state["query"], state["packed"])


def _hamming_oracle(state: Dict[str, Any]) -> List[float]:
    query = state["query"]
    return [query.distance(other) for other in state["hashes"]]


def _hamming_checksum(state: Dict[str, Any], result: Any) -> str:
    # Distances are multiples of 1/512; scale to exact bit counts so
    # the digest never hinges on float formatting.
    counts = np.rint(np.asarray(result, dtype=np.float64) * 512).astype(np.int64)
    return _digest([counts.tobytes()])


# -- E17-shaped quorum round ---------------------------------------------------


def _quorum_setup(seed: int) -> Dict[str, Any]:
    from repro.cluster.frontend import ClusterConfig
    from repro.cluster.simnet import SimulatedCluster

    cluster = SimulatedCluster(
        4, config=ClusterConfig(replication_factor=1), seed=seed
    )
    population = cluster.seed_population(256, revoked_fraction=0.3)
    indices = burst_indices(seed, population.size, 192)
    return {
        "cluster": cluster,
        "serials": [population.identifiers[int(i)].serial for i in indices],
    }


def _quorum_round(state: Dict[str, Any]) -> List[bool]:
    cluster = state["cluster"]
    sim = cluster.simulator
    serials = state["serials"]
    verdicts: List[Any] = [None] * len(serials)

    def _record(index: int, answer: Any) -> None:
        verdicts[index] = answer.revoked

    sim.schedule(
        0.0,
        cluster.frontend.status_many_async,
        serials,
        _record,
    )
    sim.run()
    if any(verdict is None for verdict in verdicts):
        raise RuntimeError("quorum round left unanswered queries")
    return verdicts


def _quorum_ops(state: Dict[str, Any]) -> int:
    return len(state["serials"])


def _quorum_checksum(state: Dict[str, Any], result: Any) -> str:
    return _bool_digest(result)


# -- event-sourced ledger: append, verify, recover ----------------------------


_EVENT_COUNT = 2048


def _event_payloads(seed: int, count: int) -> List[Dict[str, Any]]:
    rng = np.random.default_rng(seed)
    states = ("revoked", "valid")
    return [
        {"state": states[int(rng.integers(0, 2))], "epoch": index + 1}
        for index in range(count)
    ]


def _event_append_setup(seed: int) -> Dict[str, Any]:
    return {"payloads": _event_payloads(seed, _EVENT_COUNT)}


def _event_append_run(state: Dict[str, Any]) -> str:
    from repro.ledger.events import EventLog

    log = EventLog()
    for index, payload in enumerate(state["payloads"]):
        log.append("apply_state", index + 1, float(index), payload)
    return log.head_hash.hex()


def _chain_verify_setup(seed: int) -> Dict[str, Any]:
    from repro.ledger.events import EventLog

    log = EventLog()
    for index, payload in enumerate(_event_payloads(seed, _EVENT_COUNT)):
        log.append("apply_state", index + 1, float(index), payload)
    return {"events": log.events}


def _chain_verify_run(state: Dict[str, Any]) -> str:
    from repro.ledger.events import GENESIS_HASH, verify_events

    return verify_events(state["events"], 0, GENESIS_HASH).hex()


def _recovery_setup(seed: int) -> Dict[str, Any]:
    """A durable store with a long flip history and fresh snapshots.

    200 real claims then 3000 state flips, snapshotted as the WAL
    outgrows its newest snapshot — the shape where snapshot-anchored
    recovery pays: the snapshot path replays at most one snapshot's
    worth of tail while the genesis path re-verifies and replays the
    whole log.
    """
    from repro.crypto.hashing import sha256_hex
    from repro.crypto.signatures import KeyPair
    from repro.crypto.timestamp import TimestampAuthority
    from repro.ledger.durable import DurableStore
    from repro.ledger.ledger import Ledger
    from repro.ledger.records import RevocationState

    rng = np.random.default_rng(seed)
    owner = KeyPair.generate(bits=512, rng=rng)
    tsa = TimestampAuthority(
        keypair=KeyPair.generate(bits=512, rng=rng)
    )
    disk = DurableStore()
    ledger = Ledger("perf", tsa, keypair=owner, disk=disk)
    store = ledger.store
    serials = []
    for index in range(200):
        content_hash = sha256_hex(b"perf:recover:%d" % index)
        record = ledger.claim(
            content_hash,
            owner.sign(content_hash.encode("utf-8")),
            owner.public,
        )
        serials.append(record.identifier.serial)
    for index in range(3000):
        serial = serials[index % len(serials)]
        record = store.get(serial)
        flipped = (
            RevocationState.NOT_REVOKED
            if record.state is RevocationState.REVOKED
            else RevocationState.REVOKED
        )
        store.apply_flip(
            serial,
            flipped,
            record.revocation_epoch + 1,
            "apply_state",
            float(index),
        )
    return {"disk": disk, "events": store.events.head_seq}


def _recovery_fast(state: Dict[str, Any]) -> Any:
    from repro.ledger.recovery import recover_store

    return recover_store(state["disk"])


def _recovery_baseline(state: Dict[str, Any]) -> Any:
    from repro.ledger.recovery import recover_store

    return recover_store(state["disk"], use_snapshots=False)


def _recovery_checksum(state: Dict[str, Any], result: Any) -> str:
    from repro.ledger.recovery import records_digest

    if result.evidence:
        raise RuntimeError(
            f"recovery found evidence on a clean disk: {result.evidence}"
        )
    return f"{result.head_seq}:{records_digest(result.records)}"


# -- RSA on libcrypto's modexp vs the builtin pow ------------------------------


def _rsa_setup(seed: int) -> Dict[str, Any]:
    from repro.crypto.signatures import KeyPair

    keypair = KeyPair.generate(512, np.random.default_rng(seed))
    return {"keypair": keypair, "messages": signature_blobs(seed + 1, 256)}


def _rsa_fast(state: Dict[str, Any]) -> List[int]:
    keypair, public = state["keypair"], state["keypair"].public
    signatures = [keypair.sign(message) for message in state["messages"]]
    if not all(map(public.verify, state["messages"], signatures)):
        raise RuntimeError("a fresh signature failed to verify")
    return [signature.value for signature in signatures]


def _rsa_on_pow(state: Dict[str, Any]) -> List[int]:
    """:func:`_rsa_fast` with ``rsa.modexp`` rebound to the builtin it stands in for."""
    from repro.crypto import rsa

    bound, rsa.modexp = rsa.modexp, pow
    try:
        return _rsa_fast(state)
    finally:
        rsa.modexp = bound


def default_suite() -> List[BenchCase]:
    """The committed hot-path cases, in report order."""
    return [
        BenchCase(
            name="bloom_batch_membership",
            description="BloomFilter.query_many vs per-key __contains__",
            setup=_bloom_setup,
            fast=_membership_fast,
            baseline=_membership_oracle,
            ops=_membership_ops,
            checksum=_membership_checksum,
            min_speedup=1.5,
        ),
        BenchCase(
            name="hamming_distance",
            description="hamming_many popcount table vs RobustHash.distance",
            setup=_hamming_setup,
            fast=_hamming_fast,
            baseline=_hamming_oracle,
            ops=lambda state: len(state["hashes"]),
            checksum=_hamming_checksum,
            min_speedup=5.0,
        ),
        BenchCase(
            name="quorum_round",
            description="E17-shaped netsim status burst through the frontend",
            setup=_quorum_setup,
            fast=_quorum_round,
            ops=_quorum_ops,
            checksum=_quorum_checksum,
        ),
        BenchCase(
            name="event_append",
            description="hash-chained EventLog.append throughput",
            setup=_event_append_setup,
            fast=_event_append_run,
            ops=lambda state: len(state["payloads"]),
            checksum=lambda state, result: result,
        ),
        BenchCase(
            name="chain_verify",
            description="full chain re-derivation over the event window",
            setup=_chain_verify_setup,
            fast=_chain_verify_run,
            ops=lambda state: len(state["events"]),
            checksum=lambda state, result: result,
        ),
        BenchCase(
            name="snapshot_replay",
            description="snapshot-anchored recovery vs full-log replay",
            setup=_recovery_setup,
            fast=_recovery_fast,
            baseline=_recovery_baseline,
            ops=lambda state: state["events"],
            checksum=_recovery_checksum,
            min_speedup=1.5,
        ),
        BenchCase(
            name="rsa_sign_verify",
            description="sign + verify on libcrypto's modexp vs the builtin pow",
            setup=_rsa_setup,
            fast=_rsa_fast,
            baseline=_rsa_on_pow,
            ops=lambda state: len(state["messages"]),
            checksum=lambda state, result: _digest(
                [value.to_bytes(64, "big") for value in result]
            ),
            min_speedup=4.0,
        ),
    ]
