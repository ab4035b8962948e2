"""One history: the Merkle tree is a view of the event chain.

Every path that mutates a ledger must seal through ``LedgerStore._seal``
so the tree and the chain cannot disagree, and an auditor who kept an
old ``(size, root)`` must catch a ledger that forks its past even when
the forged chain verifies link by link.
"""

import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import sha256_hex
from repro.crypto.merkle import MerkleConsistencyError
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.events import (
    EventLogError,
    encode_frame,
    event_from_bytes,
    read_frame,
)
from repro.ledger.ledger import Ledger
from repro.ledger.storage import LedgerStore
from repro.workload.population import populate_ledger
from tests.cluster.conftest import LocalCluster
from tests.ledger.conftest import forge_history


def assert_merkle_is_chain_view(store: LedgerStore) -> None:
    events = store.events.events
    assert store.merkle.size == len(store.events) == len(events)
    leaves = [store.merkle.entry(i) for i in range(store.merkle.size)]
    assert leaves == [event.chain_hash for event in events]


def _claim(ledger, keypair, label, **kwargs):
    content_hash = sha256_hex(label.encode())
    signature = keypair.sign(content_hash.encode("utf-8"))
    return ledger.claim(content_hash, signature, keypair.public, **kwargs)


def _flip(ledger, keypair, record, action):
    nonce = ledger.make_challenge(record.identifier)
    payload = Ledger.ownership_payload(action, record.identifier, nonce)
    getattr(ledger, action)(
        record.identifier, nonce, keypair.sign_struct(payload)
    )


# Each path returns the stores it mutated and the event kinds it must
# have sealed on at least one of them (so a path that silently stops
# running does not pass vacuously).


def _ledger_protocol(keypair):
    ledger = Ledger("one-log", TimestampAuthority())
    shared = _claim(ledger, keypair, "shared")
    _claim(ledger, keypair, "private", initially_revoked=True)
    _flip(ledger, keypair, shared, "revoke")
    _flip(ledger, keypair, shared, "unrevoke")
    ledger.permanently_revoke(shared.identifier)
    kinds = {"claim", "revoke", "unrevoke", "permanent_revoke"}
    return [ledger.store], kinds


def _replication(keypair):
    cluster = LocalCluster(num_shards=4)
    identifier = cluster.claim_photo("replicated")
    cluster.frontend.revoke(identifier, cluster.owner)  # followers apply_state
    holders = [
        shard for shard in cluster.shards.values()
        if identifier.serial in shard.ledger.store
    ]
    (outsider,) = [s for s in cluster.shards.values() if s not in holders]
    record = holders[0].ledger.store.get(identifier.serial)
    assert outsider.install_record({"record": record})["installed"]
    newer = replace(record, revocation_epoch=record.revocation_epoch + 1)
    assert outsider.install_record({"record": newer})["installed"]
    stores = [shard.ledger.store for shard in cluster.shards.values()]
    return stores, {"claim", "revoke", "apply_state", "install"}


def _seed_population(keypair):
    cluster = LocalCluster(num_shards=4)
    cluster.seed_population(30, revoked_fraction=0.3)
    return [shard.ledger.store for shard in cluster.shards.values()], {"claim"}


def _populate_fast_path(keypair):
    ledger = Ledger("one-log", TimestampAuthority())
    populate_ledger(
        ledger, 30, 0.3, np.random.default_rng(3), keypair=keypair
    )
    return [ledger.store], {"claim"}


def _restore_then_write(keypair):
    ledger = Ledger("one-log", TimestampAuthority())
    _claim(ledger, keypair, "before")
    store = ledger.store
    head_seq, head_hash = store.events.head_seq, store.events.head_hash
    store.restore(store.records_map(), store.next_serial, head_seq, head_hash)
    assert_merkle_is_chain_view(store)  # both empty at the new anchor
    after = _claim(ledger, keypair, "after")
    _flip(ledger, keypair, after, "revoke")
    assert store.events.events[0].prev_hash == head_hash
    return [store], {"claim", "revoke"}


@pytest.mark.parametrize(
    "path",
    [
        _ledger_protocol,
        _replication,
        _seed_population,
        _populate_fast_path,
        _restore_then_write,
    ],
    ids=lambda path: path.__name__.lstrip("_"),
)
def test_every_mutation_path_extends_chain_and_view_together(
    path, session_keypair
):
    stores, expected_kinds = path(session_keypair)
    sealed_kinds = set()
    for store in stores:
        assert_merkle_is_chain_view(store)
        store.events.verify_chain()
        sealed_kinds.update(event.kind for event in store.events.events)
    assert sealed_kinds == expected_kinds


def test_wipe_restarts_chain_and_view_together(session_keypair):
    ledger = Ledger("one-log", TimestampAuthority())
    _claim(ledger, session_keypair, "lost")
    ledger.store.wipe()
    assert_merkle_is_chain_view(ledger.store)
    _claim(ledger, session_keypair, "again")
    assert_merkle_is_chain_view(ledger.store)
    assert ledger.store.merkle.size == 1


def _store_with_events(count: int) -> LedgerStore:
    """A chain of flip events over one synthetic serial (no RSA needed:
    the view depends on chain hashes only)."""
    store = LedgerStore()
    for i in range(count):
        store._seal(
            "apply_state", 7, float(i), {"state": "revoked", "epoch": i}, lambda: None
        )
    return store


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_forked_head_fails_the_consistency_proof(data):
    audited = data.draw(st.integers(min_value=1, max_value=24), label="audited")
    growth = data.draw(st.integers(min_value=0, max_value=8), label="growth")
    store = _store_with_events(audited)
    old_root = store.merkle.root()

    for i in range(growth):
        store._seal(
            "apply_state", 7, 100.0 + i, {"state": "revoked", "epoch": i}, lambda: None
        )
    store.merkle.check_consistency(audited, old_root)  # honest growth
    root = store.merkle.root()
    k = data.draw(st.integers(0, store.merkle.size - 1), label="included")
    proof = store.merkle.inclusion_proof(k)
    assert proof.verify(store.events.events[k].chain_hash, root)
    assert not proof.verify(store.events.events[k].prev_hash, root)

    rewritten = data.draw(st.integers(0, audited - 1), label="rewritten")
    forge_history(store, rewritten)
    store.events.verify_chain()  # the forgery is internally consistent
    assert_merkle_is_chain_view(store)
    with pytest.raises(MerkleConsistencyError):
        store.merkle.check_consistency(audited, old_root)
    # Everything before the rewrite is still the audited history.
    untouched = _store_with_events(rewritten).merkle.root()
    store.merkle.check_consistency(rewritten, untouched)


@pytest.fixture
def stored_files(monkeypatch):
    """The file each event log opens in this test, in opening order."""
    opened = []
    open_file = tempfile.TemporaryFile

    def capture():
        opened.append(open_file())
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", capture)
    return opened


def _stored_log(stored_files):
    """A five-event chain and the bytes it keeps on file."""
    store = _store_with_events(5)
    (stored,) = stored_files
    stored.seek(0)
    return store.events, stored, bytearray(stored.read())


def _store_bytes(stored, data) -> None:
    stored.seek(0)
    stored.truncate()
    stored.write(data)


def _assert_history_refused(log) -> None:
    """Neither reader hands back a shorter or altered history."""
    with pytest.raises(EventLogError):
        log.verify_chain()
    with pytest.raises(EventLogError):
        log.events


def test_rewrite_without_resealing_breaks_the_chain(stored_files):
    """Re-date seq 3 in its stored frame, frame tag recomputed but the
    chain hash left as sealed: the frame reads, the chain does not."""
    log, stored, data = _stored_log(stored_files)
    start = 0
    for _ in range(2):
        start, _, _ = read_frame(data, start)
    end, sealed_hash, encoded = read_frame(data, start)
    event = event_from_bytes(encoded, b"", sealed_hash)
    redated = encoded.replace(b'"time":2.0', b'"time":9.0')
    assert redated != encoded
    data[start:end] = encode_frame(replace(event, encoded=redated))
    _store_bytes(stored, data)
    _assert_history_refused(log)


def test_truncated_file_breaks_the_chain(stored_files):
    log, stored, data = _stored_log(stored_files)
    _store_bytes(stored, data[:-3])
    _assert_history_refused(log)


def test_flipped_stored_byte_breaks_the_chain(stored_files):
    log, stored, data = _stored_log(stored_files)
    data[len(data) // 2] ^= 0x01
    _store_bytes(stored, data)
    _assert_history_refused(log)
