"""An event is sealed once: the bytes hashed are the bytes kept.

``EventLog.append`` encodes an event body a single time; the chain hash
covers those bytes, and one frame in the log's file — a durable
store's WAL, when there is one — stores them verbatim.  Recovery hashes
what it finds on disk, so bytes that merely *parse* to the same event
no longer pass.
"""

import gc
import json
import tracemalloc
from dataclasses import replace

import pytest

from repro.crypto import hashing
from repro.crypto.hashing import sha256_hex
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.durable import DurableStore
from repro.ledger.events import (
    EventLog,
    chain_hash,
    encode_frame,
    frame_tag,
    read_frame,
)
from repro.ledger.ledger import Ledger
from repro.ledger.records import RevocationState
from repro.ledger.recovery import recover_store
from repro.ledger.storage import LedgerStore
from tests.ledger.test_one_log import _ledger_protocol, _replication


@pytest.mark.parametrize(
    "path, kinds, born_revoked",
    [
        # claim, born-revoked claim, revoke/unrevoke/permanent flips
        (_ledger_protocol, {"claim", "revoke", "unrevoke", "permanent_revoke"}, 1),
        # follower apply_state, install of a new and of a newer record
        (_replication, {"claim", "revoke", "apply_state", "install"}, 0),
    ],
    ids=["ledger_protocol", "replication"],
)
def test_sealed_bytes_are_the_hashed_body(path, kinds, born_revoked, session_keypair):
    stores, _ = path(session_keypair)
    events = [event for store in stores for event in store.events.events]
    for event in events:
        assert chain_hash(event.prev_hash, event.encoded) == event.chain_hash
        body = json.loads(event.encoded)
        assert body == event.body()
        assert body == {
            "seq": event.seq,
            "kind": event.kind,
            "serial": event.serial,
            "time": event.time,
            "payload": event.payload,
        }
    assert {event.kind for event in events} == kinds
    claimed_revoked = {
        event.serial
        for event in events
        if event.kind == "claim" and event.payload["record"]["state"] == "revoked"
    }
    assert len(claimed_revoked) == born_revoked


@pytest.fixture(scope="module")
def record(session_keypair):
    content_hash = sha256_hex(b"seal-once")
    return Ledger("seal-once", TimestampAuthority()).claim(
        content_hash,
        session_keypair.sign(content_hash.encode("utf-8")),
        session_keypair.public,
    )


def _durable_store(record, disk: DurableStore) -> LedgerStore:
    """One claim and two flips of it, each written to the disk's WAL."""
    store = LedgerStore(disk)
    store.put(replace(record), time=1.0)  # a copy: flips mutate the record
    serial = record.identifier.serial
    store.apply_flip(serial, RevocationState.REVOKED, 1, "revoke", 2.0)
    store.apply_flip(serial, RevocationState.NOT_REVOKED, 2, "unrevoke", 3.0)
    return store


def _frames(data: bytes):
    """(start, body, end) of every frame in the WAL's bytes."""
    position = 0
    while position < len(data):
        length = int.from_bytes(data[position : position + 4], "big")
        body_start = position + 4
        yield position, data[body_start : body_start + length], body_start + length + 8
        position = body_start + length + 8


def test_frame_carries_the_sealed_bytes_verbatim(record):
    disk = DurableStore()
    store = _durable_store(record, disk)
    wal = disk.read()
    for event, (start, body, end) in zip(store.events.events, _frames(wal)):
        assert body == event.chain_hash + event.encoded
        assert wal[start:end] == encode_frame(event)
        assert wal[end - 8 : end] == frame_tag(body)
        assert read_frame(wal, start) == (
            end, event.chain_hash, event.encoded,
        )


def test_respaced_frame_body_breaks_the_chain(record):
    """Same JSON value, different bytes, tag recomputed: not the history
    that was hashed."""
    disk = DurableStore()
    store = _durable_store(record, disk)
    assert recover_store(disk).clean
    first_hash = store.events.events[0].chain_hash
    wal = bytearray(disk.read())
    start, body, end = list(_frames(wal))[1]
    stored_hash, encoded = body[:32], body[32:]
    respaced = json.dumps(json.loads(encoded), sort_keys=True).encode("utf-8")
    assert respaced != encoded and json.loads(respaced) == json.loads(encoded)
    forged = stored_hash + respaced
    wal[start:end] = (
        len(forged).to_bytes(4, "big") + forged + frame_tag(forged)
    )
    disk.file.seek(0)
    disk.file.write(wal)
    disk.file.truncate()
    report = recover_store(disk)
    assert report.evidence == ("chain_broken",)
    assert report.head_seq == 1
    assert report.head_hash == first_hash


def test_one_encode_per_sealed_and_framed_event(monkeypatch, record):
    """Seal + Merkle leaf + WAL frame: one ``json.dumps``, nothing else."""
    disk = DurableStore()
    store = LedgerStore(disk)
    record = replace(record)  # a copy: the flip below mutates it
    calls = {"dumps": 0, "loads": 0, "canonical_encode": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
    monkeypatch.setattr(json, "loads", counted("loads", json.loads))
    monkeypatch.setattr(
        hashing, "_encode_into", counted("canonical_encode", hashing._encode_into)
    )
    store.put(record, time=1.0)
    assert calls == {"dumps": 1, "loads": 0, "canonical_encode": 0}
    store.apply_flip(
        record.identifier.serial, RevocationState.REVOKED, 1, "revoke", 2.0
    )
    assert calls == {"dumps": 2, "loads": 0, "canonical_encode": 0}
    monkeypatch.undo()
    assert disk.events_written == store.merkle.size == 2
    assert recover_store(disk).head_hash == store.events.head_hash


def test_window_retains_bytes_not_trees(session_keypair):
    """1,024 claim events keep no decoded payload tree (it used to cost
    ~2.8 kB each) and, since the bytes went to the log's file, not even
    their encoded bytes."""
    ledger = Ledger("seal-once", TimestampAuthority())
    payloads = []
    for index in range(1024):
        content_hash = sha256_hex(b"window:%d" % index)
        record = ledger.claim(
            content_hash,
            session_keypair.sign(content_hash.encode("utf-8")),
            session_keypair.public,
        )
        payloads.append((record.identifier.serial, {"record": record.to_payload()}))
    gc.collect()
    tracemalloc.start()
    try:
        log = EventLog()
        for serial, payload in payloads:
            log.append("claim", serial, 0.0, payload)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == 1024
    assert retained / 1024 < 1500
    assert log.verify_chain() == log.head_hash
