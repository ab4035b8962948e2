"""The event chain keeps its sealed bytes on file, not on the heap.

``EventLog`` writes each sealed frame to a file it owns and keeps in
RAM only the frame's end offset and the event's chain hash; the Merkle
view reads its leaves from those hashes.  A seal that does not reach
the file must not advance anything, and a store's heap must grow by
index bytes per event whatever the event's size.
"""

import asyncio
import gc
import io
import os
import tempfile
import tracemalloc
from dataclasses import replace

import pytest

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.durable import MAX_SNAPSHOTS, DurableStore
from repro.ledger.events import EventLogError
from repro.ledger.ledger import Ledger
from repro.ledger.records import RevocationState
from repro.ledger.storage import LedgerStore
from tests.service.conftest import serve


class FailingFile(io.BytesIO):
    """A log file whose writes can be made to raise or come up short."""

    fault = None

    def write(self, data):
        if self.fault == "raise":
            raise OSError("no space left on device")
        if self.fault == "short":
            return super().write(bytes(data[: len(data) // 2]))
        return super().write(data)


def _flip(store: LedgerStore, epoch: int, pad: int = 0) -> None:
    """Seal a flip of a serial the store holds no record of."""
    payload = {"state": "revoked", "epoch": epoch, "pad": "x" * pad}
    store._seal("apply_state", 7, float(epoch), payload, lambda: None)


def _claim(ledger: Ledger, keypair, label: str):
    content_hash = sha256_hex(label.encode())
    signature = keypair.sign(content_hash.encode("utf-8"))
    return ledger.claim(content_hash, signature, keypair.public)


def _revoke(store: LedgerStore, serial: int) -> None:
    store.apply_flip(serial, RevocationState.REVOKED, 1, "revoke", 1.0)


def _seen(store: LedgerStore) -> tuple:
    """What a reader of the store can see: records, chain and tree."""
    records = {
        serial: (record.state, record.revocation_epoch)
        for serial, record in store.records_map().items()
    }
    log = store.events
    return records, log.head_seq, log.head_hash, len(log), store.merkle.root()


@pytest.mark.parametrize("fault", ["raise", "short"])
def test_a_write_that_missed_the_file_leaves_the_store_as_it_was(
    fault, monkeypatch, session_keypair
):
    monkeypatch.setattr(tempfile, "TemporaryFile", FailingFile)
    ledger = Ledger("file", TimestampAuthority())
    store = ledger.store
    serial = _claim(ledger, session_keypair, "first").identifier.serial
    before = _seen(store)

    monkeypatch.setattr(FailingFile, "fault", fault)
    error = OSError if fault == "raise" else EventLogError
    with pytest.raises(error):
        _claim(ledger, session_keypair, "second")  # LedgerStore.put
    assert _seen(store) == before
    with pytest.raises(error):
        _revoke(store, serial)  # LedgerStore.apply_flip
    assert _seen(store) == before
    assert store.merkle.size == len(store.events.chain_hashes) == 1

    # A retry goes through, and its frame overwrites what the failed
    # seal left on file.
    monkeypatch.setattr(FailingFile, "fault", None)
    second = _claim(ledger, session_keypair, "second").identifier.serial
    _revoke(store, serial)
    assert [event.serial for event in store.events.events] == [
        serial, second, serial
    ]
    assert store.get(serial).is_revoked and second in store
    assert store.events.verify_chain() == store.events.head_hash
    assert store.merkle.entry(2) == store.events.head_hash


def test_a_revocation_no_replica_could_seal_is_not_served(monkeypatch):
    """Reads, the /bloom ETag and /deltas show a revocation only once
    it is sealed, so a retry after a failed one is not a no-op."""
    monkeypatch.setattr(tempfile, "TemporaryFile", FailingFile)

    async def inner():
        async with serve() as env:
            request = env.client.request
            r = await request("POST", "/claims", {"content": "photo"})
            claimed = r.json()["id"]
            etag = (await request("GET", "/bloom")).headers["etag"]
            states = env.cluster.replica_states()

            monkeypatch.setattr(FailingFile, "fault", "raise")
            r = await request("POST", "/revocations", {"id": claimed})
            assert r.status >= 500
            monkeypatch.setattr(FailingFile, "fault", None)
            assert env.cluster.replica_states() == states
            r = await request("GET", f"/status/{claimed}")
            assert r.json()["revoked"] is False
            r = await request("GET", "/bloom", headers={"If-None-Match": etag})
            assert r.status == 304
            assert (await request("GET", "/deltas?since=0")).json()["head"] == 0

            r = await request("POST", "/revocations", {"id": claimed})
            assert r.status == 200
            r = await request("GET", f"/status/{claimed}")
            assert r.json()["revoked"] is True
            r = await request("GET", "/bloom", headers={"If-None-Match": etag})
            assert r.status == 200
            assert (await request("GET", "/deltas?since=0")).json()["head"] == 1

    asyncio.run(inner())


@pytest.mark.parametrize("pad", [1000, 100], ids=["1kB", "100B"])
def test_heap_grows_by_index_bytes_per_event(pad):
    """2,000 sealed events cost their offset, chain hash and Merkle leaf
    hash (72 bytes, plus growth slack), not their body."""
    store = LedgerStore()
    _flip(store, 0, pad)  # the file and its buffer exist before tracing
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for epoch in range(1, 2001):
            _flip(store, epoch, pad)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(store.events) == store.merkle.size == 2001
    assert grown / 2000 <= 128
    assert store.events.verify_chain() == store.events.head_hash


def _sealed_heap_per_event(records, disk) -> float:
    """Traced heap grown per event sealing ``records`` as claims, then
    two flips of each, into a store with ``disk`` (or none)."""
    store = LedgerStore(disk)
    copies = [replace(record) for record in records]  # flips mutate them
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for record in copies:
            store.put(record)
        for epoch, state in ((1, RevocationState.REVOKED),
                             (2, RevocationState.NOT_REVOKED)):
            for record in copies:
                store.apply_flip(
                    record.identifier.serial, state, epoch, "revoke", 1.0
                )
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert store.events.head_seq == 3 * len(records)
    return grown / store.events.head_seq


def test_a_disk_adds_no_heap_per_sealed_event(session_keypair):
    """2,000 claims and 4,000 flips cost the same heap with a disk as
    without one: the WAL is the log's file, not a second copy in RAM.

    The snapshot bodies the disk keeps are counted apart: they are
    bounded by the record count, not the event count, and at most
    ``MAX_SNAPSHOTS`` of them are held.
    """
    content_hash = sha256_hex(b"heap")
    claimed = Ledger("heap", TimestampAuthority()).claim(
        content_hash,
        session_keypair.sign(content_hash.encode("utf-8")),
        session_keypair.public,
    )
    records = [
        replace(
            claimed,
            identifier=PhotoIdentifier("heap", serial),
            content_hash=sha256_hex(b"heap:%d" % serial),
        )
        for serial in range(1, 2001)
    ]
    diskless = _sealed_heap_per_event(records, None)
    disk = DurableStore()
    durable = _sealed_heap_per_event(records, disk)
    bodies = [len(snapshot.body) for snapshot in disk._snapshots]
    assert 0 < sum(bodies) <= MAX_SNAPSHOTS * bodies[-1]
    wal_only = durable - sum(bodies) / (3 * len(records))
    assert wal_only - diskless <= 32, (diskless, durable, bodies)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd (Linux)"
)
def test_wipe_releases_the_file_it_drops():
    store = LedgerStore()
    _flip(store, 0)
    open_fds = len(os.listdir("/proc/self/fd"))
    for epoch in range(2000):
        _flip(store, epoch)
        store.wipe()
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_records_carry_no_instance_dict(session_keypair):
    """Each replica holds its own copy of a record and its parts."""
    content_hash = sha256_hex(b"slots")
    record = Ledger("slots", TimestampAuthority()).claim(
        content_hash,
        session_keypair.sign(content_hash.encode("utf-8")),
        session_keypair.public,
    )
    for part in (
        record,
        record.content_signature,
        record.public_key,
        record.timestamp,
        record.identifier,
    ):
        assert not hasattr(part, "__dict__"), type(part).__name__
