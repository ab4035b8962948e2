"""Unit tests for the ledger store."""

import pytest

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.records import ClaimRecord, RevocationState, claim_digest
from repro.ledger.storage import LedgerStore


@pytest.fixture(scope="module")
def record_factory(session_keypair):
    tsa = TimestampAuthority()

    def make(serial: int, state=RevocationState.NOT_REVOKED, custodial=False):
        content_hash = sha256_hex(f"photo-{serial}".encode())
        return ClaimRecord(
            identifier=PhotoIdentifier(ledger_id="store-test", serial=serial),
            content_hash=content_hash,
            content_signature=session_keypair.sign(content_hash.encode("utf-8")),
            public_key=session_keypair.public,
            timestamp=tsa.issue(claim_digest(content_hash, session_keypair.public)),
            state=state,
            custodial=custodial,
        )

    return make


class TestSerialAllocation:
    def test_monotone_from_one(self):
        store = LedgerStore()
        assert store.allocate_serial() == 1
        assert store.allocate_serial() == 2

    def test_unique_across_many(self):
        store = LedgerStore()
        serials = [store.allocate_serial() for _ in range(100)]
        assert len(set(serials)) == 100


class TestRecords:
    def test_put_get(self, record_factory):
        store = LedgerStore()
        record = record_factory(1)
        store.put(record)
        assert store.get(1) is record
        assert 1 in store
        assert store.get(2) is None

    def test_duplicate_serial_rejected(self, record_factory):
        store = LedgerStore()
        store.put(record_factory(1))
        with pytest.raises(KeyError):
            store.put(record_factory(1))

    def test_iteration_in_serial_order(self, record_factory):
        store = LedgerStore()
        for serial in (3, 1, 2):
            store.put(record_factory(serial))
        assert [r.identifier.serial for r in store.records()] == [1, 2, 3]

    def test_revoked_records_filter(self, record_factory):
        store = LedgerStore()
        store.put(record_factory(1))
        store.put(record_factory(2, state=RevocationState.REVOKED))
        store.put(record_factory(3, state=RevocationState.PERMANENTLY_REVOKED))
        revoked = [r.identifier.serial for r in store.revoked_records()]
        assert revoked == [2, 3]

    def test_counts(self, record_factory):
        store = LedgerStore()
        store.put(record_factory(1))
        store.put(record_factory(2, state=RevocationState.REVOKED))
        store.put(record_factory(3, custodial=True))
        counts = store.counts()
        assert counts["total"] == 3
        assert counts["revoked"] == 1
        assert counts["not_revoked"] == 2
        assert counts["custodial"] == 1
        assert counts["events"] == 3


class TestOperationLog:
    def test_log_mirrors_into_merkle(self, record_factory):
        store = LedgerStore()
        store.put(record_factory(1), time=10.0)
        assert store.merkle.size == len(store.events) == 1
        event = store.events.events[0]
        assert (event.kind, event.serial, event.time) == ("claim", 1, 10.0)
        assert store.merkle.entry(0) == event.chain_hash

    def test_merkle_inclusion_of_operations(self, record_factory):
        store = LedgerStore()
        for i in range(6):
            store.put(record_factory(i), time=float(i))
        root = store.merkle.root()
        proof = store.merkle.inclusion_proof(3)
        assert proof.verify(store.events.events[3].chain_hash, root)
