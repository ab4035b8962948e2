"""Durable-store recovery: snapshot+replay, fault detection, truncation.

The hypothesis properties at the bottom are the PR's durability claim
in its strongest form: *any* single-byte mutation of the serialized
event log is rejected by frame/chain verification, and *any*
single-byte mutation of a snapshot is rejected by its checksum — never
silently accepted into recovered state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.durable import DurableStore
from repro.ledger.events import EventLogError
from repro.ledger.ledger import Ledger
from repro.ledger.records import RevocationState
from repro.ledger.recovery import recover_store, records_digest


@pytest.fixture(scope="module")
def rig():
    """A ledger writing to a durable store: 12 claims, 30 flips.

    Snapshots land every 16 events (at seq 16 and 32), so recovery has
    a real anchor and a real tail; tests copy the disk before damaging
    it.
    """
    rng = np.random.default_rng(7)
    owner = KeyPair.generate(bits=512, rng=rng)
    disk = DurableStore(snapshot_interval=16)
    ledger = Ledger(
        "durable-test",
        TimestampAuthority(keypair=KeyPair.generate(bits=512, rng=rng)),
        keypair=owner,
        disk=disk,
    )
    store = ledger.store
    serials = []
    for index in range(12):
        content_hash = sha256_hex(b"durable:%d" % index)
        record = ledger.claim(
            content_hash,
            owner.sign(content_hash.encode("utf-8")),
            owner.public,
        )
        serials.append(record.identifier.serial)
    for index in range(30):
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
    return store, disk


def _clone(disk):
    """Another disk holding the same WAL bytes and snapshots."""
    clone = DurableStore(disk.snapshot_interval)
    clone.file.write(disk.read())
    clone._snapshots = [replace(snapshot) for snapshot in disk._snapshots]
    return clone


def _flip_stored_byte(disk, position):
    """Flip the WAL byte at ``position`` (modulo the file's size)."""
    data = bytearray(disk.read())
    position %= len(data)
    data[position] ^= 0xFF
    disk.file.seek(0)
    disk.file.write(data)
    return position


class TestCleanRecovery:
    def test_snapshot_recovery_matches_live_state(self, rig):
        store, disk = rig
        report = recover_store(_clone(disk))
        assert report.clean
        assert report.head_seq == store.events.head_seq
        assert report.head_hash == store.events.head_hash
        assert report.next_serial == store.next_serial
        assert records_digest(report.records) == records_digest(
            store.records_map()
        )

    def test_genesis_replay_agrees_with_snapshot_path(self, rig):
        store, disk = rig
        fast = recover_store(_clone(disk))
        full = recover_store(_clone(disk), use_snapshots=False)
        assert full.clean
        assert full.anchor_seq == 0
        assert full.head_seq == fast.head_seq
        assert records_digest(full.records) == records_digest(fast.records)

    def test_anchor_skips_pre_snapshot_segments(self, rig):
        store, disk = rig
        report = recover_store(_clone(disk))
        assert report.anchor_seq == 32
        assert len(report.tail_events) == store.events.head_seq - 32


class TestFaultDetection:
    def test_a_flipped_byte_fails_the_live_chain_and_recovery(
        self, session_keypair
    ):
        """The live chain reads the same file recovery does: one
        flipped byte fails both."""
        disk = DurableStore()
        ledger = Ledger("flip-test", TimestampAuthority(), disk=disk)
        for index in range(3):
            content_hash = sha256_hex(b"flip:%d" % index)
            record = ledger.claim(
                content_hash,
                session_keypair.sign(content_hash.encode("utf-8")),
                session_keypair.public,
            )
            ledger.store.apply_flip(
                record.identifier.serial,
                RevocationState.REVOKED,
                1,
                "revoke",
                float(index),
            )
        store = ledger.store
        assert store.events.verify_chain() == store.events.head_hash
        assert recover_store(disk, use_snapshots=False).clean
        _flip_stored_byte(disk, disk.size // 2)
        with pytest.raises(EventLogError):
            store.events.verify_chain()
        assert recover_store(disk, use_snapshots=False).evidence

    def test_torn_final_record_detected_and_truncated(self, rig):
        store, disk = rig
        damaged = _clone(disk)
        assert damaged.tear_final_record()
        report = recover_store(damaged)
        assert report.evidence == ("torn_record",)
        assert report.head_seq == store.events.head_seq - 1
        damaged.truncate_after(report.truncation)
        assert recover_store(damaged).clean

    def test_torn_snapshot_anchor_falls_back_to_the_older_snapshot(
        self, rig
    ):
        """A snapshot whose anchor frame is torn is passed over: the
        walk from the older anchor names the tear."""
        _, disk = rig
        damaged = _clone(disk)
        damaged.truncate_after(damaged._snapshots[-1].offset)  # head = 32
        assert damaged.tear_final_record()
        report = recover_store(damaged)
        assert report.evidence == ("torn_record",)
        assert (report.anchor_seq, report.head_seq) == (16, 31)

    def test_corrupt_byte_detected(self, rig):
        _, disk = rig
        damaged = _clone(disk)
        assert damaged.corrupt_random_byte(np.random.default_rng(3))
        report = recover_store(damaged, use_snapshots=False)
        assert report.evidence
        assert set(report.evidence) <= {
            "torn_record", "corrupted_segment", "chain_broken",
        }

    def test_snapshot_corruption_falls_back(self, rig):
        store, disk = rig
        damaged = _clone(disk)
        assert damaged.corrupt_latest_snapshot()
        report = recover_store(damaged)
        assert "snapshot_corrupt" in report.evidence
        # The log itself is intact: the fallback replay reaches the
        # same head and the same state, so nothing durable was lost.
        assert not report.suffix_lost
        assert report.head_seq == store.events.head_seq
        assert records_digest(report.records) == records_digest(
            store.records_map()
        )

    def test_wipe_recovers_empty(self, rig):
        _, disk = rig
        damaged = _clone(disk)
        assert damaged.wipe() > 0
        report = recover_store(damaged)
        assert report.clean
        assert report.records == {}
        assert report.head_seq == 0


@pytest.fixture(scope="module")
def undamaged_digest(rig):
    store, _ = rig
    return records_digest(store.records_map())


@settings(max_examples=120, deadline=None)
@given(position=st.integers(min_value=0, max_value=10**9))
def test_property_any_log_byte_flip_is_detected(rig, position):
    """Property: no single-byte WAL mutation is silently accepted."""
    store, disk = rig
    damaged = _clone(disk)
    position = _flip_stored_byte(damaged, position)
    report = recover_store(damaged, use_snapshots=False)
    assert report.evidence, f"flip at byte {position} went undetected"
    # Detection stops the scan: nothing past the damage reaches state.
    assert report.head_seq < store.events.head_seq or report.suffix_lost


@settings(max_examples=120, deadline=None)
@given(position=st.integers(min_value=0, max_value=10**9))
def test_property_any_snapshot_byte_flip_is_detected(
    rig, undamaged_digest, position
):
    """Property: a damaged snapshot is skipped, never trusted."""
    _, disk = rig
    damaged = _clone(disk)
    snapshot = damaged._snapshots[-1]
    body = bytearray(snapshot.body)
    body[position % len(body)] ^= 0xFF
    snapshot.body = bytes(body)
    report = recover_store(damaged)
    assert "snapshot_corrupt" in report.evidence
    # The intact log rebuilds the exact same state via the fallback.
    assert records_digest(report.records) == undamaged_digest
