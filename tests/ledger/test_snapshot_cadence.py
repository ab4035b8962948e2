"""The durable store's snapshot cadence follows the WAL's growth.

A snapshot is due once the WAL past the newest one's anchor is as long
as that snapshot's body (with :data:`MIN_SNAPSHOT_TAIL` as the floor),
so the bytes spent on snapshots stay a constant multiple of the newest
one however many events a ledger seals, and a restart replays at most
one snapshot's worth of tail.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.durable import MIN_SNAPSHOT_TAIL, DurableStore
from repro.ledger.events import encode_frame
from repro.ledger.ledger import Ledger
from repro.ledger.records import RevocationState
from repro.ledger.storage import LedgerStore


@pytest.fixture(scope="module")
def claimed(session_keypair):
    content_hash = sha256_hex(b"cadence")
    return Ledger("cadence", TimestampAuthority()).claim(
        content_hash,
        session_keypair.sign(content_hash.encode("utf-8")),
        session_keypair.public,
    )


def _record(claimed, serial):
    return replace(
        claimed,
        identifier=PhotoIdentifier("cadence", serial),
        content_hash=sha256_hex(b"cadence:%d" % serial),
    )


def test_snapshot_bytes_stay_a_multiple_of_the_newest(claimed):
    """8,000 claims: all snapshot bodies cut together stay within 4x
    the newest (a fixed 64-event interval cut 63x)."""
    records = [_record(claimed, serial) for serial in range(1, 8001)]
    disk = DurableStore()
    cut = []
    write_snapshot = disk.write_snapshot

    def counted(*args):
        write_snapshot(*args)
        cut.append(len(disk._snapshots[-1].body))

    disk.write_snapshot = counted
    store = LedgerStore(disk)
    for record in records:
        store.put(record)
    assert cut
    assert sum(cut) <= 4 * cut[-1], (len(cut), sum(cut), cut[-1])


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.integers(min_value=0, max_value=15), min_size=40, max_size=400
    )
)
def test_property_replay_is_bounded_by_the_newest_snapshot(claimed, ops):
    """Property: after any claims and flips, the WAL past the newest
    snapshot is shorter than the rule's threshold plus one frame.

    An op of 0 (or any op before the first claim) claims a new record;
    any other flips an existing one, so most sequences are many flips
    over a small ledger.
    """
    disk = DurableStore()
    store = LedgerStore(disk)
    serials = []
    for op in ops:
        if op == 0 or not serials:
            serials.append(len(serials) + 1)
            store.put(_record(claimed, serials[-1]))
            continue
        serial = serials[op % len(serials)]
        record = store.get(serial)
        state = (
            RevocationState.NOT_REVOKED
            if record.is_revoked
            else RevocationState.REVOKED
        )
        store.apply_flip(
            serial, state, record.revocation_epoch + 1, "apply_state", 1.0
        )
    if disk._snapshots:
        newest = disk._snapshots[-1]
        start = newest.offset
        threshold = max(len(newest.body), MIN_SNAPSHOT_TAIL)
    else:
        start, threshold = 0, MIN_SNAPSHOT_TAIL
    frame = max((len(encode_frame(e)) for e in store.events.events), default=0)
    assert disk.size - start < threshold + frame
