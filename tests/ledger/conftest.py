"""Shared helpers for ledger tests."""

from repro.ledger.durable import DurableStore
from repro.ledger.events import GENESIS_HASH, read_chain
from repro.ledger.storage import LedgerStore


def wal_events(disk: DurableStore) -> int:
    """Frames in ``disk``'s WAL that verify as one chain from genesis."""
    return len(read_chain(disk.read(), 0, GENESIS_HASH)[0])


def forge_history(store: LedgerStore, index: int) -> None:
    """What a ledger rewriting its past has to do.

    Re-date the sealed event at ``index`` and re-seal it and everything
    after it from the same anchor, so the forged chain verifies link by
    link and only someone who kept an earlier head or tree root can
    tell.
    """
    sealed = store.events.events
    store.restore(
        store.records_map(),
        store.next_serial,
        store.events.anchor_seq,
        sealed[0].prev_hash,
    )
    for i, event in enumerate(sealed):
        time = event.time + 1.0 if i == index else event.time
        store._seal(event.kind, event.serial, time, event.payload, lambda: None)
