"""Ledger persistence: event-sourced record store and its Merkle view.

The records map is a *materialized view* of an append-only,
hash-chained event log (:mod:`repro.ledger.events`): every mutation —
storing a record, flipping its revocation state — seals a typed event
onto the chain before the view changes, and replaying the log from
genesis reproduces the map exactly.  Given a durable store
(:mod:`repro.ledger.durable`), the chain is written to that store's
WAL file, so each event is framed once, and the store cuts a
snapshot whenever its WAL has outgrown the last one; :meth:`restore`
is the inverse, installing crash-recovered state and resuming the
chain from the verified head on the same file.

That chain is the only history, kept in the event log's file (RAM
holds each event's frame offset and chain hash).  The Merkle tree
auditors check for rewrites (section 5, malicious ledgers) is a view
of it: leaf *i* is the *i*-th chain hash since the chain's anchor.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from repro.crypto.merkle import MerkleLog
from repro.ledger.durable import DurableStore
from repro.ledger.events import GENESIS_HASH, EventLog, LedgerEvent
from repro.ledger.records import ClaimRecord, RevocationState

__all__ = ["LedgerStore"]


class LedgerStore:
    """Records, serial allocation, the event chain and its Merkle view."""

    def __init__(self, disk: Optional[DurableStore] = None):
        self._records: Dict[int, ClaimRecord] = {}
        self._next_serial = 1
        self._disk = disk
        self._anchor_chain(0, GENESIS_HASH)

    # -- serials ---------------------------------------------------------------

    def allocate_serial(self) -> int:
        serial = self._next_serial
        self._next_serial += 1
        return serial

    @property
    def next_serial(self) -> int:
        """The allocator's next value (snapshotted for recovery)."""
        return self._next_serial

    # -- event chain -------------------------------------------------------------

    @property
    def events(self) -> EventLog:
        """The hash-chained event log this store materializes."""
        return self._events

    def _anchor_chain(self, anchor_seq: int, anchor_hash: bytes) -> None:
        """Start the chain at an anchor, with an empty Merkle view of it.

        With a disk the chain appends to the end of its WAL file;
        without one the log opens a temporary file of its own.
        """
        file = None if self._disk is None else self._disk.file
        self._events = EventLog(anchor_seq, anchor_hash, file)
        self._merkle = MerkleLog(self._events.chain_hashes)

    def _seal(
        self,
        kind: str,
        serial: int,
        time: float,
        payload: dict,
        change: Callable[[], None],
    ) -> LedgerEvent:
        """Append to the chain, apply ``change`` to the view, snapshot.

        The one place a mutation is recorded.  The event is sealed
        first, so a seal that fails (a write to the log's file that
        raises or comes up short) leaves the view as it was; the view
        changes before a snapshot is cut, so the snapshot holds state
        consistent with the event's sequence number.  The disk decides
        whether one is due.
        """
        event = self._events.append(kind, serial, time, payload)
        change()
        self.log_operation()
        disk = self._disk
        if disk is not None and disk.snapshot_due(self._events.end_offset):
            disk.write_snapshot(
                self._records,
                self._next_serial,
                event.seq,
                event.chain_hash,
                self._events.end_offset,
            )
        return event

    # -- records ---------------------------------------------------------------

    def put(
        self, record: ClaimRecord, time: float = 0.0, kind: str = "claim"
    ) -> None:
        """Store a new record, sealing a full-record event."""
        serial = record.identifier.serial
        if serial in self._records:
            raise KeyError(f"serial {serial} already present")

        def change() -> None:
            self._records[serial] = record

        self._seal(kind, serial, time, {"record": record.to_payload()}, change)

    def apply_flip(
        self,
        serial: int,
        state: RevocationState,
        epoch: int,
        kind: str,
        time: float,
    ) -> None:
        """Flip an existing record's revocation state, sealing an event."""
        record = self._records.get(serial)
        if record is None:
            raise KeyError(f"serial {serial} not present")

        def change() -> None:
            record.state = state
            record.revocation_epoch = epoch

        payload = {"state": state.value, "epoch": epoch}
        self._seal(kind, serial, time, payload, change)

    def get(self, serial: int) -> Optional[ClaimRecord]:
        return self._records.get(serial)

    def __contains__(self, serial: int) -> bool:
        return serial in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[ClaimRecord]:
        """All records in serial order."""
        for serial in sorted(self._records):
            yield self._records[serial]

    def records_map(self) -> Dict[int, ClaimRecord]:
        """Shallow copy of the materialized view (serial -> record)."""
        return dict(self._records)

    def wipe(self) -> int:
        """Lose everything — a crash that takes the disk with it.

        Records, the event chain and the disk, if any, reset (they are
        one node's local state; peers keep theirs).  The serial
        allocator is preserved so a restarted single-node ledger cannot
        re-mint identifiers.  Returns the number of records lost.
        """
        lost = len(self._records)
        self._records.clear()
        if self._disk is not None:
            self._disk.wipe()
        self._anchor_chain(0, GENESIS_HASH)
        return lost

    def restore(
        self,
        records: Dict[int, ClaimRecord],
        next_serial: int,
        head_seq: int,
        head_hash: bytes,
    ) -> None:
        """Install crash-recovered state and resume the event chain.

        The records are adopted as-is (no events are sealed — they were
        already sealed before the crash); the chain resumes from the
        verified head so post-recovery mutations extend the proven
        history.  With a disk it resumes on the same WAL file, at its
        end: the caller has truncated the file to the verified prefix
        (:meth:`~repro.ledger.durable.DurableStore.truncate_after`).
        The Merkle view covers what is sealed from that anchor on; the
        history before it is on disk, proven by the head hash.
        """
        self._records = dict(records)
        self._next_serial = max(self._next_serial, next_serial)
        self._anchor_chain(head_seq, head_hash)

    def revoked_records(self) -> Iterator[ClaimRecord]:
        for record in self.records():
            if record.is_revoked:
                yield record

    # -- Merkle view -------------------------------------------------------------

    def log_operation(self) -> None:
        """Hash the newest chain hash into the Merkle view as its next leaf.

        Called by :meth:`_seal` and nothing else; the name is the one the
        end-to-end benchmark's tracer wraps to time the Merkle hash path.
        """
        self._merkle.append()

    @property
    def merkle(self) -> MerkleLog:
        """RFC 6962 tree over the chain hashes sealed since the anchor."""
        return self._merkle

    def counts(self) -> Dict[str, int]:
        """Record-state tallies, for monitoring and benches."""
        total = len(self._records)
        revoked = sum(1 for r in self._records.values() if r.is_revoked)
        custodial = sum(1 for r in self._records.values() if r.custodial)
        return {
            "total": total,
            "revoked": revoked,
            "not_revoked": total - revoked,
            "custodial": custodial,
            "events": self._events.head_seq,
        }
