"""Crash recovery: snapshot + verified tail replay with evidence.

:func:`recover_store` is the restart path a shard runs against its
:class:`~repro.ledger.durable.DurableStore`.  It loads the newest
checksum-valid snapshot, reads the WAL from the snapshot's anchor
offset, and walks it with :func:`~repro.ledger.events.read_chain` — the
same reader :meth:`~repro.ledger.events.EventLog.verify_chain` uses —
which verifies every frame tag and every chain link.  The proven tail
is replayed onto the snapshot's records.  The walk stops at the first
frame it cannot vouch for and names what it saw:

``torn_record``
    the final frame is shorter than its length header promises;
``corrupted_segment``
    a frame's blake2b tag does not verify, or its body is not an event;
``truncated_segment``
    a verified frame's sequence number does not follow on — a middle
    of the log is gone;
``chain_broken``
    a frame decodes but its chain hash does not re-derive from the
    stored bytes (hashed as found, never re-encoded);
``snapshot_corrupt``
    a snapshot failed its checksum and was skipped.

Everything past the stop point is *unprovable* and is excluded from the
recovered state; the shard then truncates the WAL to the verified
prefix, resumes its chain there, and leans on peer backfill (hinted
handoff + anti-entropy) for the lost suffix.  The report carries both
the recovered records and the raw inputs (snapshot base, tail events)
so callers can independently re-replay and compare — the ``recovered
state == replayed log`` invariant the consistency checker enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.crypto.hashing import hash_struct
from repro.ledger.durable import DurableStore
from repro.ledger.events import GENESIS_HASH, LedgerEvent, read_chain, replay
from repro.ledger.records import ClaimRecord

__all__ = ["RecoveryReport", "recover_store", "records_digest"]


def records_digest(records: Dict[int, ClaimRecord]) -> str:
    """Hex digest of a records map's full content, serial-ordered."""
    return hash_struct(
        {"records": [records[serial].to_payload() for serial in sorted(records)]}
    ).hex()


@dataclass
class RecoveryReport:
    """What a restart could prove from its local disk."""

    records: Dict[int, ClaimRecord] = field(default_factory=dict)
    next_serial: int = 1
    anchor_seq: int = 0
    head_seq: int = 0
    head_hash: bytes = GENESIS_HASH
    tail_events: List[LedgerEvent] = field(default_factory=list)
    snapshot_records: Dict[int, ClaimRecord] = field(default_factory=dict)
    evidence: Tuple[str, ...] = ()
    #: WAL byte offset just past the last verified frame.
    truncation: int = 0

    #: Evidence kinds that mean the WAL scan stopped early — everything
    #: past the stop point was shed, so acknowledged writes may be
    #: missing locally and peer backfill is required.
    DESTRUCTIVE_EVIDENCE = frozenset(
        {"torn_record", "corrupted_segment", "truncated_segment",
         "chain_broken"}
    )

    @property
    def clean(self) -> bool:
        return not self.evidence

    @property
    def suffix_lost(self) -> bool:
        """True when the log scan shed suffix (vs. snapshot-only damage)."""
        return bool(self.DESTRUCTIVE_EVIDENCE.intersection(self.evidence))


def _load_snapshot(
    store: DurableStore,
) -> Tuple[Dict[int, ClaimRecord], int, int, bytes, int, List[str]]:
    """Newest usable snapshot as
    (records, next_serial, seq, hash, offset, evidence)."""
    body, offset, evidence = store.latest_valid_snapshot()
    if body is None:
        return {}, 1, 0, GENESIS_HASH, 0, evidence
    records: Dict[int, ClaimRecord] = {}
    for payload in body["records"]:
        record = ClaimRecord.from_payload(payload)
        records[record.identifier.serial] = record
    return (
        records,
        body["next_serial"],
        body["anchor_seq"],
        bytes.fromhex(body["anchor_hash"]),
        offset,
        evidence,
    )


def recover_store(
    store: DurableStore, use_snapshots: bool = True
) -> RecoveryReport:
    """Rebuild ledger state from a (possibly damaged) durable store.

    With ``use_snapshots=False`` the whole WAL is walked and replayed
    from genesis — slower, but it verifies every frame on disk; the
    perf suite uses it as the snapshot path's baseline and property
    tests use it to prove corruption anywhere in the log is caught.
    """
    if use_snapshots:
        base, next_serial, anchor_seq, anchor_hash, offset, evidence = (
            _load_snapshot(store)
        )
    else:
        base, next_serial, anchor_seq, anchor_hash, offset, evidence = (
            {}, 1, 0, GENESIS_HASH, 0, [],
        )
    tail, verdict, end = read_chain(store.read(offset), anchor_seq, anchor_hash)
    if verdict is not None:
        evidence.append(verdict)
    records = replay(tail, base=base)
    # Reconstruct the serial allocator: a claim minted through the
    # allocator carries exactly the serial the allocator would hand out
    # next, so replaying those in order replays the allocator too
    # (content-derived serials are 63-bit and never collide with it).
    for event in tail:
        if event.serial == next_serial and "record" in event.payload:
            next_serial += 1
    head_hash = tail[-1].chain_hash if tail else anchor_hash
    head_seq = tail[-1].seq if tail else anchor_seq
    return RecoveryReport(
        records=records,
        next_serial=next_serial,
        anchor_seq=anchor_seq,
        head_seq=head_seq,
        head_hash=head_hash,
        tail_events=tail,
        snapshot_records=base,
        evidence=tuple(evidence),
        truncation=offset + end,
    )
