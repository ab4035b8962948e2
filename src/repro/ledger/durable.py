"""A simulated disk for the event log: one WAL file plus snapshots.

:class:`DurableStore` is the durability layer a
:class:`~repro.ledger.storage.LedgerStore` writes through.  It stands in
for a disk inside the deterministic simulation, but fails as a real
write-ahead log does:

* **One WAL.**  The store's file *is* the log's file: the ledger's
  :class:`~repro.ledger.events.EventLog` appends each sealed event to
  it as one :func:`~repro.ledger.events.encode_frame` frame — a 4-byte
  big-endian length, the chain hash, the sealed bytes exactly as the
  chain hashed them, and an 8-byte blake2b tag over all but the length.
  Each frame is written once.  A torn write leaves a frame shorter
  than its header promises and a bit flip breaks the tag: both are
  *detected* by :func:`~repro.ledger.events.read_chain`, not replayed.
* **Snapshots.**  A snapshot is the canonical JSON of the
  materialized records map, *chain-anchored* — it names the event
  ``(seq, hash)`` it captures and the file offset just past that
  event's frame — with a blake2b checksum over its body.  Recovery
  loads the newest snapshot whose checksum verifies and whose anchor
  the file still holds, seeks to its offset, and replays only the tail.
* **Cadence.**  The store works out when to cut from bytes it holds: a
  snapshot is due once the WAL past the newest one's anchor is as long
  as that snapshot's body (or :data:`MIN_SNAPSHOT_TAIL`, whichever is
  larger; from offset 0 before the first).  Each cut is paid for by at
  least as many bytes written since the last, so snapshots cost O(1)
  per WAL byte whatever the ledger's size, and a restart replays at
  most one snapshot's worth of tail.

The fault-injection surface (:meth:`tear_final_record`,
:meth:`corrupt_random_byte`, :meth:`corrupt_latest_snapshot`,
:meth:`wipe`) is what the storage chaos in :mod:`repro.chaos` drives;
every injector reports whether it actually landed so the consistency
checker can demand detection only for faults that exist.
"""

from __future__ import annotations

import io
import json
import tempfile
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ledger.events import TAG_BYTES, canonical_json, frame_tag
from repro.ledger.records import ClaimRecord

__all__ = ["DurableStore", "Snapshot"]

#: Snapshots kept; older ones are pruned as new ones are cut.
MAX_SNAPSHOTS = 2

#: WAL bytes that make a snapshot due however small the newest one is.
MIN_SNAPSHOT_TAIL = 4096


@dataclass
class Snapshot:
    """One stored snapshot: where its tail starts, body and checksum."""

    offset: int
    body: bytes
    checksum: bytes

    @property
    def valid(self) -> bool:
        return frame_tag(self.body) == self.checksum


class DurableStore:
    """The simulated disk: the WAL file plus chain-anchored snapshots."""

    def __init__(self):
        self.file = tempfile.TemporaryFile()
        weakref.finalize(self, self.file.close)
        self._snapshots: List[Snapshot] = []

    # -- writing -------------------------------------------------------------------

    def snapshot_due(self, offset: int) -> bool:
        """Whether a WAL ending at ``offset`` has outgrown its newest snapshot."""
        if not self._snapshots:
            return offset >= MIN_SNAPSHOT_TAIL
        newest = self._snapshots[-1]
        return offset - newest.offset >= max(len(newest.body), MIN_SNAPSHOT_TAIL)

    def write_snapshot(
        self,
        records: Dict[int, ClaimRecord],
        next_serial: int,
        anchor_seq: int,
        anchor_hash: bytes,
        offset: int,
    ) -> None:
        """Persist a snapshot anchored at the frame ending at ``offset``."""
        body = canonical_json({
            "anchor_seq": anchor_seq,
            "anchor_hash": anchor_hash.hex(),
            "next_serial": next_serial,
            "records": [
                records[serial].to_payload() for serial in sorted(records)
            ],
        })
        self._snapshots.append(
            Snapshot(offset=offset, body=body, checksum=frame_tag(body))
        )
        del self._snapshots[:-MAX_SNAPSHOTS]

    # -- reading -------------------------------------------------------------------

    def read(self, start: int = 0) -> bytes:
        """The WAL's bytes from ``start`` on; the write position stays put."""
        position = self.file.tell()
        self.file.seek(start)
        data = self.file.read()
        self.file.seek(position)
        return data

    @property
    def size(self) -> int:
        """Bytes in the WAL."""
        position = self.file.tell()
        size = self.file.seek(0, io.SEEK_END)
        self.file.seek(position)
        return size

    def latest_valid_snapshot(self) -> Tuple[Optional[dict], int, List[str]]:
        """Newest usable snapshot: ``(parsed body | None, offset, evidence)``.

        Every snapshot failing its checksum on the way down is reported
        as ``snapshot_corrupt`` evidence.  One whose anchor lies past
        the end of the WAL (a torn anchor frame) is passed over without
        evidence of its own: the scan from an older anchor reaches the
        damage and names it.
        """
        evidence: List[str] = []
        size = self.size
        for snapshot in reversed(self._snapshots):
            if not snapshot.valid:
                evidence.append("snapshot_corrupt")
                continue
            if snapshot.offset > size:
                continue
            try:
                body = json.loads(snapshot.body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                # A body that passes its checksum but does not parse was
                # written corrupt — same verdict as a checksum failure.
                evidence.append("snapshot_corrupt")
                continue
            return body, snapshot.offset, evidence
        return None, 0, evidence

    # -- recovery truncation ---------------------------------------------------------

    def truncate_after(self, offset: int) -> None:
        """Drop the unprovable suffix past the last verified frame.

        ``offset`` is the byte position just after the last frame
        recovery could verify; everything beyond it — torn, corrupted,
        or chain-broken — is discarded so the WAL is exactly the
        history the restarted shard vouches for, and the resumed chain
        appends from there.  Snapshots anchored past it (or failing
        their checksum) are dropped too.
        """
        self.file.seek(offset)
        self.file.truncate()
        self._snapshots = [
            snapshot
            for snapshot in self._snapshots
            if snapshot.valid and snapshot.offset <= offset
        ]

    # -- fault injection ---------------------------------------------------------------

    def tear_final_record(self) -> bool:
        """Cut the last frame short — a write interrupted mid-flush."""
        size = self.file.seek(0, io.SEEK_END)
        if not size:
            return False
        self.file.seek(size - min(size - 1, TAG_BYTES + 1))
        self.file.truncate()
        return True

    def corrupt_random_byte(self, rng) -> bool:
        """Flip one byte of the WAL past the newest snapshot's anchor.

        That is the part a restart scans; a flip before it would be
        damage no recovery reads, so with nothing past the anchor the
        fault does not land.
        """
        start = self._snapshots[-1].offset if self._snapshots else 0
        tail = self.read(start)
        if not tail:
            return False
        at = int(rng.integers(0, len(tail)))
        position = self.file.tell()
        self.file.seek(start + at)
        self.file.write(bytes([tail[at] ^ 0xFF]))
        self.file.seek(position)
        return True

    def corrupt_latest_snapshot(self) -> bool:
        """Damage the newest snapshot — a partial snapshot write."""
        for snapshot in reversed(self._snapshots):
            if snapshot.body:
                body = bytearray(snapshot.body)
                body[len(body) // 2] ^= 0xFF
                snapshot.body = bytes(body)
                return True
        return False

    def wipe(self) -> None:
        """Lose the disk entirely: the WAL and every snapshot."""
        self.file.seek(0)
        self.file.truncate()
        self._snapshots.clear()
