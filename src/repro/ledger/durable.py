"""A simulated disk for the event log: WAL segments plus snapshots.

:class:`DurableStore` is the pluggable durability layer a
:class:`~repro.cluster.shard.ClusterShard` journals through.  It is
in-memory (the whole reproduction runs inside a deterministic
simulation) but byte-faithful to how a real write-ahead log fails:

* **Frames.**  Every event is one :func:`~repro.ledger.events.encode_frame`
  frame, as in an :class:`~repro.ledger.events.EventLog`'s own file: a
  4-byte big-endian length, the chain hash, the sealed bytes exactly as
  the chain hashed them, and an 8-byte blake2b tag over all but the
  length.  A torn write leaves a frame shorter than its header promises
  and a bit flip breaks the tag: both are *detected*, not replayed.
* **Segments.**  Frames append to the current segment; a segment seals
  after ``segment_size`` events.  Each segment remembers the sequence
  number of its first event, so recovery can seek straight to the
  segment containing the snapshot anchor instead of scanning history.
* **Snapshots.**  A snapshot is the canonical JSON of the materialized
  records map, *chain-anchored*: it names the event ``(seq, hash)`` it
  captures, and carries a blake2b checksum over its body.  Recovery
  loads the newest snapshot whose checksum verifies and replays only
  the log tail past its anchor.

The fault-injection surface (:meth:`tear_final_record`,
:meth:`corrupt_random_byte`, :meth:`corrupt_latest_snapshot`,
:meth:`wipe`) is what the storage chaos in :mod:`repro.chaos` drives;
every injector reports whether it actually landed so the consistency
checker can demand detection only for faults that exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ledger.events import (
    TAG_BYTES,
    LedgerEvent,
    canonical_json,
    encode_frame,
    frame_tag,
    read_frame,
)
from repro.ledger.records import ClaimRecord

__all__ = ["DurableStore", "Snapshot", "snapshot_body"]


def snapshot_body(
    records: Dict[int, ClaimRecord],
    next_serial: int,
    anchor_seq: int,
    anchor_hash: bytes,
) -> dict:
    """The JSON-able snapshot payload (records in serial order)."""
    return {
        "anchor_seq": anchor_seq,
        "anchor_hash": anchor_hash.hex(),
        "next_serial": next_serial,
        "records": [
            records[serial].to_payload() for serial in sorted(records)
        ],
    }


@dataclass
class Snapshot:
    """One stored snapshot: anchored body bytes plus its checksum."""

    anchor_seq: int
    body: bytes
    checksum: bytes

    @property
    def valid(self) -> bool:
        return frame_tag(self.body) == self.checksum


@dataclass
class _Segment:
    """One WAL segment: first event seq + raw frame bytes."""

    first_seq: int
    data: bytearray = field(default_factory=bytearray)
    events: int = 0


class DurableStore:
    """The simulated disk: append-only segments plus snapshots."""

    def __init__(self, segment_size: int = 256, max_snapshots: int = 2):
        if segment_size < 1:
            raise ValueError("segment size must be at least 1")
        self.segment_size = int(segment_size)
        self.max_snapshots = int(max_snapshots)
        self._segments: List[_Segment] = []
        self._snapshots: List[Snapshot] = []
        self.events_written = 0
        self.snapshots_written = 0

    # -- writing -------------------------------------------------------------------

    def append_event(self, event: LedgerEvent) -> None:
        segment = self._segments[-1] if self._segments else None
        if segment is None or segment.events >= self.segment_size:
            segment = _Segment(first_seq=event.seq)
            self._segments.append(segment)
        segment.data += encode_frame(event)
        segment.events += 1
        self.events_written += 1

    def write_snapshot(
        self,
        records: Dict[int, ClaimRecord],
        next_serial: int,
        anchor_seq: int,
        anchor_hash: bytes,
    ) -> None:
        """Persist a chain-anchored snapshot; oldest are pruned."""
        body = canonical_json(
            snapshot_body(records, next_serial, anchor_seq, anchor_hash)
        )
        self._snapshots.append(
            Snapshot(anchor_seq=anchor_seq, body=body, checksum=frame_tag(body))
        )
        if len(self._snapshots) > self.max_snapshots:
            del self._snapshots[: len(self._snapshots) - self.max_snapshots]
        self.snapshots_written += 1

    # -- reading -------------------------------------------------------------------

    @property
    def segments(self) -> List[bytes]:
        """Raw segment bytes, oldest first (read-only copies)."""
        return [bytes(segment.data) for segment in self._segments]

    def latest_valid_snapshot(self) -> Tuple[Optional[dict], List[str]]:
        """Newest checksum-valid snapshot body, plus detection evidence.

        Returns ``(parsed body | None, evidence)``; every invalid
        snapshot skipped on the way down is reported as
        ``snapshot_corrupt`` evidence.
        """
        evidence: List[str] = []
        for snapshot in reversed(self._snapshots):
            if not snapshot.valid:
                evidence.append("snapshot_corrupt")
                continue
            try:
                return json.loads(snapshot.body.decode("utf-8")), evidence
            except (UnicodeDecodeError, json.JSONDecodeError):
                # A body that passes its checksum but does not parse was
                # written corrupt — same verdict as a checksum failure.
                evidence.append("snapshot_corrupt")
        return None, evidence

    def scan_segments_from(self, anchor_seq: int) -> Tuple[int, List[bytes]]:
        """Segments that may hold events past ``anchor_seq``.

        Returns ``(index of the first scanned segment, raw bytes)`` —
        the last segment whose first event is at or before
        ``anchor_seq + 1``, and everything after it.
        """
        start = 0
        for index, segment in enumerate(self._segments):
            if segment.first_seq <= anchor_seq + 1:
                start = index
        return start, [
            bytes(segment.data) for segment in self._segments[start:]
        ]

    # -- recovery truncation ---------------------------------------------------------

    def truncate_after(
        self, segment_index: int, offset: int, head_seq: int
    ) -> int:
        """Drop the unprovable suffix past the last verified frame.

        ``segment_index``/``offset`` name the byte position just after
        the last frame recovery could verify; everything beyond it —
        torn, corrupted, or chain-broken — is discarded so the log on
        disk is exactly the history the restarted shard vouches for.
        Snapshots anchored past the new head (or failing their
        checksum) are dropped too.  Returns the number of bytes shed.
        """
        if not self._segments:
            return 0
        shed = 0
        segment_index = min(segment_index, len(self._segments) - 1)
        keep = self._segments[segment_index]
        offset = min(offset, len(keep.data))
        shed += len(keep.data) - offset
        del keep.data[offset:]
        keep.events = _count_frames(bytes(keep.data))
        for segment in self._segments[segment_index + 1 :]:
            shed += len(segment.data)
        del self._segments[segment_index + 1 :]
        if keep.events == 0 and len(self._segments) > 1:
            self._segments.pop()
        self._snapshots = [
            snapshot
            for snapshot in self._snapshots
            if snapshot.valid and snapshot.anchor_seq <= head_seq
        ]
        return shed

    # -- fault injection ---------------------------------------------------------------

    def tear_final_record(self) -> bool:
        """Cut the last frame short — a write interrupted mid-flush."""
        for segment in reversed(self._segments):
            if segment.data:
                cut = min(len(segment.data) - 1, TAG_BYTES + 1)
                del segment.data[len(segment.data) - cut :]
                return True
        return False

    def corrupt_random_byte(self, rng) -> bool:
        """Flip one byte in the newest non-empty segment."""
        for segment in reversed(self._segments):
            if segment.data:
                position = int(rng.integers(0, len(segment.data)))
                segment.data[position] ^= 0xFF
                return True
        return False

    def corrupt_latest_snapshot(self) -> bool:
        """Damage the newest snapshot — a partial snapshot write."""
        for snapshot in reversed(self._snapshots):
            if snapshot.body:
                body = bytearray(snapshot.body)
                body[len(body) // 2] ^= 0xFF
                snapshot.body = bytes(body)
                return True
        return False

    def wipe(self) -> int:
        """Lose the disk entirely; returns events lost."""
        lost = self.events_written
        self._segments.clear()
        self._snapshots.clear()
        self.events_written = 0
        return lost


def _count_frames(data: bytes) -> int:
    """Frames fully present in ``data`` (used after truncation)."""
    count, position = 0, 0
    while position < len(data):
        position, _, _ = read_frame(data, position)
        if position is None:
            break
        count += 1
    return count
