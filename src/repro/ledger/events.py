"""The append-only, hash-chained ledger event log.

Every state transition a ledger performs — claiming a record, flipping
its revocation flag, adopting a peer's newer state — is recorded as a
typed :class:`LedgerEvent` with a sequence number and a blake2b chain
hash over the event's canonical encoding.  Current ledger state is a
*materialized view* of this log: :func:`replay` rebuilds the records
map from any prefix, and the chain hash makes every prefix
self-authenticating — an auditor holding the head hash can verify the
entire history, and a recovery path can prove exactly which suffix of
a damaged log is still trustworthy.

Two event payload shapes exist:

* **full-record** events (``claim``, ``install``) carry the complete
  :meth:`~repro.ledger.records.ClaimRecord.to_payload` under a
  ``"record"`` key — replay upserts the record;
* **flip** events (``revoke``, ``unrevoke``, ``permanent_revoke``,
  ``apply_state``, ``install``-updates) carry ``{"state", "epoch"}`` —
  replay mutates the existing record.

Payloads are JSON-able by construction (bytes are hex-encoded at the
record layer).  An event is encoded once, at seal time, with
:func:`canonical_json`; those bytes are what the chain hash covers and
what a frame (:func:`encode_frame`) stores, both in the log's own file
and in a durable WAL segment — the history verified is byte for byte
the history kept.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.hashing import PackedDigests
from repro.ledger.records import ClaimRecord, RevocationState

__all__ = [
    "GENESIS_HASH",
    "HASH_BYTES",
    "TAG_BYTES",
    "EventLog",
    "EventLogError",
    "LedgerEvent",
    "canonical_json",
    "chain_hash",
    "encode_frame",
    "event_from_bytes",
    "frame_tag",
    "read_frame",
    "replay",
    "verify_events",
]

HASH_BYTES = 32  # length of a chain hash
TAG_BYTES = 8  # blake2b tag guarding each frame and snapshot body
_LEN_BYTES = 4

#: The anchor every chain starts from (no predecessor to hash).
GENESIS_HASH = hashlib.blake2b(
    b"repro-ledger-eventlog-genesis", digest_size=HASH_BYTES
).digest()

#: Event kinds that carry a ``{"state", "epoch"}`` flip payload.
FLIP_KINDS = frozenset(
    {"revoke", "unrevoke", "permanent_revoke", "apply_state", "install"}
)


class EventLogError(Exception):
    """Raised on chain breaks, malformed events, or unreplayable logs."""


def canonical_json(value: dict) -> bytes:
    """The one byte encoding of event bodies and snapshots (sorted keys,
    compact separators); raises on what JSON cannot carry."""
    compact = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return compact.encode("utf-8")


def frame_tag(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=TAG_BYTES).digest()


def encode_frame(event: "LedgerEvent") -> bytes:
    """One frame: length + chain hash + sealed bytes + blake2b tag
    (see :mod:`repro.ledger.durable` for what each part detects)."""
    body = event.chain_hash + event.encoded
    return len(body).to_bytes(_LEN_BYTES, "big") + body + frame_tag(body)


def read_frame(
    data: bytes, position: int
) -> Tuple[Optional[int], Optional[bytes], Optional[bytes]]:
    """The frame at ``position``: ``(end offset, chain hash, sealed bytes)``.

    A torn frame (the data stops before it does) has no end; a frame
    whose tag does not verify has no hash and no bytes.
    """
    body_start = position + _LEN_BYTES
    body_end = body_start + int.from_bytes(data[position:body_start], "big")
    end = body_end + TAG_BYTES
    if end > len(data):
        return None, None, None
    body = data[body_start:body_end]
    if frame_tag(body) != data[body_end:end]:
        return end, None, None
    return end, body[:HASH_BYTES], body[HASH_BYTES:]


@dataclass(frozen=True, slots=True)
class LedgerEvent:
    """One link in the hash chain.

    Attributes
    ----------
    seq:
        1-based position in the log; contiguous by construction.
    kind:
        Event type (see module docstring for the payload contract).
    serial:
        The claim record the event concerns.
    time:
        Ledger-local time of the mutation (injected clock; informative,
        but hashed so history cannot be silently re-dated).
    encoded:
        The sealed bytes (:func:`canonical_json` of :meth:`body`); the
        four fields above must equal the header they decode to.
    prev_hash:
        Chain hash of the predecessor (:data:`GENESIS_HASH` for seq 1).
    chain_hash:
        blake2b over ``prev_hash + encoded``.
    """

    seq: int
    kind: str
    serial: int
    time: float
    encoded: bytes
    prev_hash: bytes
    chain_hash: bytes

    def body(self) -> dict:
        """The hashed portion, decoded: header fields plus ``payload``."""
        return json.loads(self.encoded)

    @property
    def payload(self) -> dict:
        """JSON-able event body (full record or flip), decoded on demand."""
        return self.body()["payload"]


def chain_hash(prev_hash: bytes, encoded: bytes) -> bytes:
    """blake2b link: predecessor hash + the event's sealed bytes."""
    return hashlib.blake2b(prev_hash + encoded, digest_size=HASH_BYTES).digest()


def event_from_bytes(
    encoded: bytes, prev_hash: bytes, sealed_hash: bytes
) -> LedgerEvent:
    """The event whose header is what ``encoded`` says it is (raises
    ``ValueError``/``KeyError``/``TypeError`` if that is no event body)."""
    body = json.loads(encoded)
    return LedgerEvent(
        seq=body["seq"],
        kind=body["kind"],
        serial=body["serial"],
        time=body["time"],
        encoded=encoded,
        prev_hash=prev_hash,
        chain_hash=sealed_hash,
    )


class EventLog:
    """An append-only chain of :class:`LedgerEvent` values, kept on file.

    Each sealed event goes to an anonymous temporary file the log owns,
    as one :func:`encode_frame` frame; RAM keeps only each frame's end
    offset and each chain hash.  Nothing is fsynced: the file keeps the
    history off the heap, it does not promise it survives the process.
    A log may be *resumed* from a verified anchor ``(seq, hash)`` and
    holds nothing before it (the durable store keeps that).
    """

    def __init__(
        self, anchor_seq: int = 0, anchor_hash: bytes = GENESIS_HASH
    ):
        self._anchor_seq = int(anchor_seq)
        self._anchor_hash = anchor_hash
        self._file = tempfile.TemporaryFile()
        weakref.finalize(self, self._file.close)
        self._ends = array("Q")
        self._hashes = PackedDigests(HASH_BYTES)
        self._head_hash = anchor_hash

    # -- appending ---------------------------------------------------------------

    def append(
        self, kind: str, serial: int, time: float, payload: dict
    ) -> LedgerEvent:
        """Seal one event onto the chain, write its frame, return it.

        The body is encoded here, once: a numpy float seals as the
        float it decodes back to, and a payload JSON cannot carry (raw
        ``bytes``, a numpy integer) raises before anything is sealed,
        and so does a write that raises or comes up short (the next
        append overwrites what it left).
        """
        header = {
            "seq": self.head_seq + 1,
            "kind": kind,
            "serial": int(serial),
            "time": float(time),
        }
        encoded = canonical_json({**header, "payload": payload})
        event = LedgerEvent(
            **header,
            encoded=encoded,
            prev_hash=self._head_hash,
            chain_hash=chain_hash(self._head_hash, encoded),
        )
        frame = encode_frame(event)
        start = self._ends[-1] if self._ends else 0
        try:
            if self._file.write(frame) != len(frame):
                raise EventLogError(f"short write sealing seq {event.seq}")
        except BaseException:
            self._file.seek(start)
            raise
        self._ends.append(start + len(frame))
        self._hashes.append(event.chain_hash)
        self._head_hash = event.chain_hash
        return event

    # -- inspection ---------------------------------------------------------------

    @property
    def head_seq(self) -> int:
        return self._anchor_seq + len(self._ends)

    @property
    def head_hash(self) -> bytes:
        return self._head_hash

    @property
    def anchor_seq(self) -> int:
        return self._anchor_seq

    @property
    def chain_hashes(self) -> PackedDigests:
        """Chain hash of every event since the anchor, in seal order."""
        return self._hashes

    @property
    def events(self) -> List[LedgerEvent]:
        """Events since the anchor, read back as :meth:`verify_chain` does."""
        return self._read_back()

    def __len__(self) -> int:
        return len(self._ends)

    # -- verification -------------------------------------------------------------

    def verify_chain(self) -> bytes:
        """Re-derive every hash from the stored bytes; returns the head hash.

        Raises :class:`EventLogError` at the first torn or corrupt frame,
        sequence gap, or hash or header that does not re-derive from the
        stored bytes, and if the stored chain is not the one sealed.
        """
        self._read_back()
        return self._head_hash

    def _read_back(self) -> List[LedgerEvent]:
        end = self._ends[-1] if self._ends else 0
        self._file.seek(0)
        data = self._file.read(end)
        self._file.seek(end)
        events: List[LedgerEvent] = []
        start, prev_hash = 0, self._anchor_hash
        for stored_end, sealed in zip(self._ends, self._hashes.prefix(len(self))):
            stop, stored_hash, encoded = read_frame(data, start)
            where = f"stored frame of seq {self._anchor_seq + len(events) + 1}"
            if stop != stored_end or stored_hash != sealed:
                raise EventLogError(f"{where} is torn, corrupt or not the one sealed")
            try:
                events.append(event_from_bytes(encoded, prev_hash, stored_hash))
            except (ValueError, KeyError, TypeError) as exc:
                raise EventLogError(f"{where} is no event") from exc
            start, prev_hash = stop, stored_hash
        verify_events(events, self._anchor_seq, self._anchor_hash)
        return events


def verify_events(
    events: Iterable[LedgerEvent], anchor_seq: int, anchor_hash: bytes
) -> bytes:
    """Verify a contiguous event run against its anchor; head hash out."""
    head_seq, head_hash = anchor_seq, anchor_hash
    for event in events:
        if event.seq != head_seq + 1:
            raise EventLogError(
                f"sequence gap: expected {head_seq + 1}, got {event.seq}"
            )
        if event.prev_hash != head_hash:
            raise EventLogError(
                f"chain break at seq {event.seq}: predecessor hash mismatch"
            )
        derived = chain_hash(head_hash, event.encoded)
        if event != event_from_bytes(event.encoded, head_hash, derived):
            raise EventLogError(
                f"chain break at seq {event.seq}: hash or header does not "
                f"re-derive from the sealed bytes"
            )
        head_seq, head_hash = event.seq, event.chain_hash
    return head_hash


def replay(
    events: Iterable[LedgerEvent],
    base: Optional[Dict[int, ClaimRecord]] = None,
) -> Dict[int, ClaimRecord]:
    """Materialize the records map from ``base`` plus ``events``.

    ``base`` (a snapshot's state) is never mutated; records are copied
    on first touch so replay is a pure function of its inputs.
    """
    records: Dict[int, ClaimRecord] = {}
    if base:
        for serial, record in base.items():
            records[serial] = ClaimRecord.from_payload(record.to_payload())
    for event in events:
        payload = event.payload
        if "record" in payload:
            records[event.serial] = ClaimRecord.from_payload(
                payload["record"]
            )
            continue
        record = records.get(event.serial)
        if record is None:
            raise EventLogError(
                f"{event.kind} event at seq {event.seq} flips unknown "
                f"serial {event.serial}"
            )
        record.state = RevocationState(payload["state"])
        record.revocation_epoch = payload["epoch"]
    return records
