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
:func:`canonical_json`; those bytes are what the chain hash covers,
what the in-memory window keeps and what a durable frame stores — the
history verified is byte for byte the history kept.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.ledger.records import ClaimRecord, RevocationState

__all__ = [
    "GENESIS_HASH",
    "HASH_BYTES",
    "EventLog",
    "EventLogError",
    "LedgerEvent",
    "canonical_json",
    "chain_hash",
    "event_from_bytes",
    "replay",
    "verify_events",
]

HASH_BYTES = 32  # length of a chain hash

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
    """An append-only chain of :class:`LedgerEvent` values.

    The log may be *resumed* from an anchor — a recovery installs the
    verified head ``(seq, hash)`` and continues appending without
    holding the whole history in memory (the durable store keeps it).
    """

    def __init__(
        self, anchor_seq: int = 0, anchor_hash: bytes = GENESIS_HASH
    ):
        self._anchor_seq = int(anchor_seq)
        self._anchor_hash = anchor_hash
        self._events: List[LedgerEvent] = []
        self._head_seq = self._anchor_seq
        self._head_hash = anchor_hash

    # -- appending ---------------------------------------------------------------

    def append(
        self, kind: str, serial: int, time: float, payload: dict
    ) -> LedgerEvent:
        """Seal one event onto the chain and return it.

        The body is encoded here, once: a numpy float seals as the
        float it decodes back to, and a payload JSON cannot carry (raw
        ``bytes``, a numpy integer) raises before anything is sealed.
        """
        header = {
            "seq": self._head_seq + 1,
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
        self._events.append(event)
        self._head_seq = event.seq
        self._head_hash = event.chain_hash
        return event

    # -- inspection ---------------------------------------------------------------

    @property
    def head_seq(self) -> int:
        return self._head_seq

    @property
    def head_hash(self) -> bytes:
        return self._head_hash

    @property
    def anchor_seq(self) -> int:
        return self._anchor_seq

    @property
    def events(self) -> List[LedgerEvent]:
        """Events appended since the anchor (the in-memory window)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- verification -------------------------------------------------------------

    def verify_chain(self) -> bytes:
        """Re-derive every hash in the window; returns the head hash.

        Raises :class:`EventLogError` at the first broken link — a
        gapped sequence number, a mismatched predecessor hash, a chain
        hash that does not re-derive from the sealed bytes, or header
        fields that are not what those bytes decode to.
        """
        return verify_events(
            self._events, self._anchor_seq, self._anchor_hash
        )


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
