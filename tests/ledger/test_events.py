"""Unit tests for the hash-chained ledger event log."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.ledger.events import (
    GENESIS_HASH,
    EventLog,
    EventLogError,
    chain_hash,
    event_from_bytes,
    replay,
    verify_events,
)
from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.records import ClaimRecord, RevocationState, claim_digest


@pytest.fixture(scope="module")
def make_record(session_keypair):
    tsa = TimestampAuthority()

    def make(serial: int = 1):
        content_hash = sha256_hex(f"events-photo-{serial}".encode())
        return ClaimRecord(
            identifier=PhotoIdentifier(ledger_id="events-test", serial=serial),
            content_hash=content_hash,
            content_signature=session_keypair.sign(
                content_hash.encode("utf-8")
            ),
            public_key=session_keypair.public,
            timestamp=tsa.issue(
                claim_digest(content_hash, session_keypair.public)
            ),
        )

    return make


def _flip(state="revoked", epoch=1):
    return {"state": state, "epoch": epoch}


class TestChain:
    def test_append_links_from_genesis(self):
        log = EventLog()
        first = log.append("claim", 1, 0.0, _flip())
        assert first.seq == 1
        assert first.prev_hash == GENESIS_HASH
        assert first.chain_hash == chain_hash(GENESIS_HASH, first.encoded)

    def test_chain_is_contiguous_and_verifies(self):
        log = EventLog()
        for index in range(10):
            log.append("apply_state", index + 1, float(index), _flip(epoch=index))
        assert log.head_seq == 10
        assert log.verify_chain() == log.head_hash

    def test_resume_from_anchor(self):
        log = EventLog()
        for index in range(5):
            log.append("apply_state", 1, float(index), _flip(epoch=index))
        resumed = EventLog(anchor_seq=log.head_seq, anchor_hash=log.head_hash)
        event = resumed.append("revoke", 1, 5.0, _flip(epoch=5))
        assert event.seq == 6
        assert event.prev_hash == log.head_hash
        assert resumed.verify_chain() == resumed.head_hash

    def test_verify_rejects_sequence_gap(self):
        log = EventLog()
        a = log.append("claim", 1, 0.0, _flip())
        c = EventLog(anchor_seq=2, anchor_hash=a.chain_hash).append(
            "revoke", 1, 1.0, _flip()
        )
        with pytest.raises(EventLogError, match="sequence gap"):
            verify_events([a, c], 0, GENESIS_HASH)

    def test_verify_rejects_predecessor_mismatch(self):
        log = EventLog()
        log.append("claim", 1, 0.0, _flip())
        b = log.append("revoke", 1, 1.0, _flip())
        forged = EventLog().append("claim", 2, 0.0, _flip())
        with pytest.raises(EventLogError, match="predecessor hash"):
            verify_events([forged, b], 0, GENESIS_HASH)

    def test_verify_rejects_rewritten_body(self):
        log = EventLog()
        event = log.append("claim", 1, 0.0, _flip())
        redated = replace(event, time=99.0)
        with pytest.raises(EventLogError, match="does not re-derive"):
            verify_events([redated], 0, GENESIS_HASH)


class TestWireForm:
    def test_dict_round_trip(self):
        event = EventLog().append("revoke", 7, 1.5, _flip(epoch=3))
        assert json.loads(event.encoded) == event.body() == {
            "seq": 1,
            "kind": "revoke",
            "serial": 7,
            "time": 1.5,
            "payload": _flip(epoch=3),
        }
        assert event.payload == _flip(epoch=3)
        assert (
            event_from_bytes(event.encoded, event.prev_hash, event.chain_hash)
            == event
        )

    def test_numpy_scalars_normalized_before_hashing(self):
        """np.float64 values must seal as the float they decode back to.

        numpy scalars are float subclasses whose ``repr`` differs from
        the plain float's; sealing that ``repr`` would produce a chain
        hash that fails to re-derive from the decoded event (the exact
        bug chaos clock skews exposed).
        """
        event = EventLog().append(
            "apply_state",
            np.int64(5),
            np.float64(9.145407576097107),
            {"state": "revoked", "epoch": 1, "skew": np.float64(0.25)},
        )
        plain = EventLog().append(
            "apply_state",
            5,
            9.145407576097107,
            {"state": "revoked", "epoch": 1, "skew": 0.25},
        )
        assert type(event.time) is float
        assert type(event.serial) is int
        assert event.encoded == plain.encoded
        assert event.chain_hash == plain.chain_hash
        assert type(event.payload["skew"]) is float
        decoded = event_from_bytes(
            event.encoded, event.prev_hash, event.chain_hash
        )
        assert decoded == event
        assert verify_events([decoded], 0, GENESIS_HASH) == event.chain_hash

    @pytest.mark.parametrize("value", [b"raw", np.int64(3)])
    def test_payload_json_cannot_carry_raises_at_append(self, value):
        log = EventLog()
        with pytest.raises(TypeError):
            log.append("apply_state", 1, 0.0, {"state": "revoked", "epoch": value})
        assert log.head_seq == 0 and len(log) == 0


class TestReplay:
    def test_flip_events_mutate_existing_record(self, make_record):
        record = make_record()
        serial = record.identifier.serial
        log = EventLog()
        log.append("claim", serial, 0.0, {"record": record.to_payload()})
        log.append(
            "revoke", serial, 1.0, {"state": "revoked", "epoch": 1}
        )
        records = replay(log.events)
        assert records[serial].state is RevocationState.REVOKED
        assert records[serial].revocation_epoch == 1

    def test_replay_never_mutates_base(self, make_record):
        record = make_record()
        serial = record.identifier.serial
        log = EventLog(anchor_seq=1)
        log.append(
            "revoke", serial, 1.0, {"state": "revoked", "epoch": 1}
        )
        base = {serial: record}
        replayed = replay(log.events, base=base)
        assert record.state is RevocationState.NOT_REVOKED
        assert replayed[serial].state is RevocationState.REVOKED

    def test_flip_of_unknown_serial_raises(self):
        log = EventLog()
        log.append("revoke", 42, 0.0, _flip())
        with pytest.raises(EventLogError, match="unknown"):
            replay(log.events)
