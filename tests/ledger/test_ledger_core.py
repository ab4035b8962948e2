"""Tests for the ledger's four core operations."""

import numpy as np
import pytest

from repro.core.errors import ClaimError, RevocationError
from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.crypto.timestamp import TimestampAuthority
from repro.crypto.tokens import TokenIssuer
from repro.ledger.ledger import Ledger, LedgerConfig
from repro.ledger.records import RevocationState


@pytest.fixture()
def tsa():
    return TimestampAuthority()


@pytest.fixture()
def ledger(tsa):
    return Ledger("test-ledger", tsa)


def _claim(ledger, keypair, content=b"photo-bytes"):
    content_hash = sha256_hex(content)
    signature = keypair.sign(content_hash.encode("utf-8"))
    return ledger.claim(content_hash, signature, keypair.public)


def _flip(ledger, keypair, identifier, action):
    nonce = ledger.make_challenge(identifier)
    payload = Ledger.ownership_payload(action, identifier, nonce)
    signature = keypair.sign_struct(payload)
    if action == "revoke":
        return ledger.revoke(identifier, nonce, signature)
    return ledger.unrevoke(identifier, nonce, signature)


class TestClaiming:
    def test_claim_returns_record(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        assert record.identifier.ledger_id == "test-ledger"
        assert record.identifier.serial == 1
        assert record.state is RevocationState.NOT_REVOKED

    def test_serials_increment(self, ledger, session_keypair):
        r1 = _claim(ledger, session_keypair, b"a")
        r2 = _claim(ledger, session_keypair, b"b")
        assert r2.identifier.serial == r1.identifier.serial + 1

    def test_claim_timestamp_verifies(self, ledger, session_keypair, tsa):
        record = _claim(ledger, session_keypair)
        assert record.timestamp.verify(tsa.public_key)

    def test_bad_signature_rejected(self, ledger, session_keypair, second_keypair):
        content_hash = sha256_hex(b"photo")
        wrong_sig = second_keypair.sign(content_hash.encode("utf-8"))
        with pytest.raises(ClaimError):
            ledger.claim(content_hash, wrong_sig, session_keypair.public)

    def test_initially_revoked(self, ledger, session_keypair):
        content_hash = sha256_hex(b"private")
        sig = session_keypair.sign(content_hash.encode("utf-8"))
        record = ledger.claim(
            content_hash, sig, session_keypair.public, initially_revoked=True
        )
        assert record.is_revoked

    def test_claim_counter(self, ledger, session_keypair):
        _claim(ledger, session_keypair)
        assert ledger.claims_served == 1

    def test_operations_logged(self, ledger, session_keypair):
        _claim(ledger, session_keypair)
        kinds = [event.kind for event in ledger.store.events.events]
        assert kinds == ["claim"]

    def test_invalid_ledger_id(self, tsa):
        with pytest.raises(ValueError):
            Ledger("", tsa)
        with pytest.raises(ValueError):
            Ledger("has:colon", tsa)


class TestPayment:
    def test_payment_required_and_accepted(self, tsa, session_keypair):
        issuer = TokenIssuer()
        ledger = Ledger(
            "paid-ledger",
            tsa,
            config=LedgerConfig(require_payment=True),
            token_issuer=issuer,
        )
        token = issuer.sell("anon-buyer")
        content_hash = sha256_hex(b"photo")
        sig = session_keypair.sign(content_hash.encode("utf-8"))
        record = ledger.claim(content_hash, sig, session_keypair.public, payment=token)
        assert record.identifier.serial == 1

    def test_missing_payment_rejected(self, tsa, session_keypair):
        ledger = Ledger(
            "paid-ledger",
            tsa,
            config=LedgerConfig(require_payment=True),
            token_issuer=TokenIssuer(),
        )
        with pytest.raises(ClaimError):
            _claim(ledger, session_keypair)

    def test_double_spent_token_rejected(self, tsa, session_keypair):
        issuer = TokenIssuer()
        ledger = Ledger(
            "paid-ledger",
            tsa,
            config=LedgerConfig(require_payment=True),
            token_issuer=issuer,
        )
        token = issuer.sell("buyer")
        content_hash = sha256_hex(b"p1")
        sig = session_keypair.sign(content_hash.encode("utf-8"))
        ledger.claim(content_hash, sig, session_keypair.public, payment=token)
        content_hash2 = sha256_hex(b"p2")
        sig2 = session_keypair.sign(content_hash2.encode("utf-8"))
        with pytest.raises(ClaimError):
            ledger.claim(content_hash2, sig2, session_keypair.public, payment=token)


class TestRevocation:
    def test_revoke_unrevoke_cycle(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        _flip(ledger, session_keypair, record.identifier, "revoke")
        assert ledger.record(record.identifier).is_revoked
        _flip(ledger, session_keypair, record.identifier, "unrevoke")
        assert not ledger.record(record.identifier).is_revoked

    def test_wrong_key_rejected(self, ledger, session_keypair, second_keypair):
        record = _claim(ledger, session_keypair)
        nonce = ledger.make_challenge(record.identifier)
        payload = Ledger.ownership_payload("revoke", record.identifier, nonce)
        bad_sig = second_keypair.sign_struct(payload)
        with pytest.raises(RevocationError):
            ledger.revoke(record.identifier, nonce, bad_sig)
        assert not ledger.record(record.identifier).is_revoked

    def test_nonce_single_use(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        nonce = ledger.make_challenge(record.identifier)
        payload = Ledger.ownership_payload("revoke", record.identifier, nonce)
        sig = session_keypair.sign_struct(payload)
        ledger.revoke(record.identifier, nonce, sig)
        with pytest.raises(RevocationError):
            ledger.revoke(record.identifier, nonce, sig)

    def test_unknown_nonce_rejected(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        fake_nonce = b"\x00" * 16
        payload = Ledger.ownership_payload("revoke", record.identifier, fake_nonce)
        sig = session_keypair.sign_struct(payload)
        with pytest.raises(RevocationError):
            ledger.revoke(record.identifier, fake_nonce, sig)

    def test_challenge_expiry(self, tsa, session_keypair):
        # Consumed by: claim's event, make_challenge, and the expiry
        # check inside revoke.
        times = iter([1.0, 2.0, 1000.0, 1001.0, 1002.0])
        ledger = Ledger(
            "t", tsa, clock=lambda: next(times), config=LedgerConfig(challenge_ttl=10.0)
        )
        record = _claim(ledger, session_keypair)
        nonce = ledger.make_challenge(record.identifier)
        payload = Ledger.ownership_payload("revoke", record.identifier, nonce)
        sig = session_keypair.sign_struct(payload)
        with pytest.raises(RevocationError):
            ledger.revoke(record.identifier, nonce, sig)

    def test_abandoned_challenges_are_dropped_after_ttl(self, tsa, session_keypair):
        now = [0.0]
        ledger = Ledger(
            "t", tsa, clock=lambda: now[0], config=LedgerConfig(challenge_ttl=10.0)
        )
        record = _claim(ledger, session_keypair)
        for _ in range(5):  # challenges whose flip never arrives
            ledger.make_challenge(record.identifier)
        now[0] = 8.0
        live = ledger.make_challenge(record.identifier)
        assert len(ledger._challenges) == 6  # none has expired yet
        now[0] = 12.0
        ledger.make_challenge(record.identifier)
        assert len(ledger._challenges) == 2  # the live one and the newest
        payload = Ledger.ownership_payload("revoke", record.identifier, live)
        ledger.revoke(record.identifier, live, session_keypair.sign_struct(payload))
        assert ledger.record(record.identifier).is_revoked

    def test_action_mismatch_rejected(self, ledger, session_keypair):
        """A signature authorizing 'unrevoke' must not authorize 'revoke'."""
        record = _claim(ledger, session_keypair)
        nonce = ledger.make_challenge(record.identifier)
        payload = Ledger.ownership_payload("unrevoke", record.identifier, nonce)
        sig = session_keypair.sign_struct(payload)
        with pytest.raises(RevocationError):
            ledger.revoke(record.identifier, nonce, sig)

    def test_unknown_identifier(self, ledger):
        ghost = PhotoIdentifier(ledger_id="test-ledger", serial=999)
        with pytest.raises(RevocationError):
            ledger.make_challenge(ghost)

    def test_permanent_revocation_blocks_owner(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        ledger.permanently_revoke(record.identifier)
        with pytest.raises(RevocationError):
            _flip(ledger, session_keypair, record.identifier, "unrevoke")

    def test_revocation_disabled_by_policy(self, tsa, session_keypair):
        ledger = Ledger(
            "archive", tsa, config=LedgerConfig(allow_revocation=False)
        )
        record = _claim(ledger, session_keypair)
        with pytest.raises(RevocationError):
            _flip(ledger, session_keypair, record.identifier, "revoke")

    def test_idempotent_revoke(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        _flip(ledger, session_keypair, record.identifier, "revoke")
        _flip(ledger, session_keypair, record.identifier, "revoke")
        assert ledger.record(record.identifier).is_revoked


class TestStatus:
    def test_status_proof_verifies(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        proof = ledger.status(record.identifier)
        assert proof.verify(ledger.public_key)
        assert not proof.revoked

    def test_status_reflects_revocation(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        _flip(ledger, session_keypair, record.identifier, "revoke")
        assert ledger.status(record.identifier).revoked

    def test_status_counter(self, ledger, session_keypair):
        record = _claim(ledger, session_keypair)
        for _ in range(3):
            ledger.status(record.identifier)
        assert ledger.status_queries_served == 3

    def test_status_unknown_identifier(self, ledger):
        with pytest.raises(RevocationError):
            ledger.status(PhotoIdentifier(ledger_id="test-ledger", serial=42))

    def test_status_batch(self, ledger, session_keypair):
        records = [_claim(ledger, session_keypair, f"p{i}".encode()) for i in range(4)]
        _flip(ledger, session_keypair, records[2].identifier, "revoke")
        proofs = ledger.status_batch([r.identifier for r in records])
        assert len(proofs) == 4
        assert [p.revoked for p in proofs] == [False, False, True, False]
        assert all(p.verify(ledger.public_key) for p in proofs)
        assert ledger.status_queries_served == 4

    def test_status_batch_empty(self, ledger):
        assert ledger.status_batch([]) == []

    def test_proof_tamper_detected(self, ledger, session_keypair):
        from dataclasses import replace

        record = _claim(ledger, session_keypair)
        proof = ledger.status(record.identifier)
        forged = replace(proof, revoked=True)
        assert not forged.verify(ledger.public_key)

    def test_proof_freshness(self, tsa, session_keypair):
        times = iter(np.arange(1.0, 100.0))
        ledger = Ledger("t", tsa, clock=lambda: float(next(times)))
        record = _claim(ledger, session_keypair)
        proof = ledger.status(record.identifier)
        assert proof.is_fresh(now=proof.checked_at + 5, max_age=10)
        assert not proof.is_fresh(now=proof.checked_at + 20, max_age=10)
