"""Misbehaving ledgers (section 5, "Malicious Ledgers?").

"Ledgers could misbehave in various ways (e.g., answering queries
incorrectly, not responding to an owner's request to revoke or
unrevoke a photo, etc.)."

Two concrete misbehaviours:

* :class:`LyingLedger` answers a fraction of status queries with the
  *opposite* revocation state (still signed -- which is what makes the
  probe evidence damning).
* :class:`StonewallingLedger` silently ignores a fraction of owners'
  revoke/unrevoke requests while pretending success.

Both are detected by :class:`repro.ledger.probes.HonestyProber`
(canaries + Merkle audits) and punished by
:class:`repro.attacks.reputation.LedgerMarket`.
"""

from __future__ import annotations

import numpy as np

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.signatures import Signature
from repro.ledger.ledger import Ledger
from repro.ledger.proofs import StatusProof
from repro.ledger.records import ClaimRecord

__all__ = ["LyingLedger", "StonewallingLedger"]


class LyingLedger(Ledger):
    """Flips a fraction of status answers.

    ``lie_probability`` is the chance any single status query is
    answered with the inverted revocation state.  Signatures remain
    valid over the (false) payload -- the ledger is lying, not broken.
    """

    def __init__(self, *args, lie_probability: float = 0.1, lie_rng=None, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= lie_probability <= 1.0:
            raise ValueError("lie_probability must be in [0, 1]")
        self.lie_probability = float(lie_probability)
        self._lie_rng = lie_rng or np.random.default_rng(0)
        self.lies_told = 0

    def status(self, identifier: PhotoIdentifier) -> StatusProof:
        record = self._require_record(identifier)
        self.status_queries_served += 1
        if self._lie_rng.uniform() >= self.lie_probability:
            return self._sign_status(record)
        # Lie: sign the inverted state.
        self.lies_told += 1
        lied_revoked = not record.is_revoked
        checked_at = self.now()
        payload = {
            "identifier": record.identifier.to_string(),
            "revoked": lied_revoked,
            "permanent": False,
            "checked_at": checked_at,
            "ledger": self.fingerprint,
        }
        return StatusProof(
            identifier=record.identifier.to_string(),
            revoked=lied_revoked,
            permanently_revoked=False,
            checked_at=checked_at,
            ledger_fingerprint=self.fingerprint,
            signature=self._keypair.sign_struct(payload),
        )


class StonewallingLedger(Ledger):
    """Silently drops a fraction of revocation state changes.

    The owner's request "succeeds" (no error, record returned) but the
    flag never moves -- the hardest misbehaviour to notice without
    probing, since every individual answer is internally consistent.
    """

    def __init__(self, *args, drop_probability: float = 0.5, drop_rng=None, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.drop_probability = float(drop_probability)
        self._drop_rng = drop_rng or np.random.default_rng(0)
        self.requests_dropped = 0

    def revoke(
        self, identifier: PhotoIdentifier, nonce: bytes, signature: Signature
    ) -> ClaimRecord:
        if self._drop_rng.uniform() < self.drop_probability:
            # Consume the challenge and pretend everything worked.
            record = self._require_record(identifier)
            self._verify_ownership("revoke", record, nonce, signature)
            self.requests_dropped += 1
            self.revocations_served += 1
            return record
        return super().revoke(identifier, nonce, signature)

    def unrevoke(
        self, identifier: PhotoIdentifier, nonce: bytes, signature: Signature
    ) -> ClaimRecord:
        if self._drop_rng.uniform() < self.drop_probability:
            record = self._require_record(identifier)
            self._verify_ownership("unrevoke", record, nonce, signature)
            self.requests_dropped += 1
            self.revocations_served += 1
            return record
        return super().unrevoke(identifier, nonce, signature)
