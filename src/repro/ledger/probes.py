"""Owner-side honesty probes.

Section 5, "Malicious Ledgers?": "the automated software that claims
photos on behalf of owners could periodically send probes to ledgers to
ensure that they are being answered correctly."

:class:`HonestyProber` maintains canary claims whose true state it
controls, flips them at random, and checks that the ledger's signed
status answers match.  It also audits the ledger's event chain for
history rewrites, through the Merkle view of it: the prober keeps the
last ``(size, root)`` it saw and the next round's tree must extend it.
Signed wrong answers are retained as portable evidence (the
reputational mechanism the paper leans on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.merkle import MerkleConsistencyError
from repro.crypto.signatures import KeyPair
from repro.ledger.ledger import Ledger
from repro.ledger.proofs import StatusProof

__all__ = ["HonestyProber", "ProbeReport", "ProbeViolation"]


@dataclass(frozen=True)
class ProbeViolation:
    """One detected misbehaviour, with evidence where available."""

    kind: str  # 'wrong_status' | 'bad_signature' | 'history_rewrite' | 'refused'
    identifier: Optional[str]
    detail: str
    evidence: Optional[StatusProof] = None


@dataclass
class ProbeReport:
    """Outcome of a probe round."""

    probes_sent: int = 0
    violations: List[ProbeViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass
class _Canary:
    identifier: PhotoIdentifier
    keypair: KeyPair
    expected_revoked: bool


class HonestyProber:
    """Maintains canaries on a ledger and audits its answers."""

    def __init__(self, ledger: Ledger, rng: Optional[np.random.Generator] = None):
        self.ledger = ledger
        self._rng = rng or np.random.default_rng(0)
        self._canaries: List[_Canary] = []
        self._last_merkle_size = 0
        self._last_merkle_root: Optional[bytes] = None

    @property
    def num_canaries(self) -> int:
        return len(self._canaries)

    def plant_canaries(self, count: int) -> None:
        """Claim ``count`` synthetic canary photos on the ledger."""
        for i in range(count):
            keypair = KeyPair.generate(bits=512, rng=self._rng)
            content_hash = sha256_hex(
                f"canary:{self.ledger.ledger_id}:{len(self._canaries)}:{i}".encode()
            )
            signature = keypair.sign(content_hash.encode("utf-8"))
            record = self.ledger.claim(content_hash, signature, keypair.public)
            self._canaries.append(
                _Canary(
                    identifier=record.identifier,
                    keypair=keypair,
                    expected_revoked=False,
                )
            )

    def _toggle(self, canary: _Canary) -> None:
        """Flip a canary's revocation state through the normal protocol."""
        nonce = self.ledger.make_challenge(canary.identifier)
        action = "unrevoke" if canary.expected_revoked else "revoke"
        payload = Ledger.ownership_payload(action, canary.identifier, nonce)
        signature = canary.keypair.sign_struct(payload)
        if canary.expected_revoked:
            self.ledger.unrevoke(canary.identifier, nonce, signature)
        else:
            self.ledger.revoke(canary.identifier, nonce, signature)
        canary.expected_revoked = not canary.expected_revoked

    def run_round(self, toggle_probability: float = 0.5) -> ProbeReport:
        """One probe round: randomly toggle canaries, then audit all.

        Returns a report listing every detected violation.
        """
        report = ProbeReport()
        for canary in self._canaries:
            if self._rng.random() < toggle_probability:
                try:
                    self._toggle(canary)
                except Exception as exc:  # noqa: BLE001 - misbehaviour is data
                    report.violations.append(
                        ProbeViolation(
                            kind="refused",
                            identifier=canary.identifier.to_string(),
                            detail=f"ledger refused a valid state change: {exc}",
                        )
                    )
        for canary in self._canaries:
            report.probes_sent += 1
            proof = self.ledger.status(canary.identifier)
            if not proof.verify(self.ledger.public_key):
                report.violations.append(
                    ProbeViolation(
                        kind="bad_signature",
                        identifier=canary.identifier.to_string(),
                        detail="status proof failed signature verification",
                        evidence=proof,
                    )
                )
                continue
            if proof.revoked != canary.expected_revoked:
                report.violations.append(
                    ProbeViolation(
                        kind="wrong_status",
                        identifier=canary.identifier.to_string(),
                        detail=(
                            f"ledger reports revoked={proof.revoked}, "
                            f"expected {canary.expected_revoked}"
                        ),
                        evidence=proof,
                    )
                )
        self._audit_merkle(report)
        return report

    def _audit_merkle(self, report: ProbeReport) -> None:
        merkle = self.ledger.store.merkle
        if self._last_merkle_root is not None:
            try:
                merkle.check_consistency(self._last_merkle_size, self._last_merkle_root)
            except MerkleConsistencyError as exc:
                report.violations.append(
                    ProbeViolation(
                        kind="history_rewrite",
                        identifier=None,
                        detail=str(exc),
                    )
                )
        self._last_merkle_size = merkle.size
        self._last_merkle_root = merkle.root()
