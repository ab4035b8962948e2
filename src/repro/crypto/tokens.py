"""Privacy-preserving payment tokens for ledger claims.

Section 3.2: "a privacy-focused ledger could use a payment system that
intentionally makes such an association difficult even if their
database is leaked (e.g., a payment system where an owner buys tokens
which are exchanged with other users in a mixing market before being
used to pay for claims)."

This module implements the issuer's half of that sketch:

* :class:`TokenIssuer` sells bearer tokens.  Each token is an opaque
  serial signed by the issuer; the issuer records *which account bought
  which serial* (that is exactly the leak a mixing market would exist
  to break).
* Spending is double-spend-protected: the issuer remembers redeemed
  serials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.signatures import KeyPair, Signature

__all__ = ["PaymentToken", "TokenIssuer", "TokenError"]


class TokenError(Exception):
    """Raised on invalid or double-spent tokens."""


@dataclass(frozen=True)
class PaymentToken:
    """A bearer token: issuer-signed serial, redeemable once."""

    serial: int
    issuer_fingerprint: str
    signature: Signature

    def payload(self) -> dict:
        return {"serial": self.serial, "issuer": self.issuer_fingerprint}


class TokenIssuer:
    """Sells and redeems payment tokens, keeping a purchase ledger.

    The purchase ledger (`purchases`) models the worst case the paper
    worries about: the issuer's database leaks, exposing who bought
    which serial.  The anonymity question is whether that record links
    buyers to *spends*.
    """

    def __init__(self, keypair: Optional[KeyPair] = None):
        self._keypair = keypair or KeyPair.generate()
        self._next_serial = 1
        self.purchases: Dict[int, str] = {}  # serial -> buyer account id
        self._redeemed: set[int] = set()

    @property
    def fingerprint(self) -> str:
        return self._keypair.fingerprint

    def sell(self, buyer_account: str) -> PaymentToken:
        """Sell one token to ``buyer_account``; the sale is recorded."""
        serial = self._next_serial
        self._next_serial += 1
        self.purchases[serial] = buyer_account
        payload = {"serial": serial, "issuer": self.fingerprint}
        return PaymentToken(
            serial=serial,
            issuer_fingerprint=self.fingerprint,
            signature=self._keypair.sign_struct(payload),
        )

    def redeem(self, token: PaymentToken) -> None:
        """Redeem a token; raises :class:`TokenError` if invalid or reused."""
        if token.issuer_fingerprint != self.fingerprint:
            raise TokenError("token from a different issuer")
        if not self._keypair.public.verify_struct(token.payload(), token.signature):
            raise TokenError("token signature invalid")
        if token.serial in self._redeemed:
            raise TokenError(f"token serial {token.serial} already spent")
        self._redeemed.add(token.serial)

    def is_redeemed(self, serial: int) -> bool:
        return serial in self._redeemed
