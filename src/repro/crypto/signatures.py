"""Key pairs and signatures as used throughout the IRS.

The paper's camera software "generates a unique key pair for the photo,
hashes the photo, and then encrypts the hash with the private key"
(section 3.2).  In modern terms that is a signature over the photo hash,
and this module provides exactly that object model:

* :class:`KeyPair` -- generated per photo (or per ledger / timestamp
  authority); can sign bytes or canonical structures.
* :class:`PublicKey` -- the verification half stored in ledger records.
* :class:`Signature` -- a detached signature carrying its signer's
  fingerprint, convenient for audit trails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.crypto import rsa
from repro.crypto.hashing import canonical_encode, sha256_int

__all__ = ["KeyPair", "PublicKey", "Signature"]


@dataclass(frozen=True, slots=True)
class Signature:
    """A detached signature over a SHA-256 digest.

    Attributes
    ----------
    value:
        The raw RSA signature integer.
    signer_fingerprint:
        Fingerprint of the public key expected to verify this signature;
        purely advisory (verification uses the actual key).
    """

    value: int
    signer_fingerprint: str

    def to_dict(self) -> dict:
        return {"value": self.value, "signer": self.signer_fingerprint}

    @staticmethod
    def from_dict(data: dict) -> "Signature":
        return Signature(value=data["value"], signer_fingerprint=data["signer"])


@dataclass(frozen=True, slots=True)
class PublicKey:
    """Verification half of a key pair."""

    _key: rsa.RsaPublicKey

    @property
    def fingerprint(self) -> str:
        return self._key.fingerprint

    @property
    def bits(self) -> int:
        return self._key.bits

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Return True iff ``signature`` is valid for ``message``."""
        return self._key.verify_int(sha256_int(message), signature.value)

    def verify_struct(self, struct: Any, signature: Signature) -> bool:
        """Verify a signature over the canonical encoding of ``struct``."""
        return self.verify(canonical_encode(struct), signature)

    def to_dict(self) -> dict:
        return {"n": self._key.n, "e": self._key.e}

    @staticmethod
    def from_dict(data: dict) -> "PublicKey":
        """Rebuild a key from :meth:`to_dict` output; ``ValueError`` on anything else.

        The dict may come off a wire: only an odd modulus of the size
        :func:`rsa.generate_keypair` demands and an odd exponent >= 3 pass.
        """
        n, e = data["n"], data["e"]
        if type(n) is not int or type(e) is not int:
            raise ValueError("public key fields must be integers")
        if n < 1 << 383 or not n & 1:
            raise ValueError("modulus must be odd and at least 384 bits")
        if e < 3 or not e & 1:
            raise ValueError("public exponent must be odd and at least 3")
        return PublicKey(rsa.RsaPublicKey(n=n, e=e))


class KeyPair:
    """A signing key pair (per photo, per ledger, or per authority).

    Create with :meth:`generate`; the private half never leaves this
    object.  The paper's ownership proof -- demonstrating possession of
    the private key matching a ledger record's public key -- is realized
    by :meth:`sign` / :meth:`sign_struct` over a ledger-chosen challenge.
    """

    def __init__(self, private_key: rsa.RsaPrivateKey):
        self._private = private_key
        self._public = PublicKey(private_key.public)

    @classmethod
    def generate(
        cls, bits: int = 512, rng: Optional[np.random.Generator] = None
    ) -> "KeyPair":
        """Generate a fresh key pair (seeded when ``rng`` is given)."""
        return cls(rsa.generate_keypair(bits=bits, rng=rng))

    @property
    def public(self) -> PublicKey:
        return self._public

    @property
    def fingerprint(self) -> str:
        return self._public.fingerprint

    def sign(self, message: bytes) -> Signature:
        """Sign raw bytes (hashed internally with SHA-256)."""
        value = self._private.sign_int(sha256_int(message))
        return Signature(value=value, signer_fingerprint=self.fingerprint)

    def sign_struct(self, struct: Any) -> Signature:
        """Sign the canonical encoding of a nested structure."""
        return self.sign(canonical_encode(struct))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KeyPair(fingerprint={self.fingerprint}, bits={self._public.bits})"
