"""Textbook RSA in Python: key generation, raw sign/verify.

The offline environment provides no compiled cryptography package, so
the reproduction implements textbook RSA with deterministic padding
(PKCS#1 v1.5-style, type 01) over SHA-256 digests.  This is sufficient
for the protocol logic the paper needs -- per-photo key pairs whose
private halves prove ownership -- while keeping everything auditable.
Its one modular exponentiation (:mod:`repro.crypto.modexp`) runs on the
libcrypto ``hashlib`` uses when present and on ``pow`` otherwise: the
same function on the integers, still stdlib-only.

Security notes (deliberate, documented trade-offs of a simulation):

* Default modulus size is 512 bits so test suites stay fast.  Pass
  ``bits=2048`` for realistic keys; nothing else changes.
* Primality testing is Miller-Rabin with 40 rounds (error probability
  below 2**-80 for random candidates), preceded by trial division by
  small primes.
* Randomness comes from a caller-supplied ``numpy.random.Generator`` so
  experiments are reproducible, or from ``secrets`` when none is given.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.crypto.modexp import modexp

__all__ = ["RsaPrivateKey", "RsaPublicKey", "generate_keypair"]

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = tuple(
    p
    for p in range(3, 1000, 2)
    if all(p % q for q in range(3, int(p**0.5) + 1, 2))
)

_MILLER_RABIN_ROUNDS = 40
_DEFAULT_PUBLIC_EXPONENT = 65537


def _rand_bits(nbits: int, rng: Optional[np.random.Generator]) -> int:
    """Return a random integer with exactly ``nbits`` bits (MSB set)."""
    if nbits < 2:
        raise ValueError("need at least 2 bits")
    if rng is None:
        value = secrets.randbits(nbits)
    else:
        # Draw bytes from the seeded generator for reproducibility.
        nbytes = (nbits + 7) // 8
        raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        value = int.from_bytes(raw, "big") >> (nbytes * 8 - nbits)
    return value | (1 << (nbits - 1)) | 1  # force top bit and oddness


def _rand_below(bound: int, rng: Optional[np.random.Generator]) -> int:
    """Return a uniform random integer in [2, bound)."""
    if rng is None:
        return 2 + secrets.randbelow(bound - 2)
    nbits = bound.bit_length()
    while True:
        nbytes = (nbits + 7) // 8
        raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        candidate = int.from_bytes(raw, "big") >> (nbytes * 8 - nbits)
        if 2 <= candidate < bound:
            return candidate


def is_probable_prime(n: int, rng: Optional[np.random.Generator] = None) -> bool:
    """Miller-Rabin primality test with trial division pre-filter."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = _rand_below(n - 1, rng)
        x = modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(nbits: int, rng: Optional[np.random.Generator]) -> int:
    """Generate a random prime with exactly ``nbits`` bits."""
    while True:
        candidate = _rand_bits(nbits, rng)
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``.

    ``verify`` checks a raw signature integer against a digest integer.
    Higher-level byte handling lives in :mod:`repro.crypto.signatures`.
    """

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def verify_int(self, digest: int, signature: int) -> bool:
        """Return True iff ``signature`` opens to the padded ``digest``."""
        if not 0 < signature < self.n:
            return False
        recovered = modexp(signature, self.e, self.n)
        return recovered == _pad_digest(digest, self.n)

    @cached_property
    def fingerprint(self) -> str:
        """Short stable identifier for this key (hex SHA-256 prefix)."""
        material = self.n.to_bytes((self.bits + 7) // 8, "big")
        material += self.e.to_bytes(8, "big")
        return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT components for faster signing."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @cached_property
    def _crt(self) -> Tuple[int, int, int]:
        """``(d mod p-1, d mod q-1, q^-1 mod p)``: fixed per key, not per signature."""
        return (
            self.d % (self.p - 1),
            self.d % (self.q - 1),
            pow(self.q, -1, self.p),
        )

    def sign_int(self, digest: int) -> int:
        """Sign a digest integer, returning the raw signature integer."""
        m = _pad_digest(digest, self.n)
        # CRT: compute m^d mod p and mod q, then recombine.
        dp, dq, qinv = self._crt
        sp = modexp(m % self.p, dp, self.p)
        sq = modexp(m % self.q, dq, self.q)
        h = (qinv * (sp - sq)) % self.p
        return (sq + h * self.q) % self.n


def _pad_digest(digest: int, n: int) -> int:
    """Deterministic PKCS#1 v1.5-style padding of a digest into Z_n.

    Layout (big-endian): ``0x00 0x01 FF..FF 0x00 || digest`` sized to one
    byte less than the modulus, so the padded value is always < n.
    """
    nbytes = (n.bit_length() + 7) // 8 - 1
    digest_bytes = digest.to_bytes(32, "big")
    pad_len = nbytes - 3 - len(digest_bytes)
    if pad_len < 1:
        raise ValueError("modulus too small for SHA-256 padding")
    padded = b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest_bytes
    return int.from_bytes(padded, "big")


def generate_keypair(
    bits: int = 512, rng: Optional[np.random.Generator] = None
) -> RsaPrivateKey:
    """Generate an RSA key pair with an ``bits``-bit modulus.

    Parameters
    ----------
    bits:
        Modulus size.  Must be at least 384 so SHA-256 padding fits.
    rng:
        Optional seeded generator for reproducible keys.  When omitted,
        the system CSPRNG is used.
    """
    if bits < 384:
        raise ValueError("modulus must be at least 384 bits to carry SHA-256")
    e = _DEFAULT_PUBLIC_EXPONENT
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; rare, retry
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)
