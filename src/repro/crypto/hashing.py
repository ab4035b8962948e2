"""Hashing helpers shared across the IRS implementation.

All persistent identifiers and signatures in the system are bound to
SHA-256 digests.  To make signatures over structured records well
defined, this module also provides a small canonical encoding
(:func:`canonical_encode`) that maps nested Python structures of
primitives to deterministic bytes, independent of dict insertion order.
"""

from __future__ import annotations

import hashlib
from typing import Any, List

__all__ = [
    "PackedDigests",
    "sha256_bytes",
    "sha256_hex",
    "sha256_int",
    "canonical_encode",
    "hash_struct",
    "hmac_sha256",
]


def sha256_bytes(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a 64-char hex string."""
    return hashlib.sha256(data).hexdigest()


def sha256_int(data: bytes) -> int:
    """Return the SHA-256 digest of ``data`` as a big-endian integer.

    This is the form consumed by the RSA sign/verify primitive, which
    operates on integers modulo ``n``.
    """
    return int.from_bytes(sha256_bytes(data), "big")


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Return the HMAC-SHA256 tag of ``data`` under ``key``."""
    import hmac

    return hmac.new(key, data, hashlib.sha256).digest()


class PackedDigests:
    """Equal-width digests in one ``bytearray``: a long-lived log of
    hashes costs ``width`` bytes an entry, not a ``bytes`` object each."""

    __slots__ = ("width", "_data")

    def __init__(self, width: int):
        self.width, self._data = int(width), bytearray()

    def __len__(self) -> int:
        return len(self._data) // self.width

    def __getitem__(self, index: int) -> bytes:
        if not 0 <= index < len(self):
            raise IndexError(index)
        return bytes(self._data[index * self.width : (index + 1) * self.width])

    def append(self, digest: bytes) -> None:
        self._data += digest

    def prefix(self, count: int) -> List[bytes]:
        """The first ``count`` digests, as a list."""
        data, width = bytes(self._data[: count * self.width]), self.width
        return [data[i : i + width] for i in range(0, len(data), width)]


def canonical_encode(value: Any) -> bytes:
    """Encode a nested structure of primitives into deterministic bytes.

    Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, and lists/tuples/dicts of those.  Dict keys must be
    strings and are sorted, so two dicts with the same contents encode
    identically regardless of insertion order.

    The encoding is injective over the supported domain: every value is
    tagged with a one-byte type marker and length-prefixed, so distinct
    structures never collide.
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        # bool must precede int: bool is a subclass of int.
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        body = str(value).encode("ascii")
        out += b"I" + len(body).to_bytes(4, "big") + body
    elif isinstance(value, float):
        body = repr(value).encode("ascii")
        out += b"D" + len(body).to_bytes(4, "big") + body
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out += b"S" + len(body).to_bytes(4, "big") + body
    elif isinstance(value, bytes):
        out += b"B" + len(value).to_bytes(4, "big") + value
    elif isinstance(value, (list, tuple)):
        out += b"L" + len(value).to_bytes(4, "big")
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        keys = sorted(value)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
        out += b"M" + len(keys).to_bytes(4, "big")
        for key in keys:
            _encode_into(key, out)
            _encode_into(value[key], out)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def hash_struct(value: Any) -> bytes:
    """Return the SHA-256 digest of the canonical encoding of ``value``."""
    return sha256_bytes(canonical_encode(value))
