"""Photo identifiers: "a unique identifier that refers to both the
ledger and the specific photo" (section 3.2).

An identifier is a (ledger, serial) pair with two encodings:

* **String form** ``irs1:<ledger-id>:<serial>`` carried in explicit
  metadata; human-readable and unambiguous.
* **Compact form** (12 bytes): a 4-byte ledger tag (SHA-256 prefix of
  the ledger id) plus an 8-byte big-endian serial, sized for the
  watermark payload ("the identifier has relatively few bits").

The ledger registry (:mod:`repro.ledger.registry`) resolves ledger tags
back to ledgers when only the compact form survives (e.g. metadata was
stripped but the watermark persisted).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.hashing import sha256_bytes

__all__ = ["PhotoIdentifier", "IdentifierError", "COMPACT_LENGTH", "compact_keys",
           "identifier_string", "ledger_tag", "string_prefix"]

_PREFIX = "irs1"
#: Compact encoding length in bytes (watermark payload size).
COMPACT_LENGTH = 12
_TAG_LENGTH = 4
_SERIAL_LENGTH = 8
_SERIAL_LIMIT = 2 ** (8 * _SERIAL_LENGTH)


class IdentifierError(Exception):
    """Raised on malformed identifiers."""


@lru_cache(maxsize=1024)  # a process names a handful of ledgers, ids by the million
def ledger_tag(ledger_id: str) -> bytes:
    """4-byte tag identifying a ledger in compact encodings."""
    if not ledger_id:
        raise IdentifierError("ledger id must be non-empty")
    return sha256_bytes(ledger_id.encode("utf-8"))[:_TAG_LENGTH]


def _compact(tag: bytes, serial: int) -> bytes:
    return tag + serial.to_bytes(_SERIAL_LENGTH, "big")


def compact_keys(ledger_id: str, serials: list[int]) -> list[bytes]:
    """The compact forms of ``serials`` on one ledger, its tag looked up once."""
    tag = ledger_tag(ledger_id)
    return [_compact(tag, serial) for serial in serials]


def string_prefix(ledger_id: str) -> str:
    """What every string form on ``ledger_id`` starts with: ``irs1:<ledger-id>:``."""
    return f"{_PREFIX}:{ledger_id}:"


def identifier_string(ledger_id: str, serial: int) -> str:
    """The string form ``irs1:<ledger-id>:<serial>``, with no identifier built."""
    return string_prefix(ledger_id) + str(serial)


@dataclass(frozen=True, slots=True)
class PhotoIdentifier:
    """A (ledger, serial) pair naming one claim record."""

    ledger_id: str
    serial: int

    def __post_init__(self) -> None:
        if not self.ledger_id:
            raise IdentifierError("ledger id must be non-empty")
        # ':' is the string-encoding separator; '|' is its escape in
        # the status-proof wire format.  Both are reserved.
        if ":" in self.ledger_id or "|" in self.ledger_id:
            raise IdentifierError("ledger id must not contain ':' or '|'")
        if not 0 <= self.serial < _SERIAL_LIMIT:
            raise IdentifierError(f"serial {self.serial} out of range")

    # -- string encoding (metadata) -------------------------------------------

    def to_string(self) -> str:
        return identifier_string(self.ledger_id, self.serial)

    @staticmethod
    def from_string(value: str) -> "PhotoIdentifier":
        parts = value.split(":")
        if len(parts) != 3 or parts[0] != _PREFIX:
            raise IdentifierError(f"malformed identifier string {value!r}")
        prefix, ledger_id, serial_text = parts
        try:
            serial = int(serial_text)
        except ValueError:
            raise IdentifierError(f"non-integer serial in {value!r}") from None
        return PhotoIdentifier(ledger_id=ledger_id, serial=serial)

    # -- compact encoding (watermark) ------------------------------------------

    def to_compact(self) -> bytes:
        """12-byte form: ledger tag + serial."""
        return _compact(ledger_tag(self.ledger_id), self.serial)

    @staticmethod
    def tag_and_serial_from_compact(data: bytes) -> tuple[bytes, int]:
        """Split a compact encoding into (ledger_tag, serial).

        Resolving the tag to a ledger id requires the registry; see
        :meth:`repro.ledger.registry.LedgerRegistry.resolve_compact`.
        """
        if len(data) != COMPACT_LENGTH:
            raise IdentifierError(
                f"compact identifier must be {COMPACT_LENGTH} bytes, "
                f"got {len(data)}"
            )
        return data[:_TAG_LENGTH], int.from_bytes(data[_TAG_LENGTH:], "big")

    def matches_compact(self, data: bytes) -> bool:
        """True iff ``data`` is the compact encoding of this identifier."""
        try:
            tag, serial = self.tag_and_serial_from_compact(data)
        except IdentifierError:
            return False
        return tag == ledger_tag(self.ledger_id) and serial == self.serial

    def __str__(self) -> str:
        return self.to_string()
