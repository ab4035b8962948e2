"""Two-hop (oblivious) proxying.

Section 4.2 cites Oblivious DNS: a single proxy hides viewers from
*ledgers*, but the proxy operator itself still sees (viewer, photo)
pairs.  The oblivious construction splits that knowledge across two
non-colluding hops:

* the **ingress** hop sees who is asking but only an encrypted query;
* the **egress** hop sees the query (it must, to consult the filter and
  the ledger) but only the ingress as its peer.

Encryption is modelled with an authenticated secret-box between the
client and the egress (keys pre-shared out of band, as Oblivious
DNS/HTTP do via HPKE).  The privacy measurement then covers *all*
parties: ledger, egress, ingress.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import hmac_sha256, sha256_bytes
from repro.ledger.registry import LedgerRegistry
from repro.proxy.anonymity import ObservationLog
from repro.proxy.filterset import ProxyFilterSet
from repro.proxy.proxy import ProxyAnswer

__all__ = ["SecretBox", "IngressHop", "EgressHop", "ObliviousClient"]


class SecretBox:
    """Toy authenticated encryption (XOR stream + HMAC tag).

    Stands in for HPKE; the simulation needs the *dataflow* (ingress
    cannot read queries) rather than production cryptography.
    """

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._key = key

    def _stream(self, nonce: bytes, length: int) -> bytes:
        out = bytearray()
        counter = 0
        while len(out) < length:
            out += sha256_bytes(self._key + nonce + counter.to_bytes(4, "big"))
            counter += 1
        return bytes(out[:length])

    def seal(self, plaintext: bytes) -> bytes:
        nonce = secrets.token_bytes(12)
        body = bytes(
            p ^ s for p, s in zip(plaintext, self._stream(nonce, len(plaintext)))
        )
        tag = hmac_sha256(self._key, nonce + body)[:16]
        return nonce + tag + body

    def open(self, sealed: bytes) -> bytes:
        if len(sealed) < 28:
            raise ValueError("ciphertext too short")
        nonce, tag, body = sealed[:12], sealed[12:28], sealed[28:]
        if hmac_sha256(self._key, nonce + body)[:16] != tag:
            raise ValueError("authentication failed")
        return bytes(
            c ^ s for c, s in zip(body, self._stream(nonce, len(body)))
        )


@dataclass
class _IngressRecord:
    """What the ingress operator's logs contain."""

    user: str
    blob_digest: bytes  # it can hash what it forwards, nothing more


class IngressHop:
    """Hop 1: knows the user, forwards opaque blobs to the egress."""

    def __init__(self, name: str, egress: "EgressHop"):
        self.name = name
        self.egress = egress
        self.log: list[_IngressRecord] = []

    def forward(self, user: str, sealed_query: bytes) -> bytes:
        self.log.append(
            _IngressRecord(user=user, blob_digest=sha256_bytes(sealed_query))
        )
        # The egress sees only the ingress's name, never the user.
        return self.egress.handle(self.name, sealed_query)

    def observed_queries(self) -> list[bytes]:
        return [record.blob_digest for record in self.log]


class EgressHop:
    """Hop 2: decrypts queries, consults filter/ledger, answers sealed."""

    def __init__(
        self,
        name: str,
        registry: LedgerRegistry,
        box: SecretBox,
        filterset: Optional[ProxyFilterSet] = None,
        clock: Optional[Callable[[], float]] = None,
        observation_log: Optional[ObservationLog] = None,
    ):
        self.name = name
        self._registry = registry
        self._box = box
        self.filterset = filterset
        self._clock = clock or (lambda: 0.0)
        self._observations = observation_log
        # What the egress operator's logs contain: (peer, identifier).
        self.log: list[tuple[str, str]] = []

    def handle(self, peer: str, sealed_query: bytes) -> bytes:
        identifier = PhotoIdentifier.from_string(
            self._box.open(sealed_query).decode("utf-8")
        )
        self.log.append((peer, identifier.to_string()))
        if self.filterset is not None and not self.filterset.might_be_revoked(
            identifier.to_compact()
        ):
            answer = ProxyAnswer(
                identifier=identifier.to_string(),
                revoked=False,
                source="filter",
                checked_at=self._clock(),
            )
        else:
            if self._observations is not None:
                self._observations.record(
                    requester=self.name,
                    ledger_id=identifier.ledger_id,
                    identifier=identifier.to_string(),
                    time=self._clock(),
                )
            proof = self._registry.status(identifier)
            answer = ProxyAnswer(
                identifier=identifier.to_string(),
                revoked=proof.revoked,
                source="ledger",
                checked_at=proof.checked_at,
                proof=proof,
            )
        payload = f"{int(answer.revoked)}:{answer.source}".encode("utf-8")
        return self._box.seal(payload)


class ObliviousClient:
    """Browser-side: seals queries, routes them through the ingress."""

    def __init__(self, user: str, ingress: IngressHop, box: SecretBox):
        self.user = user
        self._ingress = ingress
        self._box = box

    def status(self, identifier: PhotoIdentifier) -> ProxyAnswer:
        sealed = self._box.seal(identifier.to_string().encode("utf-8"))
        sealed_answer = self._ingress.forward(self.user, sealed)
        revoked_flag, source = (
            self._box.open(sealed_answer).decode("utf-8").split(":", 1)
        )
        return ProxyAnswer(
            identifier=identifier.to_string(),
            revoked=bool(int(revoked_flag)),
            source=source,
            checked_at=0.0,
        )
