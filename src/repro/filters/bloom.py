"""Standard Bloom filter, as proposed for IRS proxies and browsers.

Paper, section 4.4: "Each ledger would produce a Bloom filter of their
claimed photos ... which the proxies would download and then take the
OR of all ledger Bloom filters."  A hit means *maybe claimed* (query
the ledger); a miss means *definitely not claimed* (no query needed).

Keys are arbitrary byte strings (the IRS uses photo identifiers).  Hash
positions come from double hashing over two independent 64-bit halves
of a blake2b digest -- the standard Kirsch–Mitzenmacher construction,
which preserves the asymptotic false-positive rate of k independent
hashes.

Two read paths share those positions: one key (``key in bloom``) is k
bit tests on Python ints that stop at the first clear bit, a batch
(``query_many``) is one numpy pass.  Each is the other's differential
oracle (``tests/perf/test_vectorized_vs_scalar.py``), and both are held
to ``_positions``, the arithmetic ``add`` sets bits by.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.filters.bitarray import BitArray
from repro.filters.sizing import bloom_bits_for_fpr, bloom_optimal_hashes

__all__ = ["BloomFilter"]


def _hash_pair(key: bytes, salt: bytes) -> tuple[int, int]:
    """Two independent 64-bit hash values derived from one blake2b call."""
    digest = hashlib.blake2b(key, digest_size=16, salt=salt).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


def _hash_pairs(keys: Sequence[bytes], salt: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The (h1, h2) halves of :func:`_hash_pair` for many keys at once.

    The per-key blake2b stays a Python loop (hashlib has no batch entry
    point; a copy of one salted hasher costs half a construction), but the
    digests land in one buffer, so all downstream of hashing is numpy.
    """
    salted = hashlib.blake2b(digest_size=16, salt=salt)
    digests = []
    for key in keys:
        hasher = salted.copy()
        hasher.update(key)
        digests.append(hasher.digest())
    halves = np.frombuffer(b"".join(digests), dtype="<u8").reshape(len(keys), 2)
    return halves[:, 0], halves[:, 1]


class BloomFilter:
    """A Bloom filter over byte-string keys.

    Parameters
    ----------
    nbits:
        Filter size in bits.
    num_hashes:
        Number of hash functions (k).
    salt:
        Up to 8 bytes mixing into the hash; all filters that will be
        OR-ed together (one per ledger) must share a salt and geometry.
    """

    def __init__(self, nbits: int, num_hashes: int, salt: bytes = b"irs"):
        if num_hashes < 1:
            raise ValueError("need at least one hash function")
        if len(salt) > 8:
            raise ValueError("salt must be at most 8 bytes")
        self._bits = BitArray(nbits)
        self._num_hashes = int(num_hashes)
        self._salt = salt.ljust(8, b"\x00")
        self._count = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def for_capacity(
        cls,
        capacity: int,
        target_fpr: float,
        salt: bytes = b"irs",
    ) -> "BloomFilter":
        """Size a filter for ``capacity`` keys at ``target_fpr``.

        Uses the optimal bits-per-key and hash-count formulas from
        :mod:`repro.filters.sizing`.
        """
        nbits = bloom_bits_for_fpr(capacity, target_fpr)
        k = bloom_optimal_hashes(nbits, capacity)
        return cls(nbits=nbits, num_hashes=k, salt=salt)

    # -- properties ------------------------------------------------------------

    @property
    def nbits(self) -> int:
        return self._bits.nbits

    @property
    def nbytes(self) -> int:
        return self._bits.nbytes

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def num_keys(self) -> int:
        """Number of keys added (double-adds counted twice)."""
        return self._count

    @property
    def bits(self) -> BitArray:
        return self._bits

    def fill_ratio(self) -> float:
        return self._bits.fill_ratio()

    def estimated_fpr(self) -> float:
        """False-positive probability implied by the current fill ratio.

        For a filter with fill ratio ``rho`` and k hashes, a random
        absent key hits with probability ``rho**k``.
        """
        return self._bits.fill_ratio() ** self._num_hashes

    # -- hashing ----------------------------------------------------------------

    def _positions(self, key: bytes) -> np.ndarray:
        h1, h2 = _hash_pair(key, self._salt)
        # Kirsch–Mitzenmacher: position_i = (h1 + i * h2) mod m.
        i = np.arange(self._num_hashes, dtype=np.uint64)
        return ((np.uint64(h1) + i * np.uint64(h2)) % np.uint64(self.nbits)).astype(
            np.int64
        )

    def _positions_many(self, keys: Sequence[bytes]) -> np.ndarray:
        """The ``(len(keys), k)`` position matrix for a batch of keys.

        Row ``i`` equals ``_positions(keys[i])`` exactly: same wrapping
        uint64 Kirsch–Mitzenmacher arithmetic, applied across the batch
        in one vectorized pass.
        """
        h1, h2 = _hash_pairs(keys, self._salt)
        i = np.arange(self._num_hashes, dtype=np.uint64)
        positions = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(self.nbits)
        return positions.astype(np.int64)

    # -- core operations ----------------------------------------------------------

    def add(self, key: bytes) -> None:
        """Insert a key."""
        self._bits.set_many(self._positions(key))
        self._count += 1

    def add_many(self, keys: Iterable[bytes]) -> None:
        """Insert many keys in one vectorized pass.

        Equivalent to ``for key in keys: self.add(key)`` (same bits,
        same count) without the per-key numpy dispatch overhead.
        """
        keys = list(keys)
        if not keys:
            return
        self._bits.set_many(self._positions_many(keys).ravel())
        self._count += len(keys)

    def __contains__(self, key: bytes) -> bool:
        """One key's membership, on Python ints.

        The positions are :meth:`_positions`' — ``(h1 + i*h2) mod 2**64
        mod nbits``, the sum carried forward — tested one at a time up
        to the first clear bit: for one key, several times cheaper than
        building the position array.
        """
        h1, h2 = _hash_pair(key, self._salt)
        nbits = self.nbits
        word = self._bits.words.item  # BitArray keeps 64 bits to a word
        for _ in range(self._num_hashes):
            position = h1 % nbits
            if not word(position >> 6) >> (position & 63) & 1:
                return False
            h1 = (h1 + h2) & 0xFFFFFFFFFFFFFFFF
        return True

    def query_many(self, keys: Sequence[bytes]) -> np.ndarray:
        """Membership verdicts for many keys in one vectorized pass.

        Returns a boolean array where entry ``i`` equals
        ``keys[i] in self``.  The scalar ``__contains__`` is the
        reference oracle (``tests/perf/test_vectorized_vs_scalar.py``);
        this path exists because the per-request membership check is
        the hottest loop a proxy or frontend runs (thousands of checks
        per batch), and one flat bit-gather beats a loop of scalar
        probes several times over (``bloom_batch_membership``).
        """
        keys = list(keys)
        if not keys:
            return np.zeros(0, dtype=bool)
        positions = self._positions_many(keys)
        hits = self._bits.get_many(positions.ravel())
        return hits.reshape(len(keys), self._num_hashes).all(axis=1)

    def might_contain(self, key: bytes) -> bool:
        """Alias for ``key in filter`` with explicit maybe-semantics."""
        return key in self

    # -- merging (proxy OR of ledger filters) ---------------------------------------

    def is_compatible(self, other: "BloomFilter") -> bool:
        return (
            self.nbits == other.nbits
            and self._num_hashes == other._num_hashes
            and self._salt == other._salt
        )

    def union_with(self, other: "BloomFilter") -> None:
        """In-place OR with another filter of identical geometry."""
        if not self.is_compatible(other):
            raise ValueError("cannot OR Bloom filters with different geometry")
        self._bits.union_with(other._bits)
        self._count += other._count

    @classmethod
    def union(cls, filters: list["BloomFilter"]) -> "BloomFilter":
        """OR of several filters (what a proxy builds from all ledgers)."""
        if not filters:
            raise ValueError("need at least one filter")
        merged = filters[0].copy()
        for f in filters[1:]:
            merged.union_with(f)
        return merged

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self.nbits, self._num_hashes, self._salt.rstrip(b"\x00"))
        clone._bits = self._bits.copy()
        clone._salt = self._salt
        clone._count = self._count
        return clone

    # -- measurement helpers ------------------------------------------------------------

    def measure_fpr(
        self,
        num_probes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Empirically measure FPR with random absent keys.

        Probes are drawn from a keyspace disjoint from normal keys by a
        distinguishing prefix, so every probe is a true negative.
        """
        rng = rng or np.random.default_rng(0)
        hits = 0
        raw = rng.integers(0, 2**63, size=num_probes, dtype=np.int64)
        for value in raw:
            probe = b"__fpr_probe__" + int(value).to_bytes(8, "big")
            if probe in self:
                hits += 1
        return hits / num_probes if num_probes else 0.0

    def to_bytes(self) -> bytes:
        """Serialize the bit contents (geometry travels separately)."""
        return self._bits.to_bytes()

    @classmethod
    def from_bytes(
        cls, nbits: int, num_hashes: int, data: bytes, salt: bytes = b"irs"
    ) -> "BloomFilter":
        f = cls(nbits=nbits, num_hashes=num_hashes, salt=salt)
        f._bits = BitArray.from_bytes(nbits, data)
        return f

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomFilter(nbits={self.nbits}, k={self._num_hashes}, "
            f"keys={self._count}, fill={self.fill_ratio():.4f})"
        )
