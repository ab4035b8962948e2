"""Binary fuse filter (Graf & Lemire 2022) — the second "recent advance"
the paper cites [16].

Binary fuse filters reach ~9.1 bits/key (8-bit fingerprints) by mapping
each key's three slots into a *window* of consecutive segments rather
than three independent thirds, which makes peeling succeed at lower
space overhead (~1.125x vs 1.23x for xor filters).

This implementation keeps the segment-window construction and peels
the key hypergraph as xor filters do.  It is used in the E11 filter
ablation bench alongside the Bloom filter.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = ["BinaryFuseFilter", "FuseConstructionError"]


class FuseConstructionError(Exception):
    """Raised when construction fails after all seed retries."""


_ARITY = 3
_MAX_SEED_ATTEMPTS = 128


def _hash128(key: bytes, seed: int) -> int:
    digest = hashlib.blake2b(
        key, digest_size=16, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def _segment_geometry(num_keys: int) -> tuple[int, int, int]:
    """Return (segment_length, num_segments, array_length).

    Follows the shape of the reference implementation: segment length is
    a power of two growing slowly with n; total size ~= 1.125 * n for
    large n, with generous floors for small n so peeling succeeds.
    """
    n = max(num_keys, 1)
    # Segment length: 2^floor(log2(n)/2 + 1), clamped.
    seg_len = 1 << min(18, max(4, int(np.log2(n) * 0.58) + 2))
    # Size factor from the reference implementation: approaches 1.125
    # for large n, grows for small n where peeling needs more slack.
    size_factor = max(1.125, 0.875 + 0.25 * np.log(1_000_000) / np.log(max(n, 2)))
    capacity = int(size_factor * n) + 64
    num_segments = max(1, (capacity + seg_len - 1) // seg_len - (_ARITY - 1))
    array_length = (num_segments + _ARITY - 1) * seg_len
    return seg_len, num_segments, array_length


class BinaryFuseFilter:
    """Static binary fuse filter with 8-bit fingerprints."""

    def __init__(
        self,
        fingerprints: np.ndarray,
        seed: int,
        segment_length: int,
        num_segments: int,
        num_keys: int,
    ):
        self._fingerprints = fingerprints
        self._seed = seed
        self._segment_length = segment_length
        self._num_segments = num_segments
        self._num_keys = num_keys

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, keys: Sequence[bytes], seed: int = 1) -> "BinaryFuseFilter":
        unique = sorted(set(keys))
        n = len(unique)
        seg_len, num_segments, array_length = _segment_geometry(n)
        for attempt in range(_MAX_SEED_ATTEMPTS):
            current_seed = seed + attempt
            order = cls._peel(unique, current_seed, seg_len, num_segments, array_length)
            if order is not None:
                fingerprints = cls._assign(
                    unique, order, current_seed, seg_len, num_segments, array_length
                )
                return cls(
                    fingerprints=fingerprints,
                    seed=current_seed,
                    segment_length=seg_len,
                    num_segments=num_segments,
                    num_keys=n,
                )
        raise FuseConstructionError(
            f"binary fuse construction failed after {_MAX_SEED_ATTEMPTS} seeds"
        )

    @staticmethod
    def _slots_for(
        h: int, seg_len: int, num_segments: int
    ) -> tuple[int, int, int]:
        """Three slots in consecutive segments of a window."""
        window_start = ((h & 0xFFFFFFFF) % num_segments) * seg_len
        s0 = window_start + ((h >> 32) & 0xFFFFFFFF) % seg_len
        s1 = window_start + seg_len + ((h >> 64) & 0xFFFFFFFF) % seg_len
        s2 = window_start + 2 * seg_len + ((h >> 96) & 0xFFFFFF) % seg_len
        return s0, s1, s2

    @staticmethod
    def _fingerprint_of(h: int) -> int:
        fp = (h >> 120) & 0xFF
        return fp if fp != 0 else 0x5A

    @classmethod
    def _peel(
        cls,
        keys: Sequence[bytes],
        seed: int,
        seg_len: int,
        num_segments: int,
        array_length: int,
    ) -> list[tuple[int, int]] | None:
        slot_count = np.zeros(array_length, dtype=np.int64)
        slot_xor = np.zeros(array_length, dtype=np.int64)
        key_slots: list[tuple[int, int, int]] = []
        for idx, key in enumerate(keys):
            h = _hash128(key, seed)
            slots = cls._slots_for(h, seg_len, num_segments)
            key_slots.append(slots)
            for s in slots:
                slot_count[s] += 1
                slot_xor[s] ^= idx + 1
        queue = [s for s in np.nonzero(slot_count == 1)[0]]
        order: list[tuple[int, int]] = []
        while queue:
            slot = int(queue.pop())
            if slot_count[slot] != 1:
                continue
            key_index = int(slot_xor[slot]) - 1
            order.append((key_index, slot))
            for s in key_slots[key_index]:
                slot_count[s] -= 1
                slot_xor[s] ^= key_index + 1
                if slot_count[s] == 1:
                    queue.append(s)
        if len(order) != len(keys):
            return None
        return order

    @classmethod
    def _assign(
        cls,
        keys: Sequence[bytes],
        order: list[tuple[int, int]],
        seed: int,
        seg_len: int,
        num_segments: int,
        array_length: int,
    ) -> np.ndarray:
        fingerprints = np.zeros(array_length, dtype=np.uint8)
        for key_index, slot in reversed(order):
            h = _hash128(keys[key_index], seed)
            s0, s1, s2 = cls._slots_for(h, seg_len, num_segments)
            fp = cls._fingerprint_of(h)
            value = (
                fp
                ^ int(fingerprints[s0])
                ^ int(fingerprints[s1])
                ^ int(fingerprints[s2])
            )
            fingerprints[slot] = value & 0xFF
        return fingerprints

    # -- queries --------------------------------------------------------------------

    def __contains__(self, key: bytes) -> bool:
        h = _hash128(key, self._seed)
        s0, s1, s2 = self._slots_for(h, self._segment_length, self._num_segments)
        fp = self._fingerprint_of(h)
        table = self._fingerprints
        return fp == (int(table[s0]) ^ int(table[s1]) ^ int(table[s2]))

    def might_contain(self, key: bytes) -> bool:
        return key in self

    # -- properties --------------------------------------------------------------------

    @property
    def num_keys(self) -> int:
        return self._num_keys

    @property
    def nbytes(self) -> int:
        return int(self._fingerprints.nbytes)

    def bits_per_key(self) -> float:
        if self._num_keys == 0:
            return float("inf")
        return 8.0 * self.nbytes / self._num_keys

    def measure_fpr(self, num_probes: int, rng=None) -> float:
        rng = rng or np.random.default_rng(0)
        raw = rng.integers(0, 2**63, size=num_probes, dtype=np.int64)
        hits = sum(
            1
            for value in raw
            if (b"__fuse_probe__" + int(value).to_bytes(8, "big")) in self
        )
        return hits / num_probes if num_probes else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BinaryFuseFilter(keys={self._num_keys}, bytes={self.nbytes})"
