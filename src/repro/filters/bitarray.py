"""Numpy-backed bit array used by Bloom-style filters.

Bits are stored in a ``uint64`` array, 64 bits per word, giving compact
storage and fast vectorized union/intersection/XOR -- the operations
proxies need when OR-ing ledger filters and delta-decoding updates.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["BitArray"]

_WORD_BITS = 64


class BitArray:
    """Fixed-size mutable bit array.

    Parameters
    ----------
    nbits:
        Number of addressable bits.  Storage rounds up to whole words.
    """

    __slots__ = ("_nbits", "_words")

    def __init__(self, nbits: int):
        if nbits <= 0:
            raise ValueError("bit array must have at least one bit")
        self._nbits = int(nbits)
        nwords = (self._nbits + _WORD_BITS - 1) // _WORD_BITS
        self._words = np.zeros(nwords, dtype=np.uint64)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_words(cls, nbits: int, words: np.ndarray) -> "BitArray":
        """Wrap an existing word array (copied) as a BitArray."""
        arr = cls(nbits)
        if words.shape != arr._words.shape:
            raise ValueError("word array shape mismatch")
        arr._words = words.astype(np.uint64, copy=True)
        arr._mask_tail()
        return arr

    def copy(self) -> "BitArray":
        return BitArray.from_words(self._nbits, self._words)

    # -- size & bit access ---------------------------------------------------

    @property
    def nbits(self) -> int:
        return self._nbits

    @property
    def nbytes(self) -> int:
        """Storage footprint in bytes."""
        return int(self._words.nbytes)

    @property
    def words(self) -> np.ndarray:
        """Read-only view of the underlying words."""
        view = self._words.view()
        view.flags.writeable = False
        return view

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self._nbits:
            raise IndexError(f"bit index {index} out of range [0, {self._nbits})")
        return index

    def set(self, index: int) -> None:
        index = self._check_index(index)
        self._words[index // _WORD_BITS] |= np.uint64(1) << np.uint64(
            index % _WORD_BITS
        )

    def clear(self, index: int) -> None:
        index = self._check_index(index)
        self._words[index // _WORD_BITS] &= ~(
            np.uint64(1) << np.uint64(index % _WORD_BITS)
        )

    def get(self, index: int) -> bool:
        index = self._check_index(index)
        word = self._words[index // _WORD_BITS]
        return bool((word >> np.uint64(index % _WORD_BITS)) & np.uint64(1))

    def set_many(self, indices: Iterable[int]) -> None:
        """Set multiple bits at once (vectorized)."""
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self._nbits:
            raise IndexError("bit index out of range")
        words = (idx // _WORD_BITS).astype(np.int64)
        masks = (np.uint64(1) << (idx % _WORD_BITS).astype(np.uint64)).astype(np.uint64)
        np.bitwise_or.at(self._words, words, masks)

    def get_many(self, indices: Iterable[int]) -> np.ndarray:
        """Test multiple bits at once; returns a boolean array."""
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        if idx.min() < 0 or idx.max() >= self._nbits:
            raise IndexError("bit index out of range")
        words = self._words[(idx // _WORD_BITS).astype(np.int64)]
        shifts = (idx % _WORD_BITS).astype(np.uint64)
        return ((words >> shifts) & np.uint64(1)).astype(bool)

    # -- whole-array operations ----------------------------------------------

    def _mask_tail(self) -> None:
        """Zero any storage bits beyond nbits (keeps popcount exact)."""
        tail = self._nbits % _WORD_BITS
        if tail:
            mask = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            self._words[-1] &= mask

    def count(self) -> int:
        """Population count (number of set bits)."""
        return int(np.unpackbits(self._words.view(np.uint8)).sum())

    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        return self.count() / self._nbits

    def _check_compatible(self, other: "BitArray") -> None:
        if self._nbits != other._nbits:
            raise ValueError(
                f"bit arrays differ in size: {self._nbits} vs {other._nbits}"
            )

    def union_with(self, other: "BitArray") -> None:
        """In-place OR (used when a proxy merges ledger filters)."""
        self._check_compatible(other)
        np.bitwise_or(self._words, other._words, out=self._words)

    def changed_indices(self, other: "BitArray") -> np.ndarray:
        """Indices of bits that differ between self and other."""
        self._check_compatible(other)
        diff = np.bitwise_xor(self._words, other._words)
        changed_words = np.nonzero(diff)[0]
        out: list[int] = []
        for w in changed_words:
            bits = diff[w]
            base = int(w) * _WORD_BITS
            for b in range(_WORD_BITS):
                if (bits >> np.uint64(b)) & np.uint64(1):
                    out.append(base + b)
        return np.asarray(out, dtype=np.int64)

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        return self._words.tobytes()

    @classmethod
    def from_bytes(cls, nbits: int, data: bytes) -> "BitArray":
        words = np.frombuffer(data, dtype=np.uint64)
        return cls.from_words(nbits, words.copy())

    # -- dunder ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._nbits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._words, other._words)
        )

    def __iter__(self) -> Iterator[bool]:  # pragma: no cover - convenience
        for i in range(self._nbits):
            yield self.get(i)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitArray(nbits={self._nbits}, set={self.count()})"
