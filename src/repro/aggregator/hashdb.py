"""Robust-hash database of an aggregator's hosted content.

Section 3.2: aggregators "keep a database of robust hashes of their
current content and check all newly uploaded photos against this
database to ensure that they use the original metadata (so that
revoking the original will also remove images derived from it)."

Lookups are nearest-neighbour in Hamming space over 512-bit signatures.
The store keeps signatures in a packed numpy matrix so a lookup is one
vectorized XOR + popcount pass -- linear scan, but at ~10^6 hashes that
is milliseconds, and real deployments would swap in an ANN index behind
the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.identifiers import PhotoIdentifier
from repro.media.image import Photo
from repro.media.perceptual import (
    DEFAULT_MATCH_THRESHOLD,
    RobustHash,
    hamming_many,
    robust_hash,
)

__all__ = ["RobustHashDatabase", "HashMatch"]

_SIGNATURE_BYTES = 64  # 512 bits


@dataclass(frozen=True)
class HashMatch:
    """A database entry within threshold of a queried photo."""

    identifier: PhotoIdentifier
    distance: float


class RobustHashDatabase:
    """Maps robust hashes to the identifiers of hosted photos.

    One identifier may map to several rows: derivatives share their
    source's label (section 3.2's metadata-transfer convention), so an
    original and its memes are distinct signatures under one claim.
    """

    def __init__(self, match_threshold: float = DEFAULT_MATCH_THRESHOLD):
        self.match_threshold = float(match_threshold)
        self._matrix = np.zeros((0, _SIGNATURE_BYTES), dtype=np.uint8)
        self._identifiers: List[PhotoIdentifier] = []

    def __len__(self) -> int:
        return len(self._identifiers)

    def add(self, identifier: PhotoIdentifier, signature: RobustHash) -> None:
        row = np.frombuffer(signature.bits, dtype=np.uint8)[None, :]
        self._matrix = np.vstack([self._matrix, row])
        self._identifiers.append(identifier)

    def add_photo(self, identifier: PhotoIdentifier, photo: Photo) -> None:
        self.add(identifier, robust_hash(photo))

    def entries_for(self, identifier: PhotoIdentifier) -> int:
        """How many signatures are registered under an identifier."""
        return sum(1 for i in self._identifiers if i == identifier)

    def remove(self, identifier: PhotoIdentifier) -> None:
        """Remove *all* rows for an identifier (original + derivatives:
        they stand and fall together)."""
        keep = [i for i, ident in enumerate(self._identifiers) if ident != identifier]
        if len(keep) == len(self._identifiers):
            return
        self._matrix = self._matrix[keep, :]
        self._identifiers = [self._identifiers[i] for i in keep]

    def _distances(self, signature: RobustHash) -> np.ndarray:
        if len(self._identifiers) == 0:
            return np.zeros(0)
        # Popcount-table batch path; RobustHash.distance is the oracle
        # (tests/perf/test_vectorized_vs_scalar.py keeps them equal).
        return hamming_many(signature, self._matrix)

    def nearest(self, photo: Photo) -> Optional[HashMatch]:
        """Closest entry regardless of threshold, or None when empty."""
        distances = self._distances(robust_hash(photo))
        if distances.size == 0:
            return None
        best = int(np.argmin(distances))
        return HashMatch(
            identifier=self._identifiers[best], distance=float(distances[best])
        )

    def find_match(self, photo: Photo) -> Optional[HashMatch]:
        """Closest entry within the match threshold, or None."""
        match = self.nearest(photo)
        if match is None or match.distance > self.match_threshold:
            return None
        return match

    def matches(self, photo: Photo) -> List[HashMatch]:
        """All entries within threshold, nearest first."""
        distances = self._distances(robust_hash(photo))
        hits = np.nonzero(distances <= self.match_threshold)[0]
        results = [
            HashMatch(
                identifier=self._identifiers[int(i)], distance=float(distances[int(i)])
            )
            for i in hits
        ]
        results.sort(key=lambda m: m.distance)
        return results
