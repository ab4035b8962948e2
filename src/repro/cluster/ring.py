"""Consistent-hash ring: placement of claim records across shards.

The cluster routes every record by a content-derived key (the
identifier's compact encoding, whose serial is itself derived from the
photo's content hash — see :mod:`repro.cluster.shard`).  Placement must
be a pure function of (key, shard set): any frontend, with no shared
state, must route a key to the same replicas, and adding or removing a
shard must move only the ~1/N of keys whose arc the change touches —
the property that makes scale-out cheap (IPFS routes content addresses
over a node ring for the same reason).

Implementation is the classic Karger ring: each shard projects
``vnodes`` virtual points onto a 64-bit circle (blake2b of
``"shard#vnode"``), keys hash onto the same circle, and a key's primary
is the first virtual point at or after it clockwise.  Replicas continue
clockwise, skipping virtual points of shards already chosen, so a key
always resolves to *distinct* shards.  No randomness anywhere: the ring
is deterministic from the shard ids alone.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence

__all__ = ["HashRing", "RingError", "DEFAULT_VNODES"]

#: Virtual points per shard.  64 keeps the per-shard load imbalance
#: (std/mean ~ 1/sqrt(vnodes)) around 12% while ring rebuild stays
#: trivially cheap at any realistic shard count.
DEFAULT_VNODES = 64

_POINT_BYTES = 8  # 64-bit circle


class RingError(Exception):
    """Raised on invalid ring operations (unknown shard, too few shards)."""


def _position(material: bytes) -> int:
    """Map arbitrary bytes onto the 64-bit circle."""
    return int.from_bytes(
        hashlib.blake2b(material, digest_size=_POINT_BYTES).digest(), "big"
    )


class HashRing:
    """Deterministic consistent-hash ring over named shards.

    Parameters
    ----------
    shard_ids:
        Initial shard names (order-insensitive; the ring is a pure
        function of the *set*).
    vnodes:
        Virtual points per shard.
    """

    def __init__(
        self, shard_ids: Iterable[str] = (), vnodes: int = DEFAULT_VNODES
    ):
        if vnodes < 1:
            raise RingError("need at least one virtual node per shard")
        self.vnodes = int(vnodes)
        self._shards: Dict[str, List[int]] = {}
        # Parallel sorted arrays: point position -> owning shard.
        self._points: List[int] = []
        self._owners: List[str] = []
        for shard_id in shard_ids:
            self.add(shard_id)

    # -- membership -----------------------------------------------------------

    @property
    def shard_ids(self) -> List[str]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add(self, shard_id: str) -> None:
        """Join a shard; only keys landing on its arcs change owners."""
        if not shard_id:
            raise RingError("shard id must be non-empty")
        if shard_id in self._shards:
            raise RingError(f"shard {shard_id!r} already on the ring")
        points = [
            _position(f"{shard_id}#{v}".encode("utf-8"))
            for v in range(self.vnodes)
        ]
        self._shards[shard_id] = points
        for point in points:
            # Ties on a 64-bit circle are ~impossible but must not
            # corrupt the parallel arrays: break them by shard id so
            # the ring stays a deterministic function of the shard set.
            index = bisect.bisect_left(self._points, point)
            while (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] < shard_id
            ):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def remove(self, shard_id: str) -> None:
        """Leave the ring; only keys owned by ``shard_id`` change owners."""
        if shard_id not in self._shards:
            raise RingError(f"shard {shard_id!r} is not on the ring")
        del self._shards[shard_id]
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != shard_id
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- placement -------------------------------------------------------------

    def primary(self, key: bytes) -> str:
        """The shard owning ``key`` (first replica)."""
        return self.replicas(key, 1)[0]

    def replicas(self, key: bytes, count: int) -> List[str]:
        """The ``count`` distinct shards responsible for ``key``.

        The first entry is the primary; the rest follow clockwise: the
        walk keeps the first occurrence of each shard it meets.
        """
        if count < 1:
            raise RingError("replica count must be at least 1")
        if count > len(self._shards):
            raise RingError(
                f"cannot place {count} replicas on {len(self._shards)} shard(s)"
            )
        start = bisect.bisect_right(self._points, _position(key))
        chosen: List[str] = []
        seen = set()
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in seen:
                seen.add(owner)
                chosen.append(owner)
                if len(chosen) == count:
                    return chosen
        raise RingError("ring exhausted before placing all replicas")  # pragma: no cover

    def assignment(self, keys: Sequence[bytes]) -> Dict[bytes, str]:
        """Primary owner for every key (rebalancing analysis helper)."""
        return {key: self.primary(key) for key in keys}
