"""TTL + LRU cache for revocation lookups.

"Proxies ... can ameliorate this issue by caching lookups (which would
also further reduce viewing latency)" -- section 4.4.

Entries expire after a TTL (bounded revocation staleness, per
Nongoal #4) and are evicted least-recently-used beyond capacity.  The
cache takes a clock so it works both in-process and in the simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

__all__ = ["TtlLruCache", "CacheStats"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TtlLruCache:
    """Bounded map with per-entry expiry.

    Parameters
    ----------
    capacity:
        Maximum live entries; least-recently-used beyond that.
    ttl:
        Seconds an entry stays valid.  ``None`` disables expiry.
    clock:
        Zero-arg callable returning the current time.  Required when
        ``ttl`` is set — a frozen default clock would silently make
        every entry immortal, unbounding revocation staleness.
    """

    def __init__(
        self,
        capacity: int,
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        if ttl is not None and clock is None:
            raise ValueError(
                "a ttl without a clock can never expire anything; "
                "pass clock= (e.g. the simulator clock or time.monotonic)"
            )
        self.capacity = int(capacity)
        self.ttl = ttl
        self._clock = clock or (lambda: 0.0)
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value, or None on miss/expiry."""
        now = self._clock()
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        stored_at, value = entry
        if self.ttl is not None and now - stored_at > self.ttl:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        now = self._clock()
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = (now, value)
        self.stats.inserts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TtlLruCache(size={len(self)}/{self.capacity}, ttl={self.ttl}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )
