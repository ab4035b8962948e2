"""The proxy's merged view of all ledger Bloom filters.

Section 4.4: proxies "download and then take the OR of all ledger Bloom
filters", refreshed "perhaps hourly" with delta encoding.

:class:`ProxyFilterSet` subscribes to each ledger's
:class:`~repro.ledger.export.FilterExporter`, tracks per-ledger
versions, pulls deltas on refresh, and maintains the OR-merge.  It
accounts every byte transferred, which is the E6 experiment's metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.filters.bloom import BloomFilter
from repro.filters.delta import apply_delta
from repro.ledger.export import FilterExporter

__all__ = ["ProxyFilterSet", "FilterSubscription"]


@dataclass
class FilterSubscription:
    """Per-ledger subscription state."""

    exporter: FilterExporter
    local_version: int = 0
    local_filter: Optional[BloomFilter] = None
    bytes_received: int = 0
    full_transfers: int = 0
    delta_transfers: int = 0


class ProxyFilterSet:
    """OR of subscribed ledger filters, kept fresh by deltas."""

    def __init__(self):
        self._subscriptions: Dict[str, FilterSubscription] = {}
        self._merged: Optional[BloomFilter] = None

    @property
    def ledger_ids(self) -> List[str]:
        return sorted(self._subscriptions)

    @property
    def merged(self) -> Optional[BloomFilter]:
        return self._merged

    def subscribe(self, exporter: FilterExporter) -> FilterSubscription:
        ledger_id = exporter.ledger.ledger_id
        if ledger_id in self._subscriptions:
            raise ValueError(f"already subscribed to ledger {ledger_id!r}")
        sub = FilterSubscription(exporter=exporter)
        self._subscriptions[ledger_id] = sub
        return sub

    def refresh(self) -> int:
        """Pull updates from every subscribed exporter.

        Each exporter must have published at least one snapshot.
        First contact transfers the full filter; subsequent refreshes
        transfer deltas (or nothing when already current).  Returns the
        total bytes transferred by this refresh.
        """
        transferred = 0
        for ledger_id in self.ledger_ids:
            sub = self._subscriptions[ledger_id]
            current = sub.exporter.current
            if current is None:
                raise RuntimeError(
                    f"ledger {ledger_id!r} has not published a filter yet"
                )
            if sub.local_filter is None:
                sub.local_filter = current.filter.copy()
                sub.local_version = current.version
                size = sub.local_filter.nbytes
                sub.bytes_received += size
                sub.full_transfers += 1
                transferred += size
                continue
            delta = sub.exporter.latest_delta_for(sub.local_version)
            if delta is None:
                continue
            sub.local_filter = apply_delta(sub.local_filter, delta, sub.local_version)
            sub.local_version = delta.to_version
            sub.bytes_received += delta.nbytes
            if delta.kind == "sparse":
                sub.delta_transfers += 1
            else:
                sub.full_transfers += 1
            transferred += delta.nbytes
        self._rebuild_merge()
        return transferred

    def _rebuild_merge(self) -> None:
        filters = [
            s.local_filter
            for _, s in sorted(self._subscriptions.items())
            if s.local_filter is not None
        ]
        self._merged = BloomFilter.union(filters) if filters else None

    def might_be_revoked(self, compact_identifier: bytes) -> bool:
        """Filter verdict: False = definitely not revoked, skip the query.

        With no filter yet downloaded, everything "might be revoked"
        (fail to the safe side: query the ledger).
        """
        if self._merged is None:
            return True
        return compact_identifier in self._merged
