"""Site marking and reputation.

Section 4.4: "Not all sites will adopt IRS after the bootstrap phase,
but their decision to not respect owner-privacy will be known because
browsers could mark such sites (as they do with TLS icons), third-party
rating services could publicize their lack of adoption, and search
engines might lower their rankings."

:class:`SiteIndicator` is the browser-side icon logic (per-site rating
derived from observed behaviour); :class:`SiteReputation` is the
third-party rating service aggregating reports from many browsers.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict

__all__ = ["SiteRating", "SiteIndicator", "SiteReputation"]


class SiteRating(enum.Enum):
    """The icon shown next to the address bar."""

    SUPPORTS_IRS = "supports_irs"  # green: preserves labels, honors revocation
    PARTIAL = "partial"  # yellow: labels sometimes stripped
    NO_SUPPORT = "no_support"  # grey/red: strips labels / serves revoked
    UNKNOWN = "unknown"  # not enough observations


@dataclass
class _SiteObservations:
    labeled_served: int = 0
    labels_stripped: int = 0
    revoked_served: int = 0


class SiteIndicator:
    """Derives a per-site rating from what the extension observes.

    Observations come from the extension: when a photo known to be
    claimed arrives without its label, the site stripped it; when a
    photo the ledger says is revoked is served at all, the site is not
    rechecking.
    """

    def __init__(self, min_observations: int = 5):
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        self.min_observations = int(min_observations)
        self._sites: Dict[str, _SiteObservations] = defaultdict(_SiteObservations)

    def observe_labeled_photo(self, site: str) -> None:
        self._sites[site].labeled_served += 1

    def observe_stripped_label(self, site: str) -> None:
        self._sites[site].labels_stripped += 1

    def observe_revoked_served(self, site: str) -> None:
        self._sites[site].revoked_served += 1

    def observations(self, site: str) -> int:
        obs = self._sites[site]
        return obs.labeled_served + obs.labels_stripped + obs.revoked_served

    def rating(self, site: str) -> SiteRating:
        obs = self._sites[site]
        total = self.observations(site)
        if total < self.min_observations:
            return SiteRating.UNKNOWN
        strip_rate = obs.labels_stripped / total
        revoked_rate = obs.revoked_served / total
        if revoked_rate > 0.02 or strip_rate > 0.5:
            return SiteRating.NO_SUPPORT
        if strip_rate > 0.05:
            return SiteRating.PARTIAL
        return SiteRating.SUPPORTS_IRS


class SiteReputation:
    """Third-party rating service: aggregates many browsers' indicators."""

    def __init__(self):
        self._votes: Dict[str, Dict[SiteRating, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    def report(self, site: str, rating: SiteRating) -> None:
        """One browser reports its local rating for a site."""
        if rating is SiteRating.UNKNOWN:
            return  # unknowns carry no information
        self._votes[site][rating] += 1

    def consensus(self, site: str) -> SiteRating:
        """Majority rating, UNKNOWN when nobody reported."""
        votes = self._votes.get(site)
        if not votes:
            return SiteRating.UNKNOWN
        return max(votes.items(), key=lambda item: (item[1], item[0].value))[0]

    def sites_rated(self) -> int:
        return len(self._votes)

    def search_ranking_penalty(self, site: str) -> float:
        """Ranking multiplier a search engine might apply (1.0 = none)."""
        rating = self.consensus(site)
        return {
            SiteRating.SUPPORTS_IRS: 1.0,
            SiteRating.PARTIAL: 0.9,
            SiteRating.NO_SUPPORT: 0.7,
            SiteRating.UNKNOWN: 1.0,
        }[rating]
