"""Browsing traces: who views which photo, when.

A trace is a time-ordered stream of :class:`ViewEvent` records drawn
from a user population and a Zipf popularity distribution over a photo
population.  Views are drawn from the *viewable* (unrevoked) subset by
default, implementing section 4.4's assumption that "a very high
fraction of viewed photos are not revoked" -- with a configurable
leak rate for revoked photos still circulating on non-IRS sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.workload.population import PhotoPopulation
from repro.workload.zipf import ZipfSampler

__all__ = ["ViewEvent", "BrowsingTraceGenerator"]


@dataclass(frozen=True)
class ViewEvent:
    """One photo view."""

    time: float
    user: str
    photo_index: int  # index into the population's identifier list

    def __lt__(self, other: "ViewEvent") -> bool:  # heap/sort support
        return self.time < other.time


class BrowsingTraceGenerator:
    """Generates view streams over a photo population.

    Parameters
    ----------
    population:
        The claimed photo population.
    num_users:
        Distinct viewers (named ``user-0`` ...).
    zipf_exponent:
        Popularity skew across photos.
    mean_interarrival:
        Mean seconds between one user's consecutive views
        (exponentially distributed).
    revoked_view_fraction:
        Probability a view lands on a revoked photo anyway (content
        still circulating on non-participating sites).  0 reproduces
        the paper's clean assumption.
    """

    def __init__(
        self,
        population: PhotoPopulation,
        num_users: int,
        rng: np.random.Generator,
        zipf_exponent: float = 1.0,
        mean_interarrival: float = 10.0,
        revoked_view_fraction: float = 0.0,
    ):
        if num_users < 1:
            raise ValueError("need at least one user")
        if mean_interarrival <= 0:
            raise ValueError("mean interarrival must be positive")
        if not 0.0 <= revoked_view_fraction <= 1.0:
            raise ValueError("revoked_view_fraction must be in [0, 1]")
        self.population = population
        self.num_users = int(num_users)
        self._rng = rng
        self.mean_interarrival = float(mean_interarrival)
        self.revoked_view_fraction = revoked_view_fraction

        viewable = np.nonzero(population.viewable_mask())[0]
        revoked = np.nonzero(population.revoked_mask)[0]
        if viewable.size == 0:
            raise ValueError("population has no viewable photos")
        self._viewable_indices = viewable
        self._revoked_indices = revoked
        self._viewable_sampler = ZipfSampler(viewable.size, zipf_exponent, rng)
        self._revoked_sampler = (
            ZipfSampler(revoked.size, zipf_exponent, rng) if revoked.size else None
        )

    def _draw_photo(self) -> int:
        if (
            self._revoked_sampler is not None
            and self._rng.uniform() < self.revoked_view_fraction
        ):
            return int(self._revoked_indices[self._revoked_sampler.sample_one()])
        return int(self._viewable_indices[self._viewable_sampler.sample_one()])

    def generate(self, views_per_user: int) -> List[ViewEvent]:
        """A full trace, time-sorted across all users."""
        events: List[ViewEvent] = []
        for u in range(self.num_users):
            t = 0.0
            user = f"user-{u}"
            gaps = self._rng.exponential(self.mean_interarrival, size=views_per_user)
            for gap in gaps:
                t += float(gap)
                events.append(
                    ViewEvent(time=t, user=user, photo_index=self._draw_photo())
                )
        events.sort(key=lambda e: (e.time, e.user))
        return events

    def stream(self, total_views: int) -> Iterator[ViewEvent]:
        """Lazily yield a merged stream of ``total_views`` events."""
        import heapq

        heads: list[tuple[float, int, str]] = []
        for u in range(self.num_users):
            gap = float(self._rng.exponential(self.mean_interarrival))
            heapq.heappush(heads, (gap, u, f"user-{u}"))
        emitted = 0
        while emitted < total_views and heads:
            t, u, user = heapq.heappop(heads)
            yield ViewEvent(time=t, user=user, photo_index=self._draw_photo())
            emitted += 1
            next_t = t + float(self._rng.exponential(self.mean_interarrival))
            heapq.heappush(heads, (next_t, u, user))
