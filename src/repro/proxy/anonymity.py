"""Viewer-privacy measurement (section 4.2 / Goal #2, experiment E8).

What can a ledger operator learn about who views which photo?  The
:class:`ObservationLog` records exactly the requests that reach ledgers
-- requester identity, identifier, time.  With browsers querying
directly, the requester *is* the viewer; behind a proxy, the requester
is the proxy, and the viewer hides in the proxy's user population.

:func:`anonymity_report` quantifies this:

* **anonymity set size** per ledger-visible request: how many users
  could have been the actual requester (1 = fully identified);
* **attribution rate**: fraction of requests the ledger can attribute
  to a unique viewer;
* **profile leakage**: average fraction of each user's labeled-photo
  views that appear in ledger logs attributed to that user.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = [
    "LedgerObservation",
    "ObservationLog",
    "AnonymityReport",
    "anonymity_report",
]


@dataclass(frozen=True)
class LedgerObservation:
    """One request as seen by a ledger operator."""

    requester: str
    ledger_id: str
    identifier: str
    time: float


class ObservationLog:
    """Accumulates ledger-side request observations."""

    def __init__(self):
        self.observations: List[LedgerObservation] = []

    def record(
        self, requester: str, ledger_id: str, identifier: str, time: float
    ) -> None:
        self.observations.append(
            LedgerObservation(
                requester=requester,
                ledger_id=ledger_id,
                identifier=identifier,
                time=time,
            )
        )

    def __len__(self) -> int:
        return len(self.observations)

    def requesters(self) -> set:
        return {obs.requester for obs in self.observations}


@dataclass
class AnonymityReport:
    """Privacy metrics over one experiment run."""

    total_viewer_checks: int
    ledger_visible_requests: int
    mean_anonymity_set: float
    min_anonymity_set: int
    attribution_rate: float
    profile_leakage: float

    def __str__(self) -> str:  # pragma: no cover - presentation
        return (
            f"checks={self.total_viewer_checks} "
            f"ledger_visible={self.ledger_visible_requests} "
            f"anonymity_set(mean/min)={self.mean_anonymity_set:.1f}/"
            f"{self.min_anonymity_set} "
            f"attribution={self.attribution_rate:.3f} "
            f"leakage={self.profile_leakage:.3f}"
        )


def anonymity_report(
    log: ObservationLog,
    requester_populations: Dict[str, List[str]],
    viewer_checks: Dict[str, int],
) -> AnonymityReport:
    """Compute privacy metrics from a ledger-side observation log.

    Parameters
    ----------
    log:
        What ledgers observed.
    requester_populations:
        For each requester identity that can appear in the log, the
        list of viewers hiding behind it.  A direct-connecting viewer
        maps to ``[itself]``; a proxy maps to its whole user base.
    viewer_checks:
        Per-viewer count of labeled-photo checks issued (the
        denominator for profile leakage).
    """
    if not viewer_checks:
        raise ValueError("viewer_checks must not be empty")
    total_checks = sum(viewer_checks.values())
    set_sizes: List[int] = []
    attributed = 0
    leaked_per_viewer: Dict[str, int] = defaultdict(int)
    for obs in log.observations:
        population = requester_populations.get(obs.requester, [obs.requester])
        size = max(1, len(population))
        set_sizes.append(size)
        if size == 1:
            attributed += 1
            leaked_per_viewer[population[0]] += 1
    leakage_values = []
    for viewer, checks in viewer_checks.items():
        if checks == 0:
            continue
        leakage_values.append(min(1.0, leaked_per_viewer.get(viewer, 0) / checks))
    return AnonymityReport(
        total_viewer_checks=total_checks,
        ledger_visible_requests=len(log.observations),
        mean_anonymity_set=float(np.mean(set_sizes)) if set_sizes else 0.0,
        min_anonymity_set=int(min(set_sizes)) if set_sizes else 0,
        attribution_rate=(attributed / len(log.observations)) if log.observations else 0.0,
        profile_leakage=float(np.mean(leakage_values)) if leakage_values else 0.0,
    )
