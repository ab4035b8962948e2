"""Canned ecosystem scenarios for experiment E9.

Actor rosters are loosely modelled on the real landscape the paper
names: privacy-branded browser vendors with modest share (Mozilla,
Brave, Apple-like), one dominant engagement-funded vendor, and a
spectrum of aggregators from privacy-branded to engagement-maximizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecosystem.actors import AggregatorActor, BrowserVendor, UserPopulation
from repro.ecosystem.adoption import AdoptionModel
from repro.ecosystem.incentives import IncentiveWeights

__all__ = [
    "Scenario",
    "baseline_scenario",
    "no_first_mover_scenario",
    "strong_liability_scenario",
    "engagement_incumbents_scenario",
]


@dataclass
class Scenario:
    """A named, fully parameterized model factory."""

    name: str
    description: str
    weights: IncentiveWeights

    def build(self, seed: int = 0) -> AdoptionModel:
        return AdoptionModel(
            vendors=self._vendors(),
            aggregators=self._aggregators(),
            users=self._users(),
            weights=self.weights,
            rng=np.random.default_rng(seed),
            vendor_ship_threshold=self._vendor_threshold,
        )

    # Hooks overridden per scenario via instance attributes below.
    _vendor_threshold: float = 0.6

    def _vendors(self) -> list[BrowserVendor]:
        return [
            BrowserVendor(name="privacyfox", market_share=0.08, privacy_brand=0.9),
            BrowserVendor(name="lionshare", market_share=0.04, privacy_brand=0.85),
            BrowserVendor(name="orchard", market_share=0.18, privacy_brand=0.7),
            BrowserVendor(name="adstream", market_share=0.65, privacy_brand=0.2),
        ]

    def _aggregators(self) -> list[AggregatorActor]:
        return [
            AggregatorActor(
                name="privategram",
                market_share=0.10,
                privacy_brand=0.8,
                engagement_focus=0.3,
            ),
            AggregatorActor(
                name="photowall",
                market_share=0.25,
                privacy_brand=0.5,
                engagement_focus=0.5,
            ),
            AggregatorActor(
                name="sharesphere",
                market_share=0.40,
                privacy_brand=0.3,
                engagement_focus=0.8,
            ),
            AggregatorActor(
                name="viralgrid",
                market_share=0.25,
                privacy_brand=0.1,
                engagement_focus=0.95,
            ),
        ]

    def _users(self) -> UserPopulation:
        return UserPopulation(
            size=3e9, privacy_concern_mean=0.35, photos_per_user_month=60.0
        )


def baseline_scenario() -> Scenario:
    """The paper's expected trajectory: first movers ship, pressure
    builds, incumbents cascade."""
    return Scenario(
        name="baseline",
        description="privacy browsers bootstrap; incumbents flip under "
        "combined brand/liability/competitive pressure",
        weights=IncentiveWeights(),
    )


def no_first_mover_scenario() -> Scenario:
    """Counterfactual: no browser vendor is privacy-branded enough to
    move first, so the bootstrap never starts.  The TET argument
    predicts zero adoption forever."""
    scenario = Scenario(
        name="no-first-mover",
        description="nobody bootstraps; incentives never change",
        weights=IncentiveWeights(),
    )
    scenario._vendor_threshold = 0.99  # nobody clears the bar
    return scenario


def strong_liability_scenario() -> Scenario:
    """Regulation-adjacent world: courts weigh knowable-intent heavily,
    and liability saturates at a tenth the photo population."""
    return Scenario(
        name="strong-liability",
        description="liability dominates; holdouts flip earlier and at "
        "smaller photo populations",
        weights=IncentiveWeights(
            liability_weight=4.0, liability_reference_photos=10e9
        ),
    )


def engagement_incumbents_scenario() -> Scenario:
    """Engagement costs doubled: the hard case the paper concedes.
    Adoption still happens but later, carried by liability pressure."""
    return Scenario(
        name="engagement-incumbents",
        description="engagement-heavy incumbents resist; tipping is late "
        "and liability-driven",
        weights=IncentiveWeights(engagement_cost=1.2, brand_value=0.8),
    )
