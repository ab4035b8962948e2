"""Ecosystem actors.

The paper's cast (sections 1 and 4.1):

* **Browser vendors** -- the first movers: "several of the major
  browsers are already actively working on (and even competing on)
  privacy protection features (e.g., Mozilla, Brave, and Apple)".  A
  vendor that adopts pushes IRS support to its market share and runs a
  ledger.
* **Content aggregators** -- the incumbents whose incentives must
  flip.  Differ in how engagement-driven vs privacy-branded they are.
* **The user population** -- heterogeneous privacy preference; users
  with IRS-capable browsers who care about privacy start claiming
  photos, growing the registered-photo population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BrowserVendor", "AggregatorActor", "UserPopulation", "EcosystemState"]


@dataclass
class BrowserVendor:
    """A browser vendor that may ship IRS support.

    Attributes
    ----------
    name / market_share:
        Identity and fraction of users on this browser.
    privacy_brand:
        0..1, how much the vendor competes on privacy (Mozilla/Brave
        high, engagement-funded browsers low).
    adopted / adopted_at:
        Whether (and when, in months) the vendor shipped IRS.
    """

    name: str
    market_share: float
    privacy_brand: float
    adopted: bool = False
    adopted_at: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.market_share <= 1.0:
            raise ValueError("market share must be in [0, 1]")
        if not 0.0 <= self.privacy_brand <= 1.0:
            raise ValueError("privacy brand must be in [0, 1]")


@dataclass
class AggregatorActor:
    """A content aggregator deciding whether to adopt IRS.

    Attributes
    ----------
    market_share:
        Fraction of photo-sharing activity hosted here.
    privacy_brand:
        0..1, value the aggregator's brand places on privacy.
    engagement_focus:
        0..1, how much revenue rides on engagement ("some aggregators
        are geared more towards engagement than privacy and adopting
        IRS would reduce engagement").
    """

    name: str
    market_share: float
    privacy_brand: float
    engagement_focus: float
    adopted: bool = False
    adopted_at: float | None = None
    # Consecutive months adoption utility has exceeded holdout utility;
    # used for hysteresis so a single noisy month doesn't flip anyone.
    _pressure_months: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        for attr in ("market_share", "privacy_brand", "engagement_focus"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1]")


@dataclass
class UserPopulation:
    """The viewing/photographing public.

    Attributes
    ----------
    size:
        Absolute number of users (sets photo-population scale).
    privacy_concern_mean:
        Mean of users' privacy preference in [0, 1]; drives both IRS
        browser uptake and claiming behaviour.
    photos_per_user_month:
        New photos a user takes per month; IRS users auto-register them
        (section 4.4's register-and-revoke-by-default model).
    """

    size: float = 1e9
    privacy_concern_mean: float = 0.35
    photos_per_user_month: float = 60.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("population size must be positive")
        if not 0.0 <= self.privacy_concern_mean <= 1.0:
            raise ValueError("privacy concern must be in [0, 1]")
        if self.photos_per_user_month < 0:
            raise ValueError("photo rate cannot be negative")


@dataclass
class EcosystemState:
    """Snapshot of the ecosystem at one time step."""

    month: int
    user_adoption: float  # fraction of users with IRS browsers
    photo_population: float  # photos registered in IRS ledgers
    aggregators_adopted: int
    aggregator_share_adopted: float  # market-share-weighted adoption
    vendor_share_adopted: float
