"""Reputational discipline of ledgers.

Section 5: "it is almost impossible to scalably prevent bad behavior in
the short-term but one counts on reputational effects (i.e., users will
avoid ledgers that are known to behave badly) to prevent bad behavior
in the long term."

:class:`LedgerMarket` models that mechanism: ledgers hold market share
of new claims; probe reports (from
:class:`repro.ledger.probes.HonestyProber`) feed reputations; owners
choose ledgers proportionally to reputation-weighted share, so a ledger
caught lying bleeds market share at a rate set by how widely probe
evidence spreads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.ledger.probes import ProbeReport

__all__ = ["LedgerReputation", "LedgerMarket"]


@dataclass
class LedgerReputation:
    """One ledger's public standing.

    ``score`` in [0, 1]: 1 = spotless.  Violations with signed evidence
    (wrong_status with a StatusProof attached) hit harder than
    unprovable ones, because they are independently verifiable by
    anyone the evidence reaches.
    """

    ledger_id: str
    score: float = 1.0
    violations_observed: int = 0

    def apply_report(
        self, report: ProbeReport, evidence_weight: float, soft_weight: float
    ) -> None:
        for violation in report.violations:
            self.violations_observed += 1
            penalty = (
                evidence_weight if violation.evidence is not None else soft_weight
            )
            self.score *= 1.0 - penalty
        self.score = max(0.0, min(1.0, self.score))

    def recover(self, rate: float) -> None:
        """Slow reputation recovery during clean periods."""
        self.score = min(1.0, self.score + rate * (1.0 - self.score))


class LedgerMarket:
    """Owners choosing among ledgers by reputation.

    Each round: probe reports update reputations, then new-claim market
    share is recomputed proportional to ``score ** sharpness`` (sharper
    markets punish faster).
    """

    def __init__(
        self,
        ledger_ids: List[str],
        evidence_weight: float = 0.25,
        soft_weight: float = 0.08,
        recovery_rate: float = 0.01,
        sharpness: float = 2.0,
    ):
        if not ledger_ids:
            raise ValueError("need at least one ledger")
        self.reputations: Dict[str, LedgerReputation] = {
            ledger_id: LedgerReputation(ledger_id=ledger_id)
            for ledger_id in ledger_ids
        }
        self.evidence_weight = float(evidence_weight)
        self.soft_weight = float(soft_weight)
        self.recovery_rate = float(recovery_rate)
        self.sharpness = float(sharpness)
        self.share_history: List[Dict[str, float]] = [self.market_share()]

    def market_share(self) -> Dict[str, float]:
        """Current new-claim share per ledger."""
        weights = {
            ledger_id: max(rep.score, 1e-6) ** self.sharpness
            for ledger_id, rep in self.reputations.items()
        }
        total = sum(weights.values())
        return {ledger_id: w / total for ledger_id, w in weights.items()}

    def round(self, reports: Dict[str, ProbeReport]) -> Dict[str, float]:
        """Apply one round of probe reports; returns new market shares.

        Ledgers without a report this round (or with a clean one)
        recover slightly.
        """
        for ledger_id, reputation in self.reputations.items():
            report = reports.get(ledger_id)
            if report is not None and report.violations:
                reputation.apply_report(
                    report, self.evidence_weight, self.soft_weight
                )
            else:
                reputation.recover(self.recovery_rate)
        shares = self.market_share()
        self.share_history.append(shares)
        return shares
