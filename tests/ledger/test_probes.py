"""Tests for owner-side honesty probes against honest and lying ledgers."""

import numpy as np
import pytest

from repro.attacks.malicious_ledger import LyingLedger, StonewallingLedger
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.ledger import Ledger
from repro.ledger.probes import HonestyProber
from tests.ledger.conftest import forge_history


@pytest.fixture()
def tsa():
    return TimestampAuthority()


class TestHonestLedger:
    def test_clean_report(self, tsa):
        ledger = Ledger("honest", tsa)
        prober = HonestyProber(ledger, np.random.default_rng(1))
        prober.plant_canaries(5)
        for _ in range(3):
            report = prober.run_round()
            assert report.clean
            assert report.probes_sent == 5

    def test_canaries_persist(self, tsa):
        ledger = Ledger("honest", tsa)
        prober = HonestyProber(ledger, np.random.default_rng(2))
        prober.plant_canaries(3)
        assert prober.num_canaries == 3
        assert len(ledger.store) == 3


class TestLyingLedger:
    def test_lies_detected(self, tsa):
        ledger = LyingLedger(
            "liar",
            tsa,
            lie_probability=1.0,
            lie_rng=np.random.default_rng(3),
        )
        prober = HonestyProber(ledger, np.random.default_rng(4))
        prober.plant_canaries(5)
        report = prober.run_round(toggle_probability=0.0)
        assert not report.clean
        assert all(v.kind == "wrong_status" for v in report.violations)
        assert len(report.violations) == 5

    def test_lie_evidence_is_signed(self, tsa):
        """A lying ledger signs its lies — portable evidence."""
        ledger = LyingLedger(
            "liar", tsa, lie_probability=1.0, lie_rng=np.random.default_rng(5)
        )
        prober = HonestyProber(ledger, np.random.default_rng(6))
        prober.plant_canaries(2)
        report = prober.run_round(toggle_probability=0.0)
        for violation in report.violations:
            assert violation.evidence is not None
            # The lie verifies under the ledger's own key: damning.
            assert violation.evidence.verify(ledger.public_key)

    def test_partial_liar_partially_detected(self, tsa):
        ledger = LyingLedger(
            "sometimes-liar",
            tsa,
            lie_probability=0.5,
            lie_rng=np.random.default_rng(7),
        )
        prober = HonestyProber(ledger, np.random.default_rng(8))
        prober.plant_canaries(40)
        report = prober.run_round(toggle_probability=0.0)
        # ~half the probes catch a lie.
        assert 8 <= len(report.violations) <= 32


class TestStonewallingLedger:
    def test_dropped_revocations_detected(self, tsa):
        ledger = StonewallingLedger(
            "stonewall",
            tsa,
            drop_probability=1.0,
            drop_rng=np.random.default_rng(9),
        )
        prober = HonestyProber(ledger, np.random.default_rng(10))
        prober.plant_canaries(6)
        # Every toggle is silently dropped, so status disagrees with
        # the prober's expectation.
        report = prober.run_round(toggle_probability=1.0)
        assert not report.clean
        assert all(v.kind == "wrong_status" for v in report.violations)
        assert ledger.requests_dropped == 6

    def test_honest_mode_passes(self, tsa):
        ledger = StonewallingLedger(
            "not-actually",
            tsa,
            drop_probability=0.0,
            drop_rng=np.random.default_rng(11),
        )
        prober = HonestyProber(ledger, np.random.default_rng(12))
        prober.plant_canaries(4)
        assert prober.run_round().clean


class TestMerkleAudit:
    def test_history_rewrite_detected(self, tsa):
        ledger = Ledger("rewriter", tsa)
        prober = HonestyProber(ledger, np.random.default_rng(13))
        prober.plant_canaries(3)
        prober.run_round()  # records the current root
        # The ledger re-dates its first claim and re-seals the chain:
        # every link verifies, only the remembered root disagrees.
        forge_history(ledger.store, 0)
        ledger.store.events.verify_chain()
        report = prober.run_round()
        assert any(v.kind == "history_rewrite" for v in report.violations)

    def test_honest_growth_passes_audit(self, tsa):
        ledger = Ledger("grower", tsa)
        prober = HonestyProber(ledger, np.random.default_rng(14))
        prober.plant_canaries(3)
        prober.run_round()
        prober.plant_canaries(2)  # log grows between rounds
        assert prober.run_round().clean
