"""Storage-fault chaos: plan budget, controller wiring, durability gate."""

import numpy as np

from repro.chaos import (
    ChaosKnobs,
    ChaosPlan,
    ConsistencyChecker,
    run_chaos,
    run_durability_selftest,
)
from repro.cluster import ShardRecovery

SHARDS = ["shard-0", "shard-1", "shard-2", "shard-3"]


def _plan(seed, knobs, intensity=0.8):
    return ChaosPlan.generate(
        np.random.default_rng(seed),
        SHARDS,
        horizon=8.0,
        intensity=intensity,
        knobs=knobs,
    )


class TestPlanGeneration:
    def test_default_knobs_schedule_no_storage_faults(self):
        for seed in range(5):
            plan = _plan(seed, ChaosKnobs())
            assert plan.counts()["storage"] == 0

    def test_storage_knob_leaves_legacy_schedule_untouched(self):
        """Stream stability: old seeds reproduce old fault schedules."""
        for seed in range(5):
            legacy = _plan(seed, ChaosKnobs())
            extended = _plan(
                seed, ChaosKnobs(storage_fault_probability=1.0)
            )
            stripped = [
                (e.kind, e.at, e.duration, e.targets, e.wipe, e.offset)
                for e in extended.events
            ]
            assert stripped == [
                (e.kind, e.at, e.duration, e.targets, e.wipe, e.offset)
                for e in legacy.events
            ]

    def test_destructive_faults_share_the_wipe_budget(self):
        """At most max_wipes torn/corrupt faults + wipes per plan."""
        for seed in range(20):
            knobs = ChaosKnobs(
                storage_fault_probability=1.0,
                wipe_probability=0.5,
                crash_rate=1.5,
            )
            plan = _plan(seed, knobs)
            wipes = sum(1 for e in plan.events if e.wipe)
            destructive = sum(
                1
                for e in plan.events
                if e.storage_fault in ("torn", "corrupt")
            )
            assert wipes + destructive <= knobs.max_wipes

    def test_wiped_crashes_never_carry_storage_faults(self):
        for seed in range(20):
            plan = _plan(
                seed,
                ChaosKnobs(
                    storage_fault_probability=1.0, wipe_probability=0.5,
                    crash_rate=1.5,
                ),
            )
            for event in plan.events:
                if event.wipe:
                    assert event.storage_fault == ""


class TestRecoveryInvariants:
    def _recovery(self, **kwargs):
        defaults = dict(
            shard_id="shard-0",
            at=1.0,
            evidence=(),
            installed_digest="d1",
            replayed_digest="d1",
            records_recovered=10,
            events_replayed=5,
        )
        defaults.update(kwargs)
        return ShardRecovery(**defaults)

    def test_matching_digests_and_evidence_pass(self):
        checker = ConsistencyChecker()
        report = checker.check_recovery(
            [self._recovery(evidence=("torn_record",))],
            injected=[("shard-0", "torn", 0.5)],
        )
        assert report.ok
        assert report.recoveries_checked == 1

    def test_digest_mismatch_is_flagged(self):
        checker = ConsistencyChecker()
        report = checker.check_recovery(
            [self._recovery(replayed_digest="d2")]
        )
        assert report.count("recovery_mismatch") == 1

    def test_missed_corruption_is_flagged(self):
        checker = ConsistencyChecker()
        report = checker.check_recovery(
            [self._recovery(evidence=())],
            injected=[("shard-0", "corrupt", 0.5)],
        )
        assert report.count("corruption_missed") == 1

    def test_fault_with_no_recovery_at_all_is_flagged(self):
        checker = ConsistencyChecker()
        report = checker.check_recovery(
            [], injected=[("shard-1", "snapshot", 0.5)]
        )
        assert report.count("corruption_missed") == 1

    def test_wrong_evidence_kind_is_flagged(self):
        checker = ConsistencyChecker()
        report = checker.check_recovery(
            [self._recovery(evidence=("snapshot_corrupt",))],
            injected=[("shard-0", "torn", 0.5)],
        )
        assert report.count("corruption_missed") == 1


STORAGE_KNOBS = ChaosKnobs(
    storage_fault_probability=1.0, wipe_probability=0.0, crash_rate=1.2
)


class TestStorageChaosRuns:
    def test_faults_land_and_run_stays_green(self):
        report = run_chaos(seed=0, intensity=0.7, knobs=STORAGE_KNOBS)
        assert report.faults["storage"] > 0
        assert report.faults["storage"] == len(report.storage_faults)
        assert len(report.recoveries) > 0
        assert report.check.ok, report.check.by_invariant()

    def test_every_landed_fault_left_evidence(self):
        report = run_chaos(seed=2, intensity=0.7, knobs=STORAGE_KNOBS)
        assert report.storage_faults
        for shard_id, kind, at in report.storage_faults:
            matching = next(
                r
                for r in report.recoveries
                if r.shard_id == shard_id and r.at >= at
            )
            assert matching.evidence

    def test_runs_are_deterministic(self):
        row_a = run_chaos(seed=3, intensity=0.7, knobs=STORAGE_KNOBS).row()
        row_b = run_chaos(seed=3, intensity=0.7, knobs=STORAGE_KNOBS).row()
        assert row_a == row_b

    def test_mixed_wipe_and_storage_chaos_stays_green(self):
        knobs = ChaosKnobs(
            storage_fault_probability=0.8,
            wipe_probability=0.4,
            crash_rate=1.0,
        )
        report = run_chaos(seed=0, intensity=0.8, knobs=knobs)
        assert report.faults["wipe"] > 0
        assert report.faults["storage"] > 0
        assert report.check.ok, report.check.by_invariant()


def test_durability_selftest_discriminates():
    result = run_durability_selftest(seed=0)
    assert result.clean.check.ok
    assert result.blind.check.count("corruption_missed") > 0
    assert result.diverged.check.count("recovery_mismatch") > 0
    assert result.detected
