"""Failure detector: consecutive suspicion and one probe per probation window."""

import pytest

from repro.cluster import FailureDetector
from repro.netsim.simulator import ManualClock


@pytest.fixture
def clock():
    return ManualClock()


def test_fresh_shard_is_trusted(clock):
    detector = FailureDetector(clock.now)
    assert not detector.is_suspect("s0")
    assert not detector.is_suspect("s1")
    assert detector.suspects() == []


def test_suspicion_requires_consecutive_failures(clock):
    detector = FailureDetector(clock.now, failure_threshold=3)
    detector.record("s0", ok=False)
    detector.record("s0", ok=False)
    detector.record("s0", ok=True)  # streak broken
    detector.record("s0", ok=False)
    detector.record("s0", ok=False)
    assert not detector.is_suspect("s0")
    detector.record("s0", ok=False)
    assert detector.is_suspect("s0")
    assert detector.suspects() == ["s0"]
    assert detector.suspicions_raised == 1


def test_success_clears_suspicion(clock):
    detector = FailureDetector(clock.now, failure_threshold=1)
    detector.record("s0", ok=False)
    assert detector.is_suspect("s0")
    detector.record("s0", ok=True)
    assert not detector.is_suspect("s0")
    assert detector.suspects() == []


def test_probation_admits_one_probe(clock):
    detector = FailureDetector(clock.now, failure_threshold=1, probation=10.0)
    detector.record("s0", ok=False)
    assert detector.is_suspect("s0")
    clock.advance(10.0)
    # Half-open: exactly one call is let through, then re-armed.
    assert not detector.is_suspect("s0")
    assert detector.is_suspect("s0")
    # The probe failing re-enters the wait; succeeding clears it.
    clock.advance(10.0)
    assert not detector.is_suspect("s0")
    detector.record("s0", ok=True)
    assert not detector.is_suspect("s0")
    assert detector.suspects() == []


def test_probation_success_fully_clears_suspicion(clock):
    """A probe that succeeds wipes all suspicion state, not just the flag."""
    detector = FailureDetector(clock.now, failure_threshold=2, probation=10.0)
    detector.record("s0", ok=False)
    detector.record("s0", ok=False)
    assert detector.is_suspect("s0")
    clock.advance(10.0)
    assert not detector.is_suspect("s0")  # the admitted probe
    detector.record("s0", ok=True)
    assert detector.suspects() == []
    # Fully cleared: the failure streak restarts from zero, so one new
    # failure (below threshold) must not re-suspect...
    detector.record("s0", ok=False)
    assert not detector.is_suspect("s0")
    # ...and when the threshold is crossed again it is a *new* suspicion.
    detector.record("s0", ok=False)
    assert detector.is_suspect("s0")
    assert detector.suspicions_raised == 2


def test_probation_timeout_resuspects_without_double_counting(clock):
    """A failed probe re-arms the window but is the same suspicion."""
    detector = FailureDetector(clock.now, failure_threshold=1, probation=10.0)
    detector.record("s0", ok=False)
    assert detector.suspicions_raised == 1
    clock.advance(10.0)
    assert not detector.is_suspect("s0")  # probe admitted
    detector.record("s0", ok=False)  # the probe timed out
    # Re-suspected immediately — no second probe until a full window
    # from the failed probe...
    assert detector.is_suspect("s0")
    clock.advance(9.0)
    assert detector.is_suspect("s0")
    clock.advance(1.0)
    assert not detector.is_suspect("s0")
    # ...and the whole episode counts as ONE suspicion, however many
    # probes fail.
    detector.record("s0", ok=False)
    assert detector.suspicions_raised == 1
    assert detector.suspects() == ["s0"]


def test_unanswered_probe_is_readmitted_a_window_later(clock):
    """A probe whose outcome never comes back costs one window, not forever."""
    detector = FailureDetector(clock.now, failure_threshold=1, probation=10.0)
    detector.record("s0", ok=False)
    clock.advance(10.0)
    assert not detector.is_suspect("s0")  # probe admitted; its reply is lost
    clock.advance(9.0)
    assert detector.is_suspect("s0")
    clock.advance(1.0)
    assert not detector.is_suspect("s0")  # the next window's probe
    assert detector.is_suspect("s0")
    assert detector.suspicions_raised == 1


def test_invalid_parameters_rejected(clock):
    with pytest.raises(ValueError):
        FailureDetector(clock.now, failure_threshold=0)
    with pytest.raises(ValueError):
        FailureDetector(clock.now, probation=0.0)
