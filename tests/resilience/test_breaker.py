"""The circuit breaker's full state machine, driven by a manual clock."""

import pytest

from repro.netsim.simulator import ManualClock
from repro.resilience import BreakerBoard, BreakerState, CircuitBreaker


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(clock.now, failure_threshold=3, reset_timeout=1.0)


def test_starts_closed_and_allows_traffic(breaker):
    assert breaker.state is BreakerState.CLOSED
    assert all(breaker.allow() for _ in range(10))


def test_threshold_consecutive_failures_trip_it_open(breaker):
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.times_opened == 1
    assert not breaker.allow()
    assert breaker.calls_refused == 1


def test_a_success_resets_the_consecutive_failure_count(breaker):
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED


def test_open_half_opens_after_the_reset_timeout(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    clock.advance(0.99)
    assert breaker.state is BreakerState.OPEN
    clock.advance(0.01)
    assert breaker.state is BreakerState.HALF_OPEN


def test_half_open_admits_only_the_probe_budget(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()  # the one probe slot
    assert not breaker.allow()  # budget consumed
    assert breaker.calls_refused == 1


def test_unanswered_probe_is_readmitted_a_window_later(breaker, clock):
    """A probe whose outcome never comes back must not refuse forever."""
    for _ in range(3):
        breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()  # the probe; its reply is lost
    clock.advance(0.99)
    assert not breaker.allow()
    clock.advance(0.01)
    assert breaker.allow()  # the next window's probe
    assert not breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.times_opened == 1


def test_successful_probe_recloses(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.times_reclosed == 1
    assert breaker.allow()


def test_failed_probe_reopens_and_restarts_the_clock(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_failure()  # one failure suffices in half-open
    assert breaker.state is BreakerState.OPEN
    assert breaker.times_opened == 2
    clock.advance(0.5)
    assert breaker.state is BreakerState.OPEN  # clock restarted at reopen
    clock.advance(0.5)
    assert breaker.state is BreakerState.HALF_OPEN


def test_failures_while_open_do_not_accumulate(breaker, clock):
    for _ in range(3):
        breaker.record_failure()
    breaker.record_failure()  # late straggler reply, already open
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(failure_threshold=0),
        dict(reset_timeout=0.0),
    ],
)
def test_invalid_breaker_parameters_are_rejected(clock, kwargs):
    with pytest.raises(ValueError):
        CircuitBreaker(clock.now, **kwargs)


def test_board_keeps_independent_per_target_state(clock):
    board = BreakerBoard(clock.now, failure_threshold=2, reset_timeout=1.0)
    board.record("shard-0", ok=False)
    board.record("shard-0", ok=False)
    board.record("shard-1", ok=False)
    assert not board.allow("shard-0")
    assert board.allow("shard-1")
    assert board.open_targets() == ["shard-0"]
    assert board.times_opened == 1
    clock.advance(1.0)
    assert board.state("shard-0") is BreakerState.HALF_OPEN
