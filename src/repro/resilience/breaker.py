"""Per-target circuit breakers: stop paying timeouts to dead nodes.

The failure detector (:mod:`repro.cluster.health`) answers "who do I
*prefer*"; the breaker answers "who do I refuse to call at all".  The
distinction matters under chaos: a suspected shard still receives
hedged reads (suspicion is advisory), but an *open* breaker removes the
shard from the candidate set entirely, so a partitioned replica costs
one timeout per reset window instead of one per request — which is the
difference between a latency blip and a cluster-wide stall when a
partition takes out a whole replica group.

States follow the classic machine:

* **closed** — traffic flows; ``failure_threshold`` consecutive
  failures trip it open.
* **open** — all traffic refused until ``reset_timeout`` elapses.
* **half-open** — one trial request is admitted; its success
  recloses, its failure re-opens (and restarts the reset clock), and
  if its outcome never comes back another is admitted one
  ``reset_timeout`` later.

The failure detector (:mod:`repro.cluster.health`) is this machine
read as advice: a board of its own, with a longer window.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

__all__ = ["BreakerState", "CircuitBreaker", "BreakerBoard"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One target's closed/open/half-open state machine over a clock.

    ``on_transition(new_state)``, when given, fires on every state
    *change* — trip, half-open expiry, reclose — which is how the
    observability layer counts transitions without the breaker knowing
    anything about metrics.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        on_transition: Optional[Callable[[BreakerState], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("breaker failure threshold must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("breaker reset timeout must be positive")
        self._clock = clock
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._on_transition = on_transition
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        # Start of the current refusal window: the trip, or the
        # admission of the half-open probe still unanswered.
        self._waiting_since = 0.0
        # Counters for experiment reporting.
        self.times_opened = 0
        self.times_reclosed = 0
        self.calls_refused = 0

    def _transition(self, state: BreakerState) -> None:
        if state is self._state:
            return
        self._state = state
        if self._on_transition is not None:
            self._on_transition(state)

    @property
    def state(self) -> BreakerState:
        """Current state, accounting for reset-timeout expiry."""
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._waiting_since >= self.reset_timeout
        ):
            self._transition(BreakerState.HALF_OPEN)

    # -- admission ---------------------------------------------------------------

    def allow(self) -> bool:
        """May a request be sent to this target right now?

        Once the reset window is over, ``allow() == True`` *is* the
        half-open probe and starts the next window, so exactly one
        request flows per window until an outcome is recorded.  Callers
        that ask without sending (a preview) therefore cost at most one
        window: a probe whose outcome never comes back stops counting
        after another ``reset_timeout``.
        """
        if self._state is BreakerState.CLOSED:
            return True
        now = self._clock()
        if now - self._waiting_since >= self.reset_timeout:
            self._transition(BreakerState.HALF_OPEN)
            self._waiting_since = now
            return True
        self.calls_refused += 1
        return False

    # -- evidence ----------------------------------------------------------------

    def record_success(self) -> None:
        if self._state is not BreakerState.CLOSED:  # closed: the per-reply case
            self._maybe_half_open()
            if self._state is BreakerState.HALF_OPEN:
                self.times_reclosed += 1
            self._transition(BreakerState.CLOSED)
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        self._maybe_half_open()
        if self._state is BreakerState.HALF_OPEN:
            self._trip()  # failed probe: back to open, restart the clock
            return
        if self._state is BreakerState.OPEN:
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._transition(BreakerState.OPEN)
        self._waiting_since = self._clock()
        self._consecutive_failures = 0
        self.times_opened += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker({self._state.value})"


class BreakerBoard:
    """A lazily populated breaker per target (shard, ledger, ...).

    ``on_transition(target, new_state)`` observes every per-target
    state change (the board-level twin of the breaker hook).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        on_transition: Optional[Callable[[str, BreakerState], None]] = None,
    ):
        self._clock = clock
        self._kwargs = dict(
            failure_threshold=failure_threshold, reset_timeout=reset_timeout
        )
        self._on_transition = on_transition
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, target: str) -> CircuitBreaker:
        if target not in self._breakers:
            hook = None
            if self._on_transition is not None:
                board_hook = self._on_transition
                hook = lambda state, t=target: board_hook(t, state)  # noqa: E731
            self._breakers[target] = CircuitBreaker(
                self._clock, on_transition=hook, **self._kwargs
            )
        return self._breakers[target]

    def allow(self, target: str) -> bool:
        return self.breaker(target).allow()

    def record(self, target: str, ok: bool) -> None:
        breaker = self._breakers.get(target) or self.breaker(target)
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def state(self, target: str) -> BreakerState:
        return self.breaker(target).state

    def open_targets(self) -> List[str]:
        return sorted(
            t
            for t, b in self._breakers.items()
            if b.state is not BreakerState.CLOSED
        )

    @property
    def times_opened(self) -> int:
        return sum(b.times_opened for b in self._breakers.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BreakerBoard(open={self.open_targets()})"
