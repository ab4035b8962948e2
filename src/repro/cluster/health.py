"""Failure detection: the circuit breaker read as advice.

The cluster has no heartbeat plane; evidence of shard health is the
request traffic itself, and every RPC outcome is reported here.  The
state machine is :mod:`repro.resilience.breaker`'s — ``failure_threshold``
*consecutive* failures open an episode of suspicion, after ``probation``
seconds one request is let through again (and once per window after
that, until an outcome clears or extends the episode), a success ends
it.  What differs is the reading: a frontend's own breakers *refuse* a
target, while a suspect is only ranked last — it still receives hedged
reads, it is just not chosen to sign or to coordinate.

Timeout-based suspicion is deliberately conservative — a slow shard and
a dead shard look identical from the frontend, which is exactly the
ambiguity quorum reads are built to absorb.
"""

from __future__ import annotations

from typing import Callable, List, Set

from repro.resilience.breaker import BreakerBoard, BreakerState

__all__ = ["FailureDetector"]


class FailureDetector:
    """Consecutive-failure suspicion, one probe per probation window, on any clock."""

    def __init__(
        self,
        clock: Callable[[], float],
        failure_threshold: int = 3,
        probation: float = 10.0,
    ):
        if failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if probation <= 0:
            raise ValueError("probation must be positive")
        self._board = BreakerBoard(
            clock, failure_threshold, probation, on_transition=self._transition
        )
        self._episodes: Set[str] = set()  # shards from first trip to reclose
        self.suspicions_raised = 0  # episodes, however many probes each fails

    def _transition(self, shard_id: str, state: BreakerState) -> None:
        if state is BreakerState.CLOSED:
            self._episodes.discard(shard_id)
        elif shard_id not in self._episodes:
            self._episodes.add(shard_id)
            self.suspicions_raised += 1

    def record(self, shard_id: str, ok: bool) -> None:
        """One RPC outcome: a success ends an episode, a failure counts."""
        self._board.record(shard_id, ok)

    def is_suspect(self, shard_id: str) -> bool:
        """True while a shard should receive no routine traffic.

        A False for a shard in an episode is its probe admission.
        """
        return shard_id in self._episodes and not self._board.allow(shard_id)

    def suspects(self) -> List[str]:
        return sorted(self._episodes)
