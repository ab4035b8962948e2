"""Client-visible operation history for the consistency checker.

:class:`HistoryRecorder` is a :class:`~repro.cluster.frontend.ClusterFrontend`
observer: the frontend announces each client-visible operation (status
check, claim, revoke/unrevoke) when it is *issued* and again when its
outcome is *decided*, and the recorder timestamps both ends with the
simulation clock.  The resulting list of :class:`Op` intervals is the
only input the checker needs about the run's behaviour — the checker
never inspects in-flight cluster internals, exactly as an external
auditor could not.

Histories are deterministic: operations are numbered in issue order and
timestamped from the discrete-event clock, so two runs with the same
seed produce byte-identical histories (the replay guarantee the
determinism regression test enforces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["HistoryRecorder", "Op"]


@dataclass
class Op:
    """One client-visible operation, as an invocation/response interval."""

    op_id: int
    kind: str  # 'status' | 'claim' | 'revoke' | 'unrevoke'
    serial: int
    invoked_at: float
    completed_at: Optional[float] = None
    ok: Optional[bool] = None
    revoked: Optional[bool] = None
    epoch: Optional[int] = None
    state: Optional[str] = None
    source: Optional[str] = None  # status only: 'filter' | 'shard' | 'degraded'
    error: Optional[str] = None
    degraded: Optional[bool] = None  # status only: filter-backed fallback answer
    attrs: Dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def acked(self) -> bool:
        """Did the cluster acknowledge this operation as applied?"""
        return self.completed and bool(self.ok)

    def signature(self) -> tuple:
        """A hashable, comparison-friendly projection (determinism tests)."""
        return (
            self.op_id,
            self.kind,
            self.serial,
            round(self.invoked_at, 9),
            None if self.completed_at is None else round(self.completed_at, 9),
            self.ok,
            self.revoked,
            self.epoch,
            self.source,
            self.degraded,
        )


class HistoryRecorder:
    """Collects the frontend's operation announcements into a history.

    Implements the frontend observer protocol: ``begin`` returns an
    opaque op id, ``complete`` closes the interval.  Operations that
    never complete (lost in a partition that outlives the run) stay
    open and are reported as unavailable, not as violations.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._ops: List[Op] = []

    # -- observer protocol --------------------------------------------------------

    def begin(self, kind: str, serial: int, **attrs) -> int:
        op = Op(
            op_id=len(self._ops),
            kind=kind,
            serial=serial,
            invoked_at=self._clock(),
            attrs=dict(attrs),
        )
        self._ops.append(op)
        return op.op_id

    def complete(self, op_id: int, **attrs) -> None:
        op = self._ops[op_id]
        if op.completed:  # pragma: no cover - frontend completes once
            return
        op.completed_at = self._clock()
        for name in ("ok", "revoked", "epoch", "state", "source", "error", "degraded"):
            if name in attrs:
                setattr(op, name, attrs.pop(name))
        op.attrs.update(attrs)

    # -- queries ------------------------------------------------------------------

    @property
    def ops(self) -> List[Op]:
        return list(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def of_kind(self, *kinds: str) -> List[Op]:
        return [op for op in self._ops if op.kind in kinds]

    def signature(self) -> tuple:
        """The whole history as a comparable tuple (replay checks)."""
        return tuple(op.signature() for op in self._ops)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        done = sum(1 for op in self._ops if op.completed)
        return f"HistoryRecorder(ops={len(self._ops)}, completed={done})"
