"""Deterministic chaos schedules: one seed, one byte-identical run.

A :class:`ChaosPlan` is a fully materialized fault schedule — partition
windows, crash-restart windows (state kept or wiped), per-node clock
skews, plus a message-level :class:`~repro.chaos.faults.LinkFaultProfile`
— generated up front from a single :mod:`repro.netsim.rand` stream.
Because every random choice is drawn *before* the simulation starts,
the plan is a value: print it, diff it, and replay it byte-identically
from its seed, no matter how the faults perturb the run itself.

The :class:`ChaosController` installs a plan onto a
:class:`~repro.cluster.simnet.SimulatedCluster`: each event becomes a
pair of simulator timers (start, end), overlapping faults on the same
shard are reference-counted so one partition healing does not
prematurely reconnect a shard still isolated by another, and a final
heal barrier at the horizon guarantees the post-chaos convergence phase
starts from a fully connected cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.faults import LinkFaultProfile

__all__ = ["ChaosEvent", "ChaosKnobs", "ChaosPlan", "ChaosController"]


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: a window ``[at, at + duration)`` on targets."""

    kind: str  # 'partition' | 'crash' | 'skew'
    at: float
    duration: float
    targets: Tuple[str, ...]
    wipe: bool = False  # crash only: lose the replica's disk on restart
    offset: float = 0.0  # skew only: seconds of clock drift
    # Crash only: damage the surviving disk before the restart recovers
    # from it — '' (none) | 'torn' | 'corrupt' | 'snapshot'.
    storage_fault: str = ""

    @property
    def ends_at(self) -> float:
        return self.at + self.duration


@dataclass(frozen=True)
class ChaosKnobs:
    """Fault intensities at ``intensity=1.0``; scaled linearly below.

    Rates are events per second of simulated time; durations are means
    of exponential draws (clipped to the horizon).
    """

    partition_rate: float = 0.5
    partition_duration: float = 0.4
    max_partition_fraction: float = 0.5  # largest isolatable shard share
    crash_rate: float = 0.5
    crash_duration: float = 0.3
    wipe_probability: float = 0.3
    # The fault model's tolerance contract: at most this many restarts
    # lose their disk per run.  Quorum writes survive any w-1 wipes
    # (w replicas hold an acknowledged write); wiping a full write
    # quorum annihilates data no leaderless protocol could keep, which
    # would be a statement about the fault injector, not the cluster.
    max_wipes: int = 1
    # Probability that a non-wipe crash restarts against a *damaged*
    # disk (torn final record, corrupted WAL byte, or corrupted
    # snapshot, equally likely).  Unscaled by intensity, like
    # ``wipe_probability``.  Torn/corrupt faults truncate acknowledged
    # log suffix on recovery, so they share the ``max_wipes`` budget;
    # draws past the budget degrade to snapshot corruption.  Default 0
    # keeps legacy plans byte-stable.
    storage_fault_probability: float = 0.0
    skew_rate: float = 0.3
    max_clock_skew: float = 30.0
    link_faults: LinkFaultProfile = field(
        default_factory=lambda: LinkFaultProfile(
            loss=0.02, duplicate=0.05, reorder=0.10, reorder_delay=0.02
        )
    )


@dataclass
class ChaosPlan:
    """A materialized fault schedule plus its message-level fault mix."""

    events: List[ChaosEvent]
    link_faults: LinkFaultProfile
    horizon: float
    intensity: float

    @classmethod
    def generate(
        cls,
        rng: np.random.Generator,
        shard_ids: Sequence[str],
        horizon: float,
        intensity: float,
        knobs: Optional[ChaosKnobs] = None,
    ) -> "ChaosPlan":
        """Draw a schedule from ``rng`` — same stream, same plan.

        ``intensity`` in [0, 1] scales event rates and message fault
        probabilities together; 0 yields an empty plan (the control run
        every sweep anchors on).
        """
        if not 0.0 <= intensity:
            raise ValueError("intensity cannot be negative")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        knobs = knobs or ChaosKnobs()
        shard_ids = list(shard_ids)
        events: List[ChaosEvent] = []
        # Faults start after a short warm-up and end early enough that
        # their windows close before the horizon's heal barrier.
        window = (0.05 * horizon, 0.75 * horizon)

        def _window_times(rate: float) -> np.ndarray:
            count = rng.poisson(rate * intensity * horizon)
            return np.sort(rng.uniform(window[0], window[1], size=count))

        max_island = max(1, int(len(shard_ids) * knobs.max_partition_fraction))
        for at in _window_times(knobs.partition_rate):
            size = int(rng.integers(1, max_island + 1))
            targets = tuple(
                sorted(rng.choice(shard_ids, size=size, replace=False))
            )
            duration = min(
                float(rng.exponential(knobs.partition_duration)) + 1e-3,
                horizon - at,
            )
            events.append(
                ChaosEvent("partition", float(at), duration, targets)
            )
        wipes = 0
        for at in _window_times(knobs.crash_rate):
            victim = str(rng.choice(shard_ids))
            duration = min(
                float(rng.exponential(knobs.crash_duration)) + 1e-3,
                horizon - at,
            )
            # Always draw the coin (stream stability), then clamp to the
            # tolerance contract.
            wipe = bool(rng.uniform() < knobs.wipe_probability)
            wipe = wipe and wipes < knobs.max_wipes
            wipes += int(wipe)
            events.append(
                ChaosEvent("crash", float(at), duration, (victim,), wipe=wipe)
            )
        for at in _window_times(knobs.skew_rate):
            victim = str(rng.choice(shard_ids))
            offset = float(
                rng.uniform(-knobs.max_clock_skew, knobs.max_clock_skew)
            )
            events.append(
                ChaosEvent(
                    "skew", float(at), horizon - at, (victim,), offset=offset
                )
            )
        # Storage faults ride on crash events: always draw both coins
        # per crash, in event-creation order, *after* every legacy draw
        # (stream stability — old seeds reproduce old schedules
        # exactly, with or without storage faults enabled).  Torn and
        # corrupted WAL frames shed acknowledged log suffix on recovery,
        # so they draw from the same tolerance budget as wipes —
        # otherwise correlated corruption could annihilate a full write
        # quorum, which no recovery protocol could survive.  Snapshot
        # corruption is detection-only (the log itself survives) and is
        # never budgeted; over-budget destructive draws degrade to it.
        fault_kinds = ("torn", "corrupt", "snapshot")
        lossy = wipes
        for index, event in enumerate(events):
            if event.kind != "crash":
                continue
            hit = bool(rng.uniform() < knobs.storage_fault_probability)
            kind_index = int(rng.integers(0, len(fault_kinds)))
            if not hit or event.wipe:
                continue
            kind = fault_kinds[kind_index]
            if kind in ("torn", "corrupt"):
                if lossy >= knobs.max_wipes:
                    kind = "snapshot"
                else:
                    lossy += 1
            events[index] = replace(event, storage_fault=kind)
        events.sort(key=lambda e: (e.at, e.kind, e.targets))
        return cls(
            events=events,
            link_faults=knobs.link_faults.scaled(intensity),
            horizon=float(horizon),
            intensity=float(intensity),
        )

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {
            "partition": 0, "crash": 0, "wipe": 0, "skew": 0, "storage": 0
        }
        for event in self.events:
            tally[event.kind] += 1
            if event.kind == "crash" and event.wipe:
                tally["wipe"] += 1
            if event.kind == "crash" and event.storage_fault:
                tally["storage"] += 1
        return tally

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChaosPlan(intensity={self.intensity}, horizon={self.horizon}, "
            f"events={self.counts()})"
        )


class ChaosController:
    """Installs a :class:`ChaosPlan` onto a simulated cluster.

    Faults on the same shard are reference-counted: a shard isolated by
    two overlapping partitions reconnects only when both heal, and a
    shard crashed twice restarts only when the later window closes.
    """

    def __init__(self, cluster, plan: ChaosPlan):
        self.cluster = cluster
        self.plan = plan
        self._severed: Dict[str, int] = {}
        self._down: Dict[str, int] = {}
        self._pending_wipe: Dict[str, bool] = {}
        self._pending_fault: Dict[str, str] = {}
        self.records_lost = 0
        self.faults_applied: Dict[str, int] = {
            "partition": 0, "crash": 0, "wipe": 0, "skew": 0, "storage": 0
        }
        # Storage faults that actually landed, as (shard_id, kind, at)
        # — the checker demands detection evidence for exactly these.
        self.storage_faults: List[Tuple[str, str, float]] = []

    def install(self) -> None:
        sim = self.cluster.simulator
        if not self.plan.link_faults.quiet:
            self.plan.link_faults.apply(self.cluster.network)
        for event in self.plan.events:
            if event.kind == "partition":
                sim.schedule_at(event.at, self._start_partition, event)
                sim.schedule_at(event.ends_at, self._end_partition, event)
            elif event.kind == "crash":
                sim.schedule_at(event.at, self._start_crash, event)
                sim.schedule_at(event.ends_at, self._end_crash, event)
            elif event.kind == "skew":
                sim.schedule_at(event.at, self._start_skew, event)
            else:  # pragma: no cover - plan generation is exhaustive
                raise ValueError(f"unknown chaos event kind {event.kind!r}")
        sim.schedule_at(self.plan.horizon, self.heal_everything)

    # -- event application ---------------------------------------------------------

    def _start_partition(self, event: ChaosEvent) -> None:
        self.faults_applied["partition"] += 1
        for shard_id in event.targets:
            if self._severed.get(shard_id, 0) == 0:
                self.cluster.isolate_shards([shard_id])
            self._severed[shard_id] = self._severed.get(shard_id, 0) + 1

    def _end_partition(self, event: ChaosEvent) -> None:
        for shard_id in event.targets:
            remaining = self._severed.get(shard_id, 0) - 1
            self._severed[shard_id] = max(remaining, 0)
            if remaining <= 0:
                self.cluster.reconnect_shards([shard_id])

    def _start_crash(self, event: ChaosEvent) -> None:
        (shard_id,) = event.targets
        self.faults_applied["crash"] += 1
        if event.wipe:
            self.faults_applied["wipe"] += 1
        if self._down.get(shard_id, 0) == 0:
            self.cluster.kill_shard(shard_id)
        self._down[shard_id] = self._down.get(shard_id, 0) + 1
        # A wipe anywhere in an overlapping pile-up still loses the disk.
        self._pending_wipe[shard_id] = (
            self._pending_wipe.get(shard_id, False) or event.wipe
        )
        if event.storage_fault:
            self._pending_fault[shard_id] = event.storage_fault

    def _restart(self, shard_id: str) -> None:
        """Restart one shard, applying any pending storage damage first."""
        wipe = self._pending_wipe.pop(shard_id, False)
        fault = self._pending_fault.pop(shard_id, "")
        if fault and not wipe:
            if self.cluster.inject_storage_fault(shard_id, fault):
                self.faults_applied["storage"] += 1
                self.storage_faults.append(
                    (shard_id, fault, self.cluster.simulator.now)
                )
        self.records_lost += self.cluster.restart_shard(shard_id, wipe=wipe)

    def _end_crash(self, event: ChaosEvent) -> None:
        (shard_id,) = event.targets
        remaining = self._down.get(shard_id, 0) - 1
        self._down[shard_id] = max(remaining, 0)
        if remaining <= 0:
            self._restart(shard_id)

    def _start_skew(self, event: ChaosEvent) -> None:
        (shard_id,) = event.targets
        self.faults_applied["skew"] += 1
        self.cluster.skew_clock(shard_id, event.offset)

    # -- the heal barrier -----------------------------------------------------------

    def heal_everything(self) -> None:
        """Reconnect, restart and de-skew everything; lift link faults.

        Scheduled at the plan horizon so the convergence phase measures
        the *system's* repair machinery, not lingering injected faults.
        """
        LinkFaultProfile.clear(self.cluster.network)
        self.cluster.reconnect_shards(list(self.cluster.shards))
        for shard_id in self.cluster.shards:
            if self._down.get(shard_id, 0) > 0:
                self._restart(shard_id)
            self.cluster.skew_clock(shard_id, 0.0)
        self._severed.clear()
        self._down.clear()
