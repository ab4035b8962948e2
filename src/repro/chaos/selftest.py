"""Checker self-test: seed a deliberate bug, demand a red report.

A consistency checker that has never caught anything might be green
because the system is correct — or because the checker is vacuous.
This module removes the doubt by *sabotaging* the replication layer
with a classic last-writer-wins mistake and confirming the checker
flags it.

The bug: :meth:`~repro.cluster.shard.ClusterShard.apply_state` drops
its monotonic-epoch guard and becomes **last-arrival-wins** — whatever
``apply_state`` message lands last is adopted, regardless of epoch.
That is exactly the bug duplicated or reordered replication traffic
exposes: a stale duplicate of an old epoch arriving after a newer flip
silently resurrects revoked content.

The scenario is deterministic rather than stochastic (read repair can
mask a randomly-injected regression before the checker looks): claim,
revoke (epoch 1), unrevoke (epoch 2), revoke (epoch 3), then hand the
primary replica a delayed duplicate of the epoch-2 ``apply_state``.
Correct code ignores it; the sabotaged code rolls the primary back to
"valid", and the next primary read returns resurrected content.  The
self-test runs the scenario twice — clean and sabotaged — and passes
only if the clean run is violation-free *and* the sabotaged run trips
both the durability and the convergence invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.chaos.checker import CheckReport, ConsistencyChecker
from repro.chaos.history import HistoryRecorder
from repro.core.errors import RevocationError
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.ledger.records import RevocationState
from repro.cluster.assembly import LocalCluster
from repro.cluster.frontend import ClusterConfig
from repro.cluster.shard import ClusterShard

__all__ = ["install_lww_bug", "run_selftest", "SelftestResult"]


def _last_arrival_wins(shard: ClusterShard):
    """The buggy ``apply_state``: adopts whatever arrived last."""

    def apply_state(payload: Dict) -> Dict:
        serial = payload["serial"]
        record = shard.ledger.store.get(serial)
        if record is None:
            raise RevocationError(
                f"cannot apply state to unknown serial {serial}"
            )
        # BUG (deliberate): no `epoch <= record.revocation_epoch` guard.
        record.state = RevocationState(payload["state"])
        record.revocation_epoch = payload["epoch"]
        shard.states_applied += 1
        return {"applied": True, "epoch": payload["epoch"]}

    return apply_state


def install_lww_bug(cluster) -> None:
    """Sabotage every shard of ``cluster`` with last-arrival-wins.

    Works on any cluster assembly.  Netsim endpoints capture bound methods
    at registration time, so when the cluster has ``.endpoints`` the
    handler table is rewired too.
    """
    for shard_id, shard in cluster.shards.items():
        buggy = _last_arrival_wins(shard)
        shard.apply_state = buggy
        endpoints = getattr(cluster, "endpoints", None)
        if endpoints is not None:
            endpoints[shard_id]._handlers["apply_state"] = buggy


@dataclass
class SelftestResult:
    """Clean-vs-sabotaged verdict pair."""

    clean: CheckReport
    buggy: CheckReport

    @property
    def detected(self) -> bool:
        """True iff the checker is discriminating, not vacuous."""
        return (
            self.clean.ok
            and self.buggy.count("revocation_durability") > 0
            and self.buggy.count("divergence") > 0
        )


def _run_scenario(seed: int, sabotage: bool) -> CheckReport:
    # First answer wins (read_quorum=1): the weakest read the config
    # allows, which is what lets the resurrected primary answer
    # alone — a quorum read would paper over the bug.
    cluster = LocalCluster(
        3,
        config=ClusterConfig(replication_factor=3, read_quorum=1),
        seed=seed,
        cluster_id="selftest",
    )
    frontend, clock = cluster.frontend, cluster.manual_clock
    recorder = HistoryRecorder(clock=clock.now)
    frontend.observer = recorder
    owner = KeyPair.generate(bits=512, rng=cluster.rngs.stream("owner"))
    if sabotage:
        install_lww_bug(cluster)

    content_hash = sha256_hex(b"selftest:photo")
    signature = owner.sign(content_hash.encode("utf-8"))
    identifier = frontend.claim(content_hash, signature, owner.public)

    def _step(action) -> None:
        clock.advance(1.0)
        action()
        clock.advance(1.0)
        frontend.status(identifier)

    _step(lambda: frontend.revoke(identifier, owner))     # epoch 1
    _step(lambda: frontend.unrevoke(identifier, owner))   # epoch 2
    _step(lambda: frontend.revoke(identifier, owner))     # epoch 3

    # The delayed duplicate: a replication message from the epoch-2
    # unrevoke, arriving at the primary long after epoch 3 committed.
    clock.advance(1.0)
    primary = frontend.replicas_for(identifier)[0]
    cluster.transport.invoke(
        primary,
        "apply_state",
        {
            "serial": identifier.serial,
            "state": RevocationState.NOT_REVOKED.value,
            "epoch": 2,
        },
        lambda reply: None,
    )

    # The read that matters: a primary read after the duplicate landed.
    clock.advance(1.0)
    frontend.status(identifier)

    return ConsistencyChecker(placement=cluster.placement).check(
        recorder,
        replica_states=cluster.replica_states(),
        live_shards=sorted(cluster.shards),
    )


def run_selftest(seed: int = 0) -> SelftestResult:
    """Run the scenario clean and sabotaged; see :class:`SelftestResult`."""
    return SelftestResult(
        clean=_run_scenario(seed, sabotage=False),
        buggy=_run_scenario(seed, sabotage=True),
    )
