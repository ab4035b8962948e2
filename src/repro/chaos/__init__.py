"""Deterministic chaos engineering for the cluster subsystem.

Everything here is seed-reproducible: a :class:`ChaosPlan` is drawn up
front from a named RNG stream, installed onto a simulated cluster as
plain simulator timers, and the resulting client-visible history is
audited by a :class:`ConsistencyChecker` against the invariants global
revocation lives by — monotonic epochs, revocation durability, and
post-heal convergence.  :func:`run_chaos` is the one-call driver; the
:mod:`~repro.chaos.selftest` proves the checker is not vacuous.
"""

from repro.chaos.checker import (
    CheckReport,
    ConsistencyChecker,
    Violation,
    state_digest,
)
from repro.chaos.faults import LinkFaultProfile
from repro.chaos.history import HistoryRecorder, Op
from repro.chaos.plan import ChaosController, ChaosEvent, ChaosKnobs, ChaosPlan
from repro.chaos.runner import ChaosReport, run_chaos
from repro.chaos.resilience import (
    POLICIES,
    REFERENCE_DEADLINE,
    ResilienceReport,
    resilience_config,
    run_resilient_chaos,
)
from repro.chaos.selftest import SelftestResult, install_lww_bug, run_selftest
from repro.chaos.durability import (
    DurabilitySelftestResult,
    install_blind_recovery,
    install_replay_divergence,
    run_durability_selftest,
)

__all__ = [
    "CheckReport",
    "ConsistencyChecker",
    "Violation",
    "state_digest",
    "LinkFaultProfile",
    "HistoryRecorder",
    "Op",
    "ChaosController",
    "ChaosEvent",
    "ChaosKnobs",
    "ChaosPlan",
    "ChaosReport",
    "run_chaos",
    "POLICIES",
    "REFERENCE_DEADLINE",
    "ResilienceReport",
    "resilience_config",
    "run_resilient_chaos",
    "SelftestResult",
    "install_lww_bug",
    "run_selftest",
    "DurabilitySelftestResult",
    "install_blind_recovery",
    "install_replay_divergence",
    "run_durability_selftest",
]
