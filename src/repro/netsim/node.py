"""Simulation nodes.

A :class:`Node` is a named participant (browser, proxy, ledger,
aggregator) attached to a simulator.  Service logic lives in RPC
handlers registered on the node's endpoint (:mod:`repro.netsim.transport`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.simulator import Simulator

__all__ = ["Node"]


class Node:
    """A named simulation participant.

    Subclasses (or composition) add behaviour; the base class carries
    identity, the simulator handle, and simple send/receive counters.
    """

    def __init__(self, name: str, simulator: "Simulator"):
        if not name:
            raise ValueError("node name must be non-empty")
        self.name = name
        self.simulator = simulator
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def now(self) -> float:
        return self.simulator.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.name!r})"
