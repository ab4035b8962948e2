"""Fault-injection primitives over the netsim fabric.

A thin helper on top of the per-link fault surface that
:class:`~repro.netsim.link.Link` exposes (loss, duplication, reorder):
a :class:`LinkFaultProfile` applies one message-level fault mix to
every link of a network.  Partitions go through
:meth:`~repro.cluster.simnet.SimulatedCluster.isolate_shards`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.netsim.link import Network

__all__ = ["LinkFaultProfile"]


@dataclass(frozen=True)
class LinkFaultProfile:
    """A message-level fault mix, applied uniformly to a network's links."""

    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 0.01

    def scaled(self, intensity: float) -> "LinkFaultProfile":
        """The profile with every probability scaled by ``intensity``."""
        if not 0.0 <= intensity:
            raise ValueError("intensity cannot be negative")
        return replace(
            self,
            loss=min(self.loss * intensity, 0.99),
            duplicate=min(self.duplicate * intensity, 0.99),
            reorder=min(self.reorder * intensity, 0.99),
        )

    @property
    def quiet(self) -> bool:
        return self.loss == self.duplicate == self.reorder == 0.0

    def apply(self, network: Network) -> None:
        for link in network.links():
            link.set_faults(
                loss=self.loss,
                duplicate=self.duplicate,
                reorder=self.reorder,
                reorder_delay=self.reorder_delay,
            )

    @staticmethod
    def clear(network: Network) -> None:
        for link in network.links():
            link.set_faults(loss=0.0, duplicate=0.0, reorder=0.0)
