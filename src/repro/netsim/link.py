"""Links and the network fabric.

A :class:`Link` joins two nodes with a one-way latency model per
direction (symmetric by default) and optional bandwidth, used to model
transfer time for sized payloads.  :class:`Network` is the fabric: it
owns links, resolves routes (direct links only -- the IRS topology is a
star around proxies/ledgers, no multi-hop routing needed), and delivers
messages by scheduling simulator events.

Beyond latency, a link is the fault-injection surface for the chaos
harness (:mod:`repro.chaos`): every message may independently be lost
(``loss_probability``), duplicated (``duplicate_probability`` — the
copy travels with its own sampled delay), or reordered
(``reorder_probability`` adds up to ``reorder_delay`` seconds, pushing
the message behind later traffic), and a ``severed`` link drops
everything — the primitive partitions are built from.  All fault coins
are drawn from the network's RNG stream only when the corresponding
probability is non-zero, so a fault-free run consumes the identical
random sequence it always did.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.netsim.latency import LatencyModel
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator

__all__ = ["Link", "Network", "NetworkError"]


class NetworkError(Exception):
    """Raised on unknown nodes or missing links."""


class Link:
    """A bidirectional link between two named nodes.

    Parameters
    ----------
    latency:
        One-way delay model applied to every message.
    bandwidth_bps:
        Optional bandwidth in bits/second; adds ``size_bytes * 8 /
        bandwidth`` of serialization delay for sized messages.
    """

    def __init__(
        self,
        a: str,
        b: str,
        latency: LatencyModel,
        bandwidth_bps: Optional[float] = None,
        loss_probability: float = 0.0,
    ):
        if a == b:
            raise NetworkError("links must join distinct nodes")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise NetworkError("bandwidth must be positive")
        self.a, self.b = a, b
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss_probability = 0.0
        self.duplicate_probability = 0.0
        self.reorder_probability = 0.0
        self.reorder_delay = 0.01
        self.severed = False
        self.set_faults(loss=loss_probability)
        self.messages_carried = 0
        self.messages_dropped = 0
        self.messages_severed = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        self.bytes_carried = 0

    def set_faults(
        self,
        loss: Optional[float] = None,
        duplicate: Optional[float] = None,
        reorder: Optional[float] = None,
        reorder_delay: Optional[float] = None,
    ) -> None:
        """(Re)configure this link's per-message fault probabilities.

        ``None`` leaves a knob unchanged, so fault profiles can be
        applied and lifted incrementally by the chaos controller.
        """
        for name, value in (
            ("loss", loss), ("duplicate", duplicate), ("reorder", reorder)
        ):
            if value is not None and not 0.0 <= value < 1.0:
                raise NetworkError(f"{name} probability must be in [0, 1)")
        if reorder_delay is not None and reorder_delay < 0:
            raise NetworkError("reorder delay cannot be negative")
        if loss is not None:
            self.loss_probability = float(loss)
        if duplicate is not None:
            self.duplicate_probability = float(duplicate)
        if reorder is not None:
            self.reorder_probability = float(reorder)
        if reorder_delay is not None:
            self.reorder_delay = float(reorder_delay)

    def sever(self) -> None:
        """Cut the link: every message is dropped until :meth:`heal`."""
        self.severed = True

    def heal(self) -> None:
        self.severed = False

    def transfer_delay(self, rng: np.random.Generator, size_bytes: int = 0) -> float:
        delay = self.latency.sample(rng)
        if self.bandwidth_bps is not None and size_bytes > 0:
            delay += size_bytes * 8.0 / self.bandwidth_bps
        return delay

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)


class Network:
    """The message fabric joining nodes with links."""

    def __init__(self, simulator: Simulator, rng: np.random.Generator):
        self.simulator = simulator
        self._rng = rng
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[frozenset, Link] = {}

    # -- topology ---------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def connect(
        self,
        a: str,
        b: str,
        latency: LatencyModel,
        bandwidth_bps: Optional[float] = None,
        loss_probability: float = 0.0,
    ) -> Link:
        for name in (a, b):
            if name not in self._nodes:
                raise NetworkError(f"unknown node {name!r}")
        key = frozenset((a, b))
        if key in self._links:
            raise NetworkError(f"link {a!r}<->{b!r} already exists")
        link = Link(a, b, latency, bandwidth_bps, loss_probability)
        self._links[key] = link
        return link

    def link_between(self, a: str, b: str) -> Link:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> Iterator[Link]:
        """All links, in creation order (deterministic)."""
        return iter(self._links.values())

    # -- delivery -----------------------------------------------------------------

    def star(
        self,
        center: str,
        leaves: list,
        latency: LatencyModel,
        bandwidth_bps: Optional[float] = None,
    ) -> list:
        """Connect ``center`` to every leaf — the IRS bootstrap shape
        (browsers around a proxy; proxies around ledgers)."""
        return [
            self.connect(center, leaf, latency, bandwidth_bps) for leaf in leaves
        ]

    def deliver(
        self,
        src: str,
        dst: str,
        handler: Callable,
        *args,
        size_bytes: int = 0,
    ) -> Optional[float]:
        """Schedule ``handler(*args)`` at ``dst`` after link delay.

        Returns the sampled delay, or None when the link dropped the
        message (``handler`` then never runs — loss is silent, as on a
        real network; recovery is the transport layer's job).  A severed
        link drops everything; duplication schedules a second,
        independently delayed arrival; reordering adds extra delay so
        the message can land behind later traffic.
        """
        link = self.link_between(src, dst)
        self._nodes[src].messages_sent += 1
        if link.severed:
            link.messages_severed += 1
            return None
        if link.loss_probability > 0.0 and self._rng.uniform() < link.loss_probability:
            link.messages_dropped += 1
            return None
        delay = link.transfer_delay(self._rng, size_bytes)
        if (
            link.reorder_probability > 0.0
            and self._rng.uniform() < link.reorder_probability
        ):
            delay += self._rng.uniform(0.0, link.reorder_delay)
            link.messages_reordered += 1
        link.messages_carried += 1
        link.bytes_carried += size_bytes

        def _arrive():
            self._nodes[dst].messages_received += 1
            handler(*args)

        self.simulator.schedule(delay, _arrive)
        if (
            link.duplicate_probability > 0.0
            and self._rng.uniform() < link.duplicate_probability
        ):
            link.messages_duplicated += 1
            link.messages_carried += 1
            self.simulator.schedule(
                link.transfer_delay(self._rng, size_bytes), _arrive
            )
        return delay
