"""Tests for topology helpers."""

import numpy as np
import pytest

from repro.netsim.latency import ConstantLatency
from repro.netsim.link import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator


@pytest.fixture()
def star_network():
    sim = Simulator()
    net = Network(sim, np.random.default_rng(1))
    net.add_node(Node("proxy", sim))
    leaves = [f"browser-{i}" for i in range(5)]
    for leaf in leaves:
        net.add_node(Node(leaf, sim))
    net.star("proxy", leaves, ConstantLatency(0.01))
    return sim, net, leaves


class TestStarHelper:
    def test_all_leaves_connected(self, star_network):
        _, net, leaves = star_network
        for leaf in leaves:
            assert net.link_between("proxy", leaf) is not None

    def test_leaves_not_interconnected(self, star_network):
        from repro.netsim.link import NetworkError

        _, net, leaves = star_network
        with pytest.raises(NetworkError):
            net.link_between(leaves[0], leaves[1])

    def test_traffic_flows_over_star(self, star_network):
        sim, net, leaves = star_network
        received = []
        for leaf in leaves:
            net.deliver(leaf, "proxy", received.append, leaf)
        sim.run()
        assert sorted(received) == sorted(leaves)
