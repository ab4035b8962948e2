"""Link-level fault primitives: loss, duplication, reorder, sever."""

import numpy as np
import pytest

from repro.chaos.faults import LinkFaultProfile
from repro.netsim.latency import lan_latency
from repro.netsim.link import Network, NetworkError
from repro.netsim.node import Node
from repro.netsim.simulator import ManualClock, Simulator, SkewedClock


def _network(*names, seed=0):
    sim = Simulator()
    net = Network(sim, np.random.default_rng(seed))
    for name in names:
        net.add_node(Node(name, sim))
    return sim, net


def _blast(sim, net, count, collect):
    for i in range(count):
        net.deliver("a", "b", collect, i)
    sim.run()


class TestLinkFaults:
    def test_fault_free_link_delivers_everything(self):
        sim, net = _network("a", "b")
        net.connect("a", "b", lan_latency())
        arrived = []
        _blast(sim, net, 50, arrived.append)
        assert len(arrived) == 50

    def test_duplication_delivers_extra_copies(self):
        sim, net = _network("a", "b")
        link = net.connect("a", "b", lan_latency())
        link.set_faults(duplicate=0.9)
        arrived = []
        _blast(sim, net, 100, arrived.append)
        assert len(arrived) > 100
        assert link.messages_duplicated == len(arrived) - 100
        # Duplicates are copies of real messages, not inventions.
        assert sorted(set(arrived)) == list(range(100))

    def test_loss_drops_messages_silently(self):
        sim, net = _network("a", "b")
        link = net.connect("a", "b", lan_latency())
        link.set_faults(loss=0.9)
        arrived = []
        _blast(sim, net, 100, arrived.append)
        assert len(arrived) < 50
        assert link.messages_dropped == 100 - len(arrived)

    def test_reorder_shuffles_delivery_order(self):
        # Constant latency: without the fault, arrival order is exactly
        # send order (the simulator breaks ties by sequence number).
        from repro.netsim.latency import ConstantLatency

        sim, net = _network("a", "b")
        link = net.connect("a", "b", ConstantLatency(0.001))
        arrived = []
        _blast(sim, net, 60, arrived.append)
        assert arrived == list(range(60))
        arrived.clear()
        link.set_faults(reorder=0.5, reorder_delay=0.5)
        arrived = []
        _blast(sim, net, 60, arrived.append)
        # Everything arrives (reorder delays, never drops)...
        assert sorted(arrived) == list(range(60))
        # ...but no longer in send order.
        assert arrived != list(range(60))
        assert link.messages_reordered > 0

    def test_severed_link_drops_everything_until_heal(self):
        sim, net = _network("a", "b")
        link = net.connect("a", "b", lan_latency())
        link.sever()
        arrived = []
        _blast(sim, net, 10, arrived.append)
        assert arrived == []
        assert link.messages_severed == 10
        link.heal()
        _blast(sim, net, 10, arrived.append)
        assert len(arrived) == 10

    def test_fault_probabilities_validated(self):
        sim, net = _network("a", "b")
        link = net.connect("a", "b", lan_latency())
        with pytest.raises(NetworkError):
            link.set_faults(loss=1.0)
        with pytest.raises(NetworkError):
            link.set_faults(duplicate=-0.1)
        with pytest.raises(NetworkError):
            link.set_faults(reorder_delay=-1.0)

    def test_set_faults_leaves_unnamed_knobs_alone(self):
        sim, net = _network("a", "b")
        link = net.connect("a", "b", lan_latency())
        link.set_faults(loss=0.1, duplicate=0.2)
        link.set_faults(reorder=0.3)
        assert link.loss_probability == 0.1
        assert link.duplicate_probability == 0.2
        assert link.reorder_probability == 0.3


class TestLinkFaultProfile:
    def test_scaled_and_quiet(self):
        profile = LinkFaultProfile(loss=0.2, duplicate=0.4, reorder=0.6)
        half = profile.scaled(0.5)
        assert half.loss == pytest.approx(0.1)
        assert half.duplicate == pytest.approx(0.2)
        assert half.reorder == pytest.approx(0.3)
        assert profile.scaled(0.0).quiet
        assert not profile.quiet
        # Scaling clips below 1.0 (probability, not a rate).
        assert profile.scaled(10.0).loss == 0.99

    def test_apply_and_clear_touch_every_link(self):
        sim, net = _network("a", "b", "c")
        net.connect("a", "b", lan_latency())
        net.connect("a", "c", lan_latency())
        LinkFaultProfile(loss=0.05, duplicate=0.1).apply(net)
        assert all(link.loss_probability == 0.05 for link in net.links())
        LinkFaultProfile.clear(net)
        assert all(link.loss_probability == 0.0 for link in net.links())
        assert all(link.duplicate_probability == 0.0 for link in net.links())


class TestSkewedClock:
    def test_offset_shifts_the_base_clock(self):
        base = ManualClock()
        skewed = SkewedClock(base.now, offset=5.0)
        assert skewed.now() == 5.0
        base.advance(2.0)
        assert skewed.now() == 7.0
        skewed.offset = -1.0
        assert skewed.now() == 1.0
