"""Tests for links, the network fabric, and RPC."""

import numpy as np
import pytest

from repro.netsim.latency import ConstantLatency
from repro.netsim.link import Link, Network, NetworkError
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.transport import RpcEndpoint, RpcResult


def _fabric(latency=0.01, bandwidth=None):
    sim = Simulator()
    net = Network(sim, np.random.default_rng(1))
    a = net.add_node(Node("a", sim))
    b = net.add_node(Node("b", sim))
    net.connect("a", "b", ConstantLatency(latency), bandwidth_bps=bandwidth)
    return sim, net, a, b


class TestTopology:
    def test_duplicate_node_rejected(self):
        sim = Simulator()
        net = Network(sim, np.random.default_rng(0))
        net.add_node(Node("a", sim))
        with pytest.raises(NetworkError):
            net.add_node(Node("a", sim))

    def test_unknown_node_rejected(self):
        sim = Simulator()
        net = Network(sim, np.random.default_rng(0))
        with pytest.raises(NetworkError):
            net.node("ghost")

    def test_self_link_rejected(self):
        with pytest.raises(NetworkError):
            Link("a", "a", ConstantLatency(0.01))

    def test_duplicate_link_rejected(self):
        sim, net, _, _ = _fabric()
        with pytest.raises(NetworkError):
            net.connect("a", "b", ConstantLatency(0.02))

    def test_missing_link_rejected(self):
        sim = Simulator()
        net = Network(sim, np.random.default_rng(0))
        net.add_node(Node("a", sim))
        net.add_node(Node("c", sim))
        with pytest.raises(NetworkError):
            net.link_between("a", "c")

    def test_empty_node_name_rejected(self):
        with pytest.raises(ValueError):
            Node("", Simulator())


class TestDelivery:
    def test_message_arrives_after_latency(self):
        sim, net, a, b = _fabric(latency=0.05)
        arrivals = []
        net.deliver("a", "b", lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.05)]

    def test_bandwidth_adds_serialization(self):
        sim, net, a, b = _fabric(latency=0.01, bandwidth=8e6)  # 1 MB/s
        arrivals = []
        net.deliver("a", "b", lambda: arrivals.append(sim.now), size_bytes=1_000_000)
        sim.run()
        assert arrivals == [pytest.approx(1.01)]

    def test_counters_update(self):
        sim, net, a, b = _fabric()
        net.deliver("a", "b", lambda: None, size_bytes=100)
        sim.run()
        assert a.messages_sent == 1
        assert b.messages_received == 1
        link = net.link_between("a", "b")
        assert link.messages_carried == 1
        assert link.bytes_carried == 100


class TestRpc:
    def test_request_response_roundtrip(self):
        sim, net, a, b = _fabric(latency=0.02)
        endpoint = RpcEndpoint(b, net)
        endpoint.register("echo", lambda payload: payload.upper())
        results: list[RpcResult] = []
        endpoint.call("a", "echo", "hello", results.append)
        sim.run()
        assert len(results) == 1
        assert results[0].unwrap() == "HELLO"
        assert results[0].rtt == pytest.approx(0.04)

    def test_unknown_method_is_error_result(self):
        sim, net, a, b = _fabric()
        endpoint = RpcEndpoint(b, net)
        results = []
        endpoint.call("a", "nope", None, results.append)
        sim.run()
        assert not results[0].ok
        with pytest.raises(Exception):
            results[0].unwrap()

    def test_handler_exception_isolated(self):
        sim, net, a, b = _fabric()
        endpoint = RpcEndpoint(b, net)

        def boom(payload):
            raise RuntimeError("ledger on fire")

        endpoint.register("boom", boom)
        results = []
        endpoint.call("a", "boom", None, results.append)
        sim.run()  # must not raise
        assert not results[0].ok
        assert "ledger on fire" in str(results[0].error)

    def test_service_time_adds_delay(self):
        sim, net, a, b = _fabric(latency=0.01)
        endpoint = RpcEndpoint(b, net, service_time=ConstantLatency(0.5))
        endpoint.register("work", lambda p: p)
        results = []
        endpoint.call("a", "work", 1, results.append)
        sim.run()
        assert results[0].rtt == pytest.approx(0.52)

    def test_duplicate_handler_rejected(self):
        sim, net, _, b = _fabric()
        endpoint = RpcEndpoint(b, net)
        endpoint.register("m", lambda p: p)
        with pytest.raises(ValueError):
            endpoint.register("m", lambda p: p)

    def test_concurrent_calls_interleave(self):
        sim, net, a, b = _fabric(latency=0.01)
        endpoint = RpcEndpoint(b, net)
        endpoint.register("id", lambda p: p)
        results = []
        for i in range(10):
            endpoint.call("a", "id", i, lambda r: results.append(r.unwrap()))
        sim.run()
        assert sorted(results) == list(range(10))
        assert endpoint.requests_served == 10
