"""The netsim adapter: the cluster as simulated nodes on simulated time.

:class:`SimulatedCluster` is the :class:`~repro.cluster.assembly.Cluster`
assembly run inside the discrete-event simulator: each shard is a
:class:`~repro.netsim.node.Node` with an
:class:`~repro.netsim.transport.RpcEndpoint` serving the shard
protocol, the frontend is a node with links to every shard, and the
:class:`NetsimShardTransport` adapts the callback RPC layer to the
:class:`~repro.cluster.replication.ShardTransport` interface the
frontend coordinates over.  Only what is netsim-specific lives here:
the network, link partitions, per-shard clock skew, the shard cost
model and the optional handler spans.

Shards run the endpoint's *serial-server* cost model: a status batch
occupies its shard for ``batch_overhead + per_item * len(batch)``
seconds, so a shard has a measurable capacity ceiling and adding shards
visibly moves the throughput and tail-latency curves — the E17
experiment.  Faults are first-class: :meth:`SimulatedCluster.kill_shard`
silences a shard's endpoint (requests delivered, never answered), which
callers only discover through RPC timeouts, exercising the failure
detector and quorum failover exactly as a crashed process would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.netsim.latency import lan_latency
from repro.netsim.link import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator, SkewedClock
from repro.netsim.transport import RpcEndpoint
from repro.cluster.assembly import Cluster
from repro.cluster.frontend import ClusterConfig
from repro.cluster.replication import ShardReply, clamp_rpc_timeout
from repro.cluster.shard import ClusterShard
from repro.obs import Observability

__all__ = ["SimulatedCluster", "NetsimShardTransport", "ShardCostModel"]


@dataclass
class ShardCostModel:
    """Per-request shard occupancy (the serial-server cost function).

    Defaults model a small key-value service: ~50 us fixed overhead per
    request plus ~120 us of signing/lookup per status item, i.e. a
    single shard saturates around 6-8k status items/second.  Every
    status item is charged that signed price, including the ones a
    quorum read asks only ``state`` + ``epoch`` of: the model predates
    one-signer reads and is kept as it was, so that a shift in the
    simulated experiments' CSVs is the protocol's doing, not the
    price list's.
    """

    request_overhead: float = 50e-6
    per_status_item: float = 120e-6
    per_write: float = 500e-6

    def cost(self, method: str, payload: Any) -> float:
        if method == "status":
            return self.request_overhead + self.per_status_item * len(
                payload["serials"]
            )
        if method in ("claim", "revoke", "unrevoke", "apply_state", "install_record"):
            return self.request_overhead + self.per_write
        return self.request_overhead


class NetsimShardTransport:
    """ShardTransport over netsim RPC endpoints.

    Callers may pass a per-call ``timeout`` and the effective RPC
    timeout shrinks to fit it — deadline propagation reaching the wire.
    """

    def __init__(
        self,
        frontend_node: str,
        endpoints: Dict[str, RpcEndpoint],
        timeout: float,
        retries: int = 0,
    ):
        self._frontend_node = frontend_node
        self._endpoints = endpoints
        self.timeout = timeout
        self.retries = retries
        self.calls = 0

    def shard_ids(self) -> List[str]:
        return sorted(self._endpoints)

    def kill(self, shard_id: str) -> None:
        """Silence the endpoint: requests are delivered, never answered."""
        self._endpoints[shard_id].down = True

    def revive(self, shard_id: str) -> None:
        self._endpoints[shard_id].down = False

    def invoke(
        self,
        shard_id: str,
        method: str,
        payload: Any,
        callback: Callable[[ShardReply], None],
        timeout: Optional[float] = None,
    ) -> None:
        self.calls += 1
        endpoint = self._endpoints.get(shard_id)
        if endpoint is None:
            callback(ShardReply(shard_id, error=f"unknown shard {shard_id!r}"))
            return

        def _on_result(result) -> None:
            if result.ok:
                callback(ShardReply(shard_id, value=result.value))
            else:
                callback(ShardReply(shard_id, error=str(result.error)))

        endpoint.call(
            self._frontend_node,
            method,
            payload,
            _on_result,
            request_bytes=256,
            response_bytes=512,
            timeout=clamp_rpc_timeout(self.timeout, timeout),
            retries=self.retries,
        )


class SimulatedCluster(Cluster):
    """A full cluster inside one discrete-event simulation.

    Parameters
    ----------
    num_shards / config:
        Ring size and replication/resilience configuration.
    seed:
        Root seed; everything (keys, latencies, workloads drawing from
        :attr:`rngs`) derives from it.
    rpc_timeout / rpc_retries:
        Transport-level failure semantics; the timeout bounds how long
        a dead replica can stall a quorum.
    instrument:
        When True, builds an :class:`~repro.obs.Observability` over the
        *simulation* clock (``self.obs``), hands it to the frontend and
        its resilience machinery, and wraps every shard RPC handler in
        a ``shard.<method>`` span plus ``shard_requests_total`` counter.
        The obs clock is created here, not passed in, so spans and the
        event schedule can never disagree about the time base.  Default
        False: ``self.obs is None`` and nothing is instrumented.
    durable:
        Default True: every shard writes its chain to a simulated disk
        that cuts its own snapshots, and restarts recover from it.

    Frontend<->shard links have LAN latency (the cluster is one
    operator's deployment), shards are priced by
    :class:`ShardCostModel`, and the failure detector suspects after 2
    consecutive timeouts and probes every 5 s.
    """

    def __init__(
        self,
        num_shards: int,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        cluster_id: str = "cluster",
        rpc_timeout: float = 0.25,
        rpc_retries: int = 0,
        filterset=None,
        instrument: bool = False,
        durable: bool = True,
    ):
        self.simulator = Simulator()
        clock = self.simulator.clock().now
        cost_model = ShardCostModel()
        self.frontend_name = "frontend"
        self.endpoints: Dict[str, RpcEndpoint] = {}
        # Per-shard clocks: same simulated time base, individually
        # skewable by the chaos harness (clock-drift faults).
        self.shard_clocks: Dict[str, SkewedClock] = {}

        def shard_clock(shard_id: str) -> Callable[[], float]:
            self.shard_clocks[shard_id] = SkewedClock(clock)
            return self.shard_clocks[shard_id].now

        def wire(shards: Dict[str, ClusterShard]) -> NetsimShardTransport:
            self.network = Network(self.simulator, self.rngs.stream("net"))
            self.network.add_node(Node(self.frontend_name, self.simulator))
            latency = lan_latency()
            for shard_id, shard in shards.items():
                node = self.network.add_node(Node(shard_id, self.simulator))
                self.network.connect(self.frontend_name, shard_id, latency)
                endpoint = RpcEndpoint(node, self.network, cost_fn=cost_model.cost)
                for method, handler in shard.rpc_handlers().items():
                    if instrument:
                        handler = self._traced_handler(shard_id, method, handler)
                    endpoint.register(method, handler)
                self.endpoints[shard_id] = endpoint
            return NetsimShardTransport(
                self.frontend_name,
                self.endpoints,
                timeout=rpc_timeout,
                retries=rpc_retries,
            )

        super().__init__(
            num_shards,
            clock=clock,
            scheduler=self.simulator.schedule,
            transport_factory=wire,
            config=config,
            seed=seed,
            cluster_id=cluster_id,
            failure_threshold=2,
            probation=5.0,
            filterset=filterset,
            obs=Observability(clock) if instrument else None,
            durable=durable,
            shard_clock=shard_clock,
        )

    def _traced_handler(self, shard_id: str, method: str, handler):
        """Wrap one shard RPC handler in a span + request counter.

        Shard spans are roots (the frontend's batch span lives in a
        different callback frame) and have zero sim duration — service
        occupancy is charged by the endpoint's cost model, not inside
        the handler — but they still record *that* and *when* each
        request hit each replica, which is what the trace needs.
        """

        def _traced(payload):
            # repro-lint: allow[obs-purity] wrapper installed only when instrument=True built self.obs (register() call site)
            self.obs.counter(
                "shard_requests_total", shard=shard_id, method=method
            ).inc()
            # repro-lint: allow[obs-purity] wrapper installed only when instrument=True built self.obs (register() call site)
            span = self.obs.start(f"shard.{method}", shard=shard_id)
            try:
                result = handler(payload)
            except Exception as exc:
                span.status = "error"
                span.end(ok=False, error=str(exc))
                raise
            span.end(ok=True)
            return result

        return _traced

    # -- netsim-only faults -------------------------------------------------------

    def isolate_shards(self, shard_ids) -> None:
        """Sever the frontend links of ``shard_ids`` (a partition)."""
        for shard_id in shard_ids:
            self.network.link_between(self.frontend_name, shard_id).sever()

    def reconnect_shards(self, shard_ids) -> None:
        for shard_id in shard_ids:
            self.network.link_between(self.frontend_name, shard_id).heal()

    def skew_clock(self, shard_id: str, offset: float) -> None:
        """Drift one shard's local clock by ``offset`` seconds."""
        self.shard_clocks[shard_id].offset = float(offset)
