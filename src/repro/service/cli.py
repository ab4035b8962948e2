"""``python -m repro serve``: the cluster + HTTP server, until interrupted.

What a client may expect of each reply is held by the reference model
in ``tests/service/model.py``, which tier-1's state machine and bench
E21 drive; none of that client code lives in ``src/``.
"""

from __future__ import annotations

import argparse
import asyncio

# Finished spans the served process keeps: the most recent few thousand
# are what a debugger attached to a live server can use; keeping them
# all grows the heap with every request served.
SERVED_SPAN_RING = 4096

__all__ = ["add_serve_arguments", "run_serve"]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks an ephemeral port (default 8080)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="number of shards (default 4)"
    )
    parser.add_argument(
        "--replication", type=int, default=3,
        help="replicas per record, capped at the shard count (default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed for keys and the seeded population (default 0)",
    )
    parser.add_argument(
        "--populate", type=int, default=0,
        help="seed N synthetic claims at startup (default 0)",
    )
    parser.add_argument(
        "--revoked-fraction", type=float, default=0.2,
        help="fraction of the seeded population born revoked (default 0.2)",
    )
    parser.add_argument(
        "--deadline", type=float, default=0.25,
        help="frontend request deadline in seconds (default 0.25, §4.4)",
    )
    parser.add_argument(
        "--shed-rate", type=float, default=None,
        help="token-bucket admission rate in req/s (default: no shedding)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="disable degraded Bloom reads: quorum-dark answers become 503",
    )


def run_serve(args: argparse.Namespace) -> int:
    from repro.cluster.frontend import ClusterConfig
    from repro.obs import Observability
    from repro.service.app import ServiceApp, ServiceServer
    from repro.service.cluster import LiveCluster

    for name in ("shards", "replication"):
        if getattr(args, name) < 1:
            raise SystemExit(
                f"python -m repro serve: --{name} must be at least 1"
            )
    config = ClusterConfig.full(
        min(args.replication, args.shards),
        request_deadline=args.deadline,
        shed_rate=args.shed_rate,
        degraded_reads=not args.strict,
    )

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        obs = Observability(clock=loop.time, retain_spans=SERVED_SPAN_RING)
        cluster = LiveCluster(args.shards, config=config, seed=args.seed, obs=obs)
        app = ServiceApp(cluster=cluster, obs=obs)
        if args.populate > 0:
            app.adopt_population(
                cluster.seed_population(
                    args.populate, revoked_fraction=args.revoked_fraction
                )
            )
        server = ServiceServer(app, host=args.host, port=args.port)
        host, port = await server.start()
        print(f"serving on http://{host}:{port}")
        print(
            f"  cluster: {args.shards} shard(s), "
            f"replication {config.replication_factor}, "
            f"deadline {args.deadline:g}s, "
            f"degraded reads {'off' if args.strict else 'on'}"
        )
        if args.populate:
            print(
                f"  population: {args.populate} seeded claims "
                f"({args.revoked_fraction:.0%} revoked)"
            )
        print("  endpoints: see docs/api.md; GET /healthz to probe")
        try:
            await asyncio.Event().wait()  # serve until interrupted
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0
