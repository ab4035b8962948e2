"""``python -m repro serve`` / ``python -m repro loadgen``.

``serve`` stands the cluster + HTTP server up and runs until
interrupted.  ``loadgen`` drives a seeded open-loop burst against a
running server, checks the invariants and exits non-zero on any
violation; a serving process never imports it.
"""

from __future__ import annotations

import argparse
import asyncio

# Finished spans the served process keeps: the most recent few thousand
# are what a debugger attached to a live server can use; keeping them
# all grows the heap with every request served.
SERVED_SPAN_RING = 4096

__all__ = [
    "add_serve_arguments",
    "add_loadgen_arguments",
    "run_serve",
    "run_loadgen_cli",
]


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


def add_loadgen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="server address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8080, help="server port (default 8080)"
    )
    parser.add_argument(
        "--rate", type=float, default=100.0,
        help="open-loop arrival rate in req/s (default 100)",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds of scheduled arrivals (default 5)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; same seed, same schedule (default 0)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=250.0,
        help="X-Deadline-Ms on status reads (default 250, §4.4)",
    )
    parser.add_argument(
        "--warmup-claims", type=int, default=32,
        help="identifiers claimed before the measured window (default 32)",
    )
    parser.add_argument(
        "--connections", type=int, default=32,
        help="keep-alive connection pool size (default 32)",
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


def run_loadgen_cli(args: argparse.Namespace) -> int:
    if args.rate <= 0 or args.duration <= 0:
        raise SystemExit(
            "python -m repro loadgen: --rate and --duration must be positive"
        )

    from repro.service.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        host=args.host, port=args.port, rate=args.rate,
        duration=args.duration, seed=args.seed,
        deadline_ms=args.deadline_ms,
        warmup_claims=args.warmup_claims, connections=args.connections,
    )
    report = asyncio.run(run_loadgen(config))
    print(report.table().render())
    kinds = report.kind_counts()
    if kinds:
        print(f"  error kinds: {kinds}")
    print(
        f"  answered: {report.answered_fraction():.1%} of "
        f"{len(report.samples)} requests; "
        f"{len(report.revoked_ids)} revocations acked"
    )
    if report.violations:
        print(f"  invariants: {len(report.violations)} violation(s)")
        for violation in report.violations:
            print(f"    {violation}")
        return 1
    print("  invariants: OK — envelopes documented, no fail-open, "
          "no lost claims")
    return 0
