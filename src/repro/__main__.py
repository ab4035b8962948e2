"""Command-line demo runner: ``python -m repro <demo>``.

Wraps the example scripts so the package is runnable after a bare
install (the examples/ directory ships with the repository, not the
wheel).
"""

from __future__ import annotations

import argparse
import sys


def _demo_quickstart() -> None:
    from repro.core import IrsDeployment

    irs = IrsDeployment.create(seed=0)
    photo = irs.new_photo()
    receipt, labeled = irs.owner_toolkit.claim_and_label(photo, irs.ledger)
    print(f"claimed {receipt.identifier}; validating…")
    print(f"  before revoke: {irs.validator.validate(labeled).decision.value}")
    irs.owner_toolkit.revoke(receipt, irs.ledger)
    print(f"  after revoke:  {irs.validator.validate(labeled).decision.value}")
    irs.owner_toolkit.unrevoke(receipt, irs.ledger)
    print(f"  after unrevoke: {irs.validator.validate(labeled).decision.value}")


def _demo_scaling() -> None:
    from repro.filters.sizing import paper_scaling_table

    print("Paper section 4.4 Bloom scaling (computed, not asserted):")
    for row in paper_scaling_table():
        print(
            f"  {row.filter_gb:7.1f} GB @ {row.population:.0e} photos: "
            f"k={row.optimal_hashes}, FPR={row.false_positive_rate:.4f}, "
            f"load reduction {row.load_reduction:.1f}x"
        )


def _demo_adoption() -> None:
    from repro.ecosystem import baseline_scenario, no_first_mover_scenario

    for scenario in (baseline_scenario(), no_first_mover_scenario()):
        trace = scenario.build(seed=2022).run(240)
        tip = trace.tipping_month(0.5)
        photos = trace.photos_at_tipping(0.5)
        print(
            f"{scenario.name}: tipping month="
            f"{tip if tip is not None else 'never'}"
            + (f", photos at tip={photos:.2e}" if photos else "")
        )


_REPLAYS = "replay byte-identically"
_THROUGH_FRONTEND = "to drive through the frontend"
_THROUGH_FAULTS = "driven through the fault windows"


def _verdict(check, ok_text: str, label: str = "  consistency") -> None:
    """Print a checker's verdict under ``label``; exit 1 on any violation."""
    if check.ok:
        print(f"{label}: OK — {ok_text}")
        return
    print(f"{label}: {check.by_invariant()}")
    indent = " " * (len(label) - len(label.lstrip()) + 2)
    for violation in check.violations:
        print(f"{indent}[{violation.invariant}] serial={violation.serial}: "
              f"{violation.detail}")
    raise SystemExit(1)


def _common(
    parser: argparse.ArgumentParser,
    seed: str | None = None,
    shards: bool = False,
    intensity: float | None = None,
    queries: str | None = None,
) -> None:
    """Declare the flags subcommands share — those asked for, in this order.

    ``seed`` says what identical seeds do, ``intensity`` is its default,
    ``queries`` says how the status checks are driven.
    """
    if seed is not None:
        parser.add_argument(
            "--seed", type=int, default=0,
            help=f"root seed; identical seeds {seed} (default 0)",
        )
    if shards:
        parser.add_argument(
            "--shards", type=int, default=4, help="number of shards (default 4)"
        )
    if intensity is not None:
        parser.add_argument(
            "--intensity", type=float, default=intensity,
            help="fault intensity in [0, 1]; 0 disables all faults "
            f"(default {intensity})",
        )
    if queries is not None:
        parser.add_argument(
            "--queries", type=int, default=400,
            help=f"status checks {queries} (default 400)",
        )


def _demo_cluster(args: argparse.Namespace) -> None:
    from repro.cluster import ClusterConfig, SimulatedCluster
    from repro.perf.workloads import burst_indices

    for name in ("shards", "replication", "queries"):
        if getattr(args, name) < 1:
            raise SystemExit(
                f"python -m repro cluster: --{name} must be at least 1"
            )
    replication = min(args.replication, args.shards)
    cluster = SimulatedCluster(
        args.shards,
        config=ClusterConfig(replication_factor=replication),
        seed=0,
        rpc_timeout=0.1,
    )
    population = cluster.seed_population(
        max(args.queries, 200), revoked_fraction=0.3
    )
    sim = cluster.simulator
    indices = burst_indices(1, population.size, args.queries)
    answers: dict = {}
    latencies: dict = {}

    # Queries arrive in groups of ~50 and flow through the batch status
    # path: one vectorized Bloom pass per group, per-shard RPC batching
    # underneath — the production read path, not a per-key loop.
    group = 50

    def ask_group(base_slot: int, identifiers) -> None:
        started = sim.now

        def record(offset: int, answer) -> None:
            answers[base_slot + offset] = answer
            latencies[base_slot + offset] = sim.now - started

        cluster.frontend.status_many_async(
            [identifier.serial for identifier in identifiers], record
        )

    for base_slot in range(0, len(indices), group):
        batch = [
            population.identifiers[int(index)]
            for index in indices[base_slot : base_slot + group]
        ]
        sim.schedule(base_slot * 0.001, ask_group, base_slot, batch)
    victim = None
    if args.kill_shard:
        victim = f"shard-{args.shards - 1}"
        sim.schedule(args.queries * 0.001 / 2, cluster.kill_shard, victim)
    sim.run(until=60.0)

    correct = sum(
        1
        for slot, index in enumerate(indices)
        if answers[slot].ok and answers[slot].revoked == population.revoked(index)
    )
    ordered = sorted(latencies.values())
    p99 = ordered[int(len(ordered) * 0.99) - 1] if ordered else 0.0
    print(
        f"cluster: {args.shards} shard(s), replication {replication}, "
        f"{args.queries} status checks"
    )
    if victim is not None:
        print(f"  killed {victim} mid-run; "
              f"suspects now: {cluster.detector.suspects() or 'none'}")
    print(f"  correct answers: {correct}/{len(indices)}")
    print(f"  p50 latency: {ordered[len(ordered) // 2] * 1e3:.1f} ms, "
          f"p99: {p99 * 1e3:.1f} ms")
    print(f"  frontend: {cluster.frontend.stats}")


def _demo_recover(args: argparse.Namespace) -> None:
    from repro.chaos import ChaosKnobs, run_chaos, run_durability_selftest

    if args.selftest:
        result = run_durability_selftest(seed=args.seed)
        print("durability self-test (blind recovery + replay divergence):")
        print(
            f"  clean run: {result.clean.faults.get('storage', 0)} storage "
            f"fault(s), {len(result.clean.recoveries)} recoveries, "
            f"violations: {result.clean.check.by_invariant() or 'none'}"
        )
        print(
            "  blind run corruption_missed: "
            f"{result.blind.check.count('corruption_missed')}"
        )
        print(
            "  diverged run recovery_mismatch: "
            f"{result.diverged.check.count('recovery_mismatch')}"
        )
        print(f"  sabotage detected: {result.detected}")
        if not result.detected:
            raise SystemExit(
                "durability self-test FAILED: checker missed the sabotage"
            )
        return
    if not 0.0 <= args.intensity:
        raise SystemExit(
            "python -m repro recover: --intensity cannot be negative"
        )
    knobs = ChaosKnobs(
        storage_fault_probability=args.storage,
        wipe_probability=args.wipes,
        crash_rate=1.2,
    )
    report = run_chaos(
        num_shards=args.shards,
        seed=args.seed,
        intensity=args.intensity,
        knobs=knobs,
    )
    print(
        f"recover: {report.num_shards} shard(s), seed {report.seed}, "
        f"intensity {report.intensity:.2f}"
    )
    print(
        f"  faults: {report.faults.get('crash', 0)} crash(es), "
        f"{report.faults.get('wipe', 0)} wiped, "
        f"{report.faults.get('storage', 0)} storage fault(s) "
        f"({', '.join(kind for _, kind, _ in report.storage_faults) or 'none'})"
    )
    for recovery in report.recoveries:
        verdict = (
            "clean"
            if not recovery.evidence
            else "+".join(sorted(set(recovery.evidence)))
        )
        print(
            f"  recovery {recovery.shard_id} @ t={recovery.at:.3f}: "
            f"{recovery.records_recovered} records, "
            f"{recovery.events_replayed} events replayed, {verdict}"
        )
    print(
        f"  workload: {report.status_ops} status checks "
        f"({report.availability:.1%} answered), "
        f"{report.revokes_acked}/{report.revokes_attempted} "
        f"revocations acknowledged"
    )
    _verdict(
        report.check,
        "recovered state equals replayed log, every injected corruption detected",
        label="  durability",
    )


def _demo_chaos(args: argparse.Namespace) -> None:
    from repro.chaos import ChaosKnobs, run_chaos, run_selftest

    if args.selftest:
        result = run_selftest(seed=args.seed)
        print("checker self-test (deliberate last-arrival-wins bug):")
        print(f"  clean run violations: {result.clean.by_invariant() or 'none'}")
        print(f"  buggy run violations: {result.buggy.by_invariant()}")
        print(f"  bug detected: {result.detected}")
        if not result.detected:
            raise SystemExit("chaos self-test FAILED: checker missed the bug")
        return
    if not 0.0 <= args.intensity:
        raise SystemExit("python -m repro chaos: --intensity cannot be negative")
    if not 0.0 <= args.storage <= 1.0:
        raise SystemExit(
            "python -m repro chaos: --storage must be in [0, 1]"
        )
    knobs = (
        ChaosKnobs(storage_fault_probability=args.storage)
        if args.storage > 0.0
        else None
    )
    report = run_chaos(
        num_shards=args.shards,
        seed=args.seed,
        intensity=args.intensity,
        queries=args.queries,
        knobs=knobs,
    )
    print(
        f"chaos: {report.num_shards} shard(s), seed {report.seed}, "
        f"intensity {report.intensity:.2f}"
    )
    print(
        f"  faults: {report.faults.get('partition', 0)} partition(s), "
        f"{report.faults.get('crash', 0)} crash(es) "
        f"({report.faults.get('wipe', 0)} wiped), "
        f"{report.faults.get('skew', 0)} clock skew(s), "
        f"{report.faults.get('storage', 0)} storage fault(s)"
    )
    print(
        f"  workload: {report.status_ops} status checks "
        f"({report.availability:.1%} answered), "
        f"{report.revokes_acked}/{report.revokes_attempted} "
        f"revocations acknowledged"
    )
    print(f"  read repairs: {report.read_repairs}, "
          f"suspicions: {report.suspicions}, "
          f"records lost to wipes: {report.records_lost}")
    print(f"  state digest: {report.digest[:16]}")
    _verdict(report.check, "no invariant violations")


def _demo_resilience(args: argparse.Namespace) -> None:
    from repro.chaos import POLICIES, REFERENCE_DEADLINE, run_resilient_chaos

    if args.intensity < 0.0:
        raise SystemExit(
            "python -m repro resilience: --intensity cannot be negative"
        )
    if args.policy not in POLICIES:
        raise SystemExit(
            f"python -m repro resilience: --policy must be one of {POLICIES}"
        )
    report = run_resilient_chaos(
        num_shards=args.shards,
        seed=args.seed,
        intensity=args.intensity,
        policy=args.policy,
        queries=args.queries,
    )
    print(
        f"resilience: policy '{report.policy}', {report.num_shards} shard(s), "
        f"seed {report.seed}, intensity {report.intensity:.2f}"
    )
    print(
        f"  faults: {report.faults.get('partition', 0)} partition(s), "
        f"{report.faults.get('crash', 0)} crash(es) "
        f"({report.faults.get('wipe', 0)} wiped)"
    )
    print(
        f"  workload: {report.status_ops} status checks — "
        f"{report.availability:.1%} answered, "
        f"{report.deadline_rate:.1%} within the "
        f"{REFERENCE_DEADLINE:g} s deadline"
    )
    print(
        f"  degraded answers: {report.degraded_answers} "
        f"({report.stale_degraded} conservatively stale), "
        f"retries: {report.retries}, breaker opens: {report.breaker_opens}"
    )
    if report.hints_queued:
        drain = (
            f"{report.hint_drain_time:.3f} s after heal"
            if report.hint_drain_time is not None
            else "not drained"
        )
        print(
            f"  hinted handoff: {report.hints_queued} queued, "
            f"{report.hints_replayed} replayed, "
            f"{report.hints_dropped} dropped; drained {drain}"
        )
    if report.sweep is not None:
        print(
            f"  anti-entropy: {report.sweep.serials_scanned} serials scanned, "
            f"{report.sweep.records_pushed} records re-replicated"
        )
    _verdict(report.check, "no invariant violations, no fail-open")


def _demo_obs(args: argparse.Namespace) -> None:
    import hashlib

    from repro.obs import metrics_tables, slowest_spans_table, stage_breakdown
    from repro.obs.demo import run_traced_workload

    for name in ("shards", "queries"):
        if getattr(args, name) < 1:
            raise SystemExit(f"python -m repro obs: --{name} must be at least 1")
    report = run_traced_workload(
        num_shards=args.shards,
        seed=args.seed,
        queries=args.queries,
        revocations=args.revocations,
        kill_shard=args.kill_shard,
    )
    print(
        f"obs: {report.num_shards} shard(s), seed {report.seed}, "
        f"{report.queries} status checks, "
        f"{report.revocations_attempted} revocations"
    )
    print(
        f"  answered: {report.availability:.1%}, revocations acknowledged: "
        f"{report.revocations_acked}/{report.revocations_attempted}"
    )
    spans = report.obs.spans
    print(stage_breakdown(spans, title="per-stage latency (sim time)").render())
    print(slowest_spans_table(spans, limit=args.slowest).render())
    for table in metrics_tables(report.obs.metrics):
        print(table.render())
    jsonl = report.obs.export_spans_jsonl()
    digest = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()
    print(
        f"\nspan export: {len(spans)} spans, sha256 {digest[:16]} "
        "(same seed reproduces these bytes exactly)"
    )
    if args.jsonl is not None:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(jsonl)
        print(f"  spans written to {args.jsonl}")
    if args.prometheus is not None:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(report.obs.export_prometheus())
        print(f"  metrics written to {args.prometheus}")
    _verdict(
        report.check,
        f"{report.check.spans_checked} spans cross-validated "
        "against the client-visible history",
        label="consistency",
    )


_DEMOS = {
    "quickstart": (_demo_quickstart, "claim/label/revoke/validate lifecycle"),
    "scaling": (_demo_scaling, "section 4.4 Bloom filter scaling table"),
    "adoption": (_demo_adoption, "TET tipping points, with and without first movers"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A subcommand in a package of its own has that package imported — for
    # its arguments and its ``run`` — only when it is the one named:
    # ``serve`` stays up for days and carries neither linter nor perf harness.
    named = argv[0] if argv else None
    run = None
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IRS reproduction demos (full examples live in examples/)",
    )
    subparsers = parser.add_subparsers(dest="demo", required=True, metavar="demo")
    for name, (_, description) in sorted(_DEMOS.items()):
        subparsers.add_parser(name, help=description)
    cluster_parser = subparsers.add_parser(
        "cluster",
        help="sharded, replicated ledger cluster under simulated load",
    )
    _common(cluster_parser, shards=True)
    cluster_parser.add_argument(
        "--replication", type=int, default=3,
        help="replicas per record, capped at the shard count (default 3)",
    )
    _common(cluster_parser, queries=_THROUGH_FRONTEND)
    cluster_parser.add_argument(
        "--kill-shard", action="store_true",
        help="crash one replica mid-run to exercise quorum failover",
    )
    chaos_parser = subparsers.add_parser(
        "chaos",
        help="deterministic fault injection + consistency check on the cluster",
    )
    _common(
        chaos_parser, seed=_REPLAYS, shards=True, intensity=0.5,
        queries=_THROUGH_FAULTS,
    )
    chaos_parser.add_argument(
        "--selftest", action="store_true",
        help="seed a deliberate replication bug and prove the checker sees it",
    )
    chaos_parser.add_argument(
        "--storage", type=float, default=0.0,
        help="per-crash probability of restarting against a damaged disk "
        "(torn WAL frame, corrupted segment, or corrupted snapshot; "
        "default 0)",
    )
    recover_parser = subparsers.add_parser(
        "recover",
        help="storage-fault chaos: crash-recovery with damaged disks, "
        "gated on the durability invariants",
    )
    _common(recover_parser, seed=_REPLAYS, shards=True)
    recover_parser.add_argument(
        "--intensity", type=float, default=0.7,
        help="fault intensity in [0, 1] (default 0.7)",
    )
    recover_parser.add_argument(
        "--storage", type=float, default=1.0,
        help="per-crash probability of a damaged disk (default 1.0)",
    )
    recover_parser.add_argument(
        "--wipes", type=float, default=0.3,
        help="per-crash probability of losing the disk outright (default 0.3)",
    )
    recover_parser.add_argument(
        "--selftest", action="store_true",
        help="sabotage the recovery path twice and prove the durability "
        "invariants trip",
    )
    resilience_parser = subparsers.add_parser(
        "resilience",
        help="chaos run under a resilience policy (deadlines, breakers, "
        "degraded reads, hinted handoff)",
    )
    _common(resilience_parser, seed=_REPLAYS, shards=True, intensity=0.6)
    resilience_parser.add_argument(
        "--policy", default="full", metavar="POLICY",
        help="resilience tier: none | retry | full (default full)",
    )
    _common(resilience_parser, queries=_THROUGH_FAULTS)
    obs_parser = subparsers.add_parser(
        "obs",
        help="traced cluster workload: per-stage latency breakdown, "
        "metrics tables, deterministic span export",
    )
    _common(
        obs_parser, seed="export byte-identical spans", shards=True,
        queries=_THROUGH_FRONTEND,
    )
    obs_parser.add_argument(
        "--revocations", type=int, default=12,
        help="owner revocations interleaved with the reads (default 12)",
    )
    obs_parser.add_argument(
        "--slowest", type=int, default=10,
        help="rows in the slowest-span table (default 10)",
    )
    obs_parser.add_argument(
        "--kill-shard", action="store_true",
        help="crash one replica mid-run so the trace shows failovers",
    )
    obs_parser.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="write the JSON-lines span dump to PATH",
    )
    obs_parser.add_argument(
        "--prometheus", metavar="PATH", default=None,
        help="write the Prometheus-style metrics exposition to PATH",
    )
    lint_parser = subparsers.add_parser(
        "lint",
        help="AST-based determinism & contract linter (the CI gate)",
    )
    if named == "lint":
        from repro.analysis.cli import add_lint_arguments, run_lint as run

        add_lint_arguments(lint_parser)
    perf_parser = subparsers.add_parser(
        "perf",
        help="hot-path microbenchmarks: measure, report, gate (BENCH_hotpaths.json)",
    )
    if named == "perf":
        from repro.perf.cli import add_perf_arguments, run_perf as run

        add_perf_arguments(perf_parser)
    serve_parser = subparsers.add_parser(
        "serve",
        help="asyncio HTTP/JSON API in front of a live cluster (docs/api.md)",
    )
    if named == "serve":
        from repro.service.cli import add_serve_arguments, run_serve as run

        add_serve_arguments(serve_parser)
    args = parser.parse_args(argv)
    if run is not None:
        return run(args)
    if args.demo == "cluster":
        _demo_cluster(args)
    elif args.demo == "chaos":
        _demo_chaos(args)
    elif args.demo == "recover":
        _demo_recover(args)
    elif args.demo == "resilience":
        _demo_resilience(args)
    elif args.demo == "obs":
        _demo_obs(args)
    else:
        _DEMOS[args.demo][0]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
