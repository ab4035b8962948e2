"""The metric catalogue: every name the benchmark prints, with its meaning.

``BENCHMARK.json`` at the repository root carries the names, units,
directions and bounds in the shape the benchmark driver reads (it allows
no further keys); ``how`` and ``moves`` live here and in the README, and
``tests/test_catalogue.py`` holds the two files equal.

``moves`` names the end-to-end metric and workload a per-layer metric is
expected to move; on the other workloads the prediction is no change.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    how: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    how: str
    moves: str


_QUIET = (
    "the window is cut into half-second slices and the quietest tenth is read "
    "(see QUIET_PERCENTILE in run.py): "
)

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "spawn server -> /healthz OK -> population claimed through POST /claims "
             "and verified by a batch status read; quietest of the 3 rounds' set-ups"),
    EndToEnd("ops_per_s", "op/s", "higher", 0.25,
             _QUIET + "90th percentile over slices of successful operations per second; "
             "one op = one status verdict (a 64-id batch is 64), one claim, one "
             "(un)revocation or one filter-sync request"),
    EndToEnd("p50_ms", "ms", "lower", 0.25,
             _QUIET + "10th percentile over slices of the slice's median latency per "
             "HTTP request (closed loop: send -> last byte; open loop: due time -> "
             "last byte)"),
    EndToEnd("p90_ms", "ms", "lower", 0.25,
             _QUIET + "10th percentile over slices of the slice's 90th percentile latency"),
    EndToEnd("server_cpu_ms_per_op", "ms", "lower", 0.25,
             _QUIET + "10th percentile over slices of server user+sys CPU in the slice "
             "(/proc/<pid>/stat, read at each slice boundary) / its successful ops"),
    EndToEnd("server_rss_mb", "MB", "lower", 0.05,
             "server VmRSS when a fixed number of measured requests has completed "
             "(the workload's rss_checkpoint), so it is read after the same work "
             "however fast the commit is; median of the 3 rounds"),
)

PER_LAYER: Tuple[PerLayer, ...] = (
    # -- the generator and the process, from the subprocess run -------------------
    PerLayer("loadgen.late_p99_ms", "ms", "lower",
             "open loop: send time minus the first moment the request was both due "
             "and had a free connection; p99", "validity of mixed-open (void if > 5 ms)"),
    PerLayer("loadgen.client_cpu_share", "ratio", "lower",
             "generator process CPU / wall over the window",
             "validity of ops_per_s everywhere (void if >= 0.9)"),
    PerLayer("loadgen.p99_ms", "ms", "lower", "99th percentile request latency, ungated",
             "stalls; failed ops on page-views, mixed-open"),
    PerLayer("loadgen.max_ms", "ms", "lower", "slowest request, ungated",
             "stalls; failed ops on page-views, mixed-open"),
    PerLayer("loadgen.status_p50_ms", "ms", "lower", "median latency of status requests",
             "splits p50_ms on mixed-open"),
    PerLayer("loadgen.status_p90_ms", "ms", "lower", "p90 latency of status requests",
             "splits p90_ms on mixed-open"),
    PerLayer("loadgen.write_p50_ms", "ms", "lower", "median latency of claims and (un)revocations",
             "splits p50_ms on mixed-open"),
    PerLayer("loadgen.write_p90_ms", "ms", "lower", "p90 latency of claims and (un)revocations",
             "splits p90_ms on mixed-open"),
    PerLayer("loadgen.bloom_p50_ms", "ms", "lower", "median latency of GET /bloom",
             "splits p90_ms on mixed-open"),
    PerLayer("loadgen.failed_per_kop", "1/kop", "lower",
             "failed ops per 1000 attempted (see oracle.py for what fails an op)",
             "the run's failed count, everywhere"),
    PerLayer("loadgen.over_budget_per_kop", "1/kop", "lower",
             "ops answered correctly but slower than the paper's section 4.4 budget "
             "(250 ms status and filter sync, 100 ms writes), per 1000 attempted",
             "stalls (GC from memory growth) on page-views, mixed-open"),
    PerLayer("server.cpu_util", "ratio", "higher", "server CPU / wall over the window",
             "says whether a workload is CPU-bound (ops_per_s follows CPU cost) or "
             "wait-bound (p50_ms follows waits)"),
    PerLayer("server.rss_growth_kb_per_kop", "kB/kop", "lower",
             "VmRSS growth over the window / 1000 ops",
             "server_rss_mb everywhere; p90_ms and failed ops on page-views via GC pauses"),
    # -- counters, from /metrics scraped before and after the window ----------------
    PerLayer("service.app.non2xx_per_kop", "1/kop", "lower",
             "service_responses_total delta for codes other than 200/201/304, per 1000 ops",
             "failed ops"),
    PerLayer("filters.bloom.short_circuit_ratio", "ratio", "higher",
             "frontend_filter_short_circuits_total / frontend_queries_total, deltas",
             "server_cpu_ms_per_op on page-views (each point lost sends 1% more "
             "checks down a ~30x costlier path)"),
    PerLayer("cluster.frontend.items_per_batch", "count", "higher",
             "frontend_batch_size sum / count, deltas",
             "server_cpu_ms_per_op on revoked-reads, mixed-open"),
    PerLayer("cluster.frontend.retries_per_kop", "1/kop", "lower",
             "frontend_retries_total delta per 1000 ops", "failed ops everywhere"),
    PerLayer("cluster.frontend.degraded_per_kop", "1/kop", "lower",
             "frontend_degraded_answers_total delta per 1000 ops", "failed ops everywhere"),
    PerLayer("cluster.frontend.deadline_answers_per_kop", "1/kop", "lower",
             "frontend_deadline_answers_total delta per 1000 ops", "failed ops everywhere"),
    # -- spans, from the traced in-process run -----------------------------------------
    PerLayer("service.protocol.parse_us", "us", "lower",
             "direct-call replay of the recorded request bytes through read_request, "
             "per request (the seam is bound by name inside src/, so it is not wrapped)",
             "ops_per_s, server_cpu_ms_per_op on page-views"),
    PerLayer("service.protocol.render_us", "us", "lower",
             "direct-call replay of the recorded replies through render_response, per request",
             "ops_per_s, server_cpu_ms_per_op on page-views"),
    PerLayer("service.protocol.request_bytes", "bytes", "lower", "mean request size on the wire",
             "ops_per_s on page-views"),
    PerLayer("service.protocol.response_bytes", "bytes", "lower", "mean reply body size",
             "ops_per_s on page-views"),
    PerLayer("service.app.self_us", "us", "lower",
             "budget time of ServiceApp.dispatch per request: routing, id parsing, JSON "
             "decode/encode, obs bookkeeping, and waits for the next loop tick",
             "ops_per_s on page-views; p50_ms on owner-writes"),
    PerLayer("filters.bloom.probe_us", "us", "lower",
             "span around LearningBloom.might_be_revoked(_many), per key",
             "ops_per_s on page-views; nothing on revoked-reads, owner-writes"),
    PerLayer("cluster.frontend.self_us", "us", "lower",
             "budget time of status_async / status_many_async / claim_async / "
             "revoke_async (call -> callback, minus children) per request; includes "
             "the batch-window wait",
             "p50_ms on revoked-reads, owner-writes"),
    PerLayer("cluster.frontend.batch_wait_us", "us", "lower",
             "status_async entry -> the first transport.invoke carrying that serial",
             "p50_ms on revoked-reads; not page-views"),
    PerLayer("cluster.frontend.rpcs_per_op", "1/op", "lower",
             "transport.invoke calls / ops", "server_cpu_ms_per_op on revoked-reads, mixed-open"),
    PerLayer("service.cluster.hop_us", "us", "lower",
             "AsyncioShardTransport.invoke -> callback minus the handler's time, per "
             "call (event-loop scheduling both ways, and any injected delay)",
             "p50_ms on revoked-reads, owner-writes (a revoke is three sequential hops)"),
    PerLayer("service.cluster.timeouts_per_kop", "1/kop", "lower",
             "replies whose error names an rpc timeout, per 1000 ops", "failed ops"),
    PerLayer("cluster.shard.self_us", "us", "lower",
             "ClusterShard handler time minus its ledger children, per handler call",
             "server_cpu_ms_per_op on revoked-reads, owner-writes"),
    PerLayer("cluster.shard.rpcs_per_op", "1/op", "lower", "handler calls / ops",
             "server_cpu_ms_per_op on revoked-reads, owner-writes"),
    PerLayer("ledger.ledger.status_us", "us", "lower", "Ledger.status per call, signature included",
             "ops_per_s, p50_ms on revoked-reads"),
    PerLayer("ledger.ledger.claim_us", "us", "lower", "Ledger.claim per call, children included",
             "ops_per_s, p50_ms on owner-writes"),
    PerLayer("ledger.ledger.revoke_us", "us", "lower",
             "Ledger.revoke / unrevoke per call, children included",
             "ops_per_s, p50_ms on owner-writes"),
    PerLayer("ledger.events.append_us", "us", "lower", "EventLog.append per call",
             "ops_per_s on owner-writes"),
    PerLayer("ledger.events.appends_per_op", "1/op", "lower",
             "sum of shard events.head_seq growth / ops",
             "ops_per_s on owner-writes; must be 0 on both read workloads"),
    PerLayer("ledger.storage.self_us", "us", "lower",
             "LedgerStore.put / apply_flip minus the event append, per call",
             "ops_per_s on owner-writes"),
    PerLayer("ledger.storage.log_operation_us", "us", "lower",
             "LedgerStore.log_operation (the second, Merkle log) per call",
             "ops_per_s on owner-writes: the number ROADMAP's 'One log' item will cite"),
    PerLayer("crypto.signatures.sign_us", "us", "lower",
             "KeyPair.sign(_struct) per signature, canonical encoding included",
             "ops_per_s, p50_ms, server_cpu_ms_per_op on revoked-reads, owner-writes"),
    PerLayer("crypto.signatures.verify_us", "us", "lower",
             "PublicKey.verify(_struct) per verification",
             "ops_per_s, server_cpu_ms_per_op on owner-writes"),
    PerLayer("crypto.signatures.signs_per_op", "1/op", "lower", "signatures / ops",
             "server_cpu_ms_per_op on revoked-reads, owner-writes"),
    PerLayer("crypto.signatures.verifies_per_op", "1/op", "lower", "verifications / ops",
             "server_cpu_ms_per_op on owner-writes"),
    PerLayer("crypto.timestamp.issue_us", "us", "lower",
             "TimestampAuthority.issue per call, its signature included",
             "p50_ms on owner-writes (claims only)"),
    # -- qualifiers of the traced run -----------------------------------------------------
    PerLayer("trace.inproc_ops_per_s", "op/s", "higher",
             "untraced in-process pass, client and server sharing one event loop", "none"),
    PerLayer("trace.overhead_fraction", "ratio", "lower",
             "1 - traced ops/s / untraced ops/s over consecutive parts of one stream", "none"),
    PerLayer("trace.request_us", "us", "lower",
             "mean client-observed time of a traced request: the whole the budget splits", "none"),
    PerLayer("trace.unattributed_fraction", "ratio", "lower",
             "share of traced request time in no layer span: socket, parse, render, "
             "event loop, client", "none"),
    PerLayer("trace.accounted_fraction", "ratio", "higher",
             "(sum of layer budget times + unattributed) / traced request time; 1 by "
             "construction, printed as the arithmetic check", "none"),
)
