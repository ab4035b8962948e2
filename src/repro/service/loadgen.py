"""Seeded open-loop load generator + invariant checker for the service.

Open loop means arrivals do not wait for completions: the full arrival
schedule is precomputed from one seeded RNG (exponential inter-arrival
times at the target rate), each arrival fires as its own task, and a
slow server therefore sees queueing — the honest way to measure p99
against a budget, where a closed loop would flatter the server by
backing off exactly when it struggles.

The generator is *self-sufficient*: it claims its own seeded
identifiers during warmup, then mixes status checks, fresh claims and
revocations over them, so it can drive any server that speaks the
``docs/api.md`` contract without out-of-band coordination.

Every response feeds the invariant checker:

* **envelope** — bodies parse as JSON, any ``error.kind`` is one the
  API documents, and its HTTP status matches the table;
* **claim durability** — an acknowledged claim never 404s later;
* **fail-closed** — after the run, every acknowledged revocation must
  read back ``revoked: true`` — *including* degraded answers, which is
  exactly the frontend's learning-filter guarantee, now asserted
  through a real socket.

A non-empty ``violations`` list fails the CLI with exit status 1, and
bench E21's assertions.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.reporting import Table
from repro.service.errors import ERROR_STATUS
from repro.service.protocol import HttpClient

__all__ = ["LoadgenConfig", "OpSample", "LoadReport", "run_loadgen"]

#: HTTP statuses that are answers (not envelope-only failures).
ANSWER_STATUSES = (200, 201, 203)


@dataclass
class LoadgenConfig:
    """One load run, fully determined by its seed."""

    host: str = "127.0.0.1"
    port: int = 8080
    rate: float = 100.0  # arrivals per second (open loop)
    duration: float = 5.0  # seconds of scheduled arrivals
    seed: int = 0
    warmup_claims: int = 32  # identifiers claimed before the clock starts
    status_fraction: float = 0.90
    claim_fraction: float = 0.05  # remainder is revocations
    deadline_ms: float = 250.0  # X-Deadline-Ms on status reads (§4.4)
    write_deadline_ms: float = 1000.0  # claims/revocations budget
    connections: int = 32


@dataclass(slots=True)
class OpSample:
    """One completed request."""

    op: str  # 'status' | 'claim' | 'revoke'
    status: int
    kind: Optional[str]  # error.kind when the body carried an envelope
    latency: float  # seconds, client-observed
    scheduled_at: float  # offset into the run, seconds


@dataclass
class LoadReport:
    """Everything the CLI and bench E21 need."""

    config: LoadgenConfig
    samples: List[OpSample] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    claimed_ids: List[str] = field(default_factory=list)
    revoked_ids: List[str] = field(default_factory=list)

    def of_op(self, *ops: str) -> List[OpSample]:
        wanted = set(ops)
        return [s for s in self.samples if s.op in wanted]

    @staticmethod
    def percentile(samples: Sequence[OpSample], q: float) -> float:
        """The ``q``-th latency percentile in ms (``q=100`` is the max)."""
        if not samples:
            return 0.0
        return float(np.percentile([s.latency * 1e3 for s in samples], q))

    def answered_fraction(self, *ops: str) -> float:
        samples = self.of_op(*ops) if ops else self.samples
        if not samples:
            return 0.0
        good = sum(1 for s in samples if s.status in ANSWER_STATUSES)
        return good / len(samples)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for sample in self.samples:
            if sample.kind is not None:
                counts[sample.kind] = counts.get(sample.kind, 0) + 1
        return dict(sorted(counts.items()))

    def table(self) -> Table:
        t = Table(
            headers=["op", "count", "answered", "p50 ms", "p99 ms", "max ms"],
            title=f"loadgen: {self.config.rate:g} req/s for "
            f"{self.config.duration:g} s (seed {self.config.seed})",
        )
        for op in ("status", "claim", "revoke"):
            samples = self.of_op(op)
            if samples:
                t.add(
                    op, len(samples), f"{self.answered_fraction(op):.1%}",
                    *(f"{self.percentile(samples, q):.1f}" for q in (50, 99, 100)),
                )
        return t


def arrival_schedule(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Cumulative arrival offsets (seconds) — pure function of the rng."""
    if rate <= 0.0 or duration <= 0.0:
        return np.array([], dtype=float)
    # Draw enough exponential gaps to cover the window, then truncate.
    expected = max(int(rate * duration * 1.5) + 16, 16)
    gaps = rng.exponential(1.0 / rate, size=expected)
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration:
        more = rng.exponential(1.0 / rate, size=expected)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < duration]


class _ClientPool:
    """Bounded keep-alive connection pool (LIFO keeps sockets warm)."""

    def __init__(self, host: str, port: int, limit: int):
        self._host = host
        self._port = port
        self._limit = limit
        self._created = 0
        self._idle: asyncio.LifoQueue = asyncio.LifoQueue()

    async def acquire(self) -> HttpClient:
        if self._idle.empty() and self._created < self._limit:
            self._created += 1
            return HttpClient(self._host, self._port)
        return await self._idle.get()

    def release(self, client: HttpClient) -> None:
        self._idle.put_nowait(client)

    async def discard(self, client: HttpClient) -> None:
        await client.close()
        self._created -= 1

    async def close(self) -> None:
        while not self._idle.empty():
            await (self._idle.get_nowait()).close()


def _check_envelope(
    body: Any, status: int, op: str, violations: List[str]
) -> Optional[str]:
    """Validate one response against the documented envelope; return kind."""
    if not isinstance(body, dict):
        violations.append(f"{op}: body is not a JSON object (status {status})")
        return None
    error = body.get("error")
    if error is None:
        if status not in ANSWER_STATUSES and status != 304:
            violations.append(
                f"{op}: status {status} without an error envelope"
            )
        return None
    if not isinstance(error, dict):
        violations.append(f"{op}: error is not an object (status {status})")
        return None
    kind = error.get("kind")
    if kind not in ERROR_STATUS:
        violations.append(f"{op}: undocumented error kind {kind!r}")
        return None
    if ERROR_STATUS[kind] != status:
        violations.append(
            f"{op}: kind {kind!r} documented as {ERROR_STATUS[kind]}, "
            f"served as {status}"
        )
    return kind


async def run_loadgen(config: LoadgenConfig) -> LoadReport:
    """Drive one seeded open-loop run; see the module docstring."""
    rng = np.random.default_rng(config.seed)
    loop = asyncio.get_running_loop()
    report = LoadReport(config=config)
    pool = _ClientPool(config.host, config.port, config.connections)
    # ids this generator owns; revocable = not yet revoked.
    owned: List[str] = []
    revocable: List[str] = []
    contents = (f"loadgen:{config.seed}:{n}" for n in itertools.count(1))

    async def do_request(
        op: str,
        method: str,
        path: str,
        body: Any,
        deadline_ms: float,
        scheduled_at: float,
    ) -> Tuple[int, Any]:
        client = await pool.acquire()
        started = loop.time()
        try:
            response = await client.request(
                method, path, body,
                headers={"x-deadline-ms": f"{deadline_ms:g}"},
            )
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            await pool.discard(client)
            report.violations.append(
                f"{op}: transport failure {type(exc).__name__}: {exc}"
            )
            report.samples.append(OpSample(
                op=op, status=0, kind=None,
                latency=loop.time() - started, scheduled_at=scheduled_at,
            ))
            return 0, None
        latency = loop.time() - started
        if client.connected:
            pool.release(client)
        else:
            await pool.discard(client)
        try:
            parsed = response.json() if response.body else None
        except ValueError:
            report.violations.append(f"{op}: unparseable JSON body")
            parsed = None
        kind = _check_envelope(parsed, response.status, op, report.violations)
        report.samples.append(OpSample(
            op=op, status=response.status, kind=kind,
            latency=latency, scheduled_at=scheduled_at,
        ))
        return response.status, parsed

    async def do_claim(scheduled_at: float) -> None:
        content = next(contents)
        status, body = await do_request(
            "claim", "POST", "/claims", {"content": content},
            config.write_deadline_ms, scheduled_at,
        )
        if status == 201 and isinstance(body, dict) and body.get("id"):
            owned.append(body["id"])
            revocable.append(body["id"])
            report.claimed_ids.append(body["id"])

    async def do_status(scheduled_at: float, index: int) -> None:
        if not owned:
            return
        target = owned[index % len(owned)]
        await do_request(
            "status", "GET", f"/status/{target}", None,
            config.deadline_ms, scheduled_at,
        )

    async def do_revoke(scheduled_at: float, index: int) -> None:
        if not revocable:
            await do_claim(scheduled_at)
            return
        target = revocable.pop(index % len(revocable))
        status, _ = await do_request(
            "revoke", "POST", "/revocations",
            {"id": target, "action": "revoke"},
            config.write_deadline_ms, scheduled_at,
        )
        if status == 200:
            report.revoked_ids.append(target)
        else:
            revocable.append(target)  # not acked; eligible again

    # -- warmup: claim the working set, sequentially (not measured) --------
    for _ in range(config.warmup_claims):
        await do_claim(scheduled_at=-1.0)
    warmup_failures = sum(
        1 for s in report.samples if s.op == "claim" and s.status != 201
    )
    if warmup_failures:
        report.violations.append(
            f"warmup: {warmup_failures}/{config.warmup_claims} claims not acked"
        )
    report.samples.clear()  # only the measured window counts

    # -- open-loop window --------------------------------------------------
    offsets = arrival_schedule(config.rate, config.duration, rng)
    choices = rng.uniform(size=offsets.size)
    indices = rng.integers(0, 1 << 30, size=offsets.size)
    base = loop.time()
    tasks: List[asyncio.Task] = []
    for i, offset in enumerate(offsets):
        delay = base + float(offset) - loop.time()
        if delay > 0.0:
            await asyncio.sleep(delay)
        pick = float(choices[i])
        index = int(indices[i])
        if pick < config.status_fraction:
            coro = do_status(float(offset), index)
        elif pick < config.status_fraction + config.claim_fraction:
            coro = do_claim(float(offset))
        else:
            coro = do_revoke(float(offset), index)
        tasks.append(asyncio.ensure_future(coro))
    if tasks:
        await asyncio.gather(*tasks)

    # -- fail-closed sweep: every acked revocation must read revoked ------
    measured = len(report.samples)
    for target in report.revoked_ids:
        status, body = await do_request(
            "sweep", "GET", f"/status/{target}", None,
            config.write_deadline_ms, scheduled_at=-2.0,
        )
        if status in ANSWER_STATUSES and isinstance(body, dict):
            if body.get("revoked") is not True:
                report.violations.append(
                    f"fail_open: acked revocation {target} read back "
                    f"revoked={body.get('revoked')!r} "
                    f"(source {body.get('source')!r})"
                )
        elif status != 0:
            report.violations.append(
                f"sweep: acked revocation {target} unreadable "
                f"(status {status})"
            )
    for target in report.claimed_ids:
        # Claim durability: an acked claim must never 404.
        status, body = await do_request(
            "sweep", "GET", f"/status/{target}", None,
            config.write_deadline_ms, scheduled_at=-2.0,
        )
        if status == 404:
            report.violations.append(
                f"lost_claim: acked claim {target} answered 404"
            )
    del report.samples[measured:]  # sweep reads are checks, not samples
    await pool.close()
    return report
