"""The load generator: set-up, closed and open loops, audit, scrape.

One process, exactly two keep-alive connections.  Both loops pull from
one shared request stream, so the sequence sent is the seeded sequence
in order whichever connection is free.  The same code drives the
subprocess server (end-to-end numbers) and the in-process server of the
traced run.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import promtext
from httpclient import Connection, encode_request
from oracle import Oracle
from workloads import POPULATION, Req, initially_revoked, population_content

CONNECTIONS = 2
AUDIT_BATCH = 1024  # the API's per-request identifier limit

_TRANSPORT_ERRORS = (ConnectionError, asyncio.IncompleteReadError, OSError)


class Sample(NamedTuple):
    number: int  # position in the stream
    kind: str
    start: float  # closed loop: send time; open loop: due time
    sent: float
    end: float
    ops: int
    failed: int
    late: float  # open loop: send time minus when it could first be sent
    request_bytes: int
    status: int
    response_bytes: int

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


class Driver:
    """Sends one stream's requests over two connections and judges replies."""

    def __init__(self, host: str, port: int, oracle: Oracle, requests: Iterator[Req]):
        self.oracle = oracle
        self._requests = requests
        self._conns = [Connection(host, port) for _ in range(CONNECTIONS)]
        self._number = 0
        self.samples: List[Sample] = []
        # (count, fn): call fn once when this many samples are recorded.
        self.checkpoint: Optional[Tuple[int, Callable[[], None]]] = None
        # When a list, every (request bytes, status, headers, body) is kept
        # for the protocol replay of the traced pass.
        self.exchanges: Optional[list] = None

    async def close(self) -> None:
        for conn in self._conns:
            await conn.close()

    def _next(self) -> Tuple[int, Req]:
        number = self._number
        self._number += 1
        return number, next(self._requests)

    async def _exchange(
        self, conn: Connection, number: int, req: Req, start: Optional[float], free_at: float
    ) -> None:
        oracle = self.oracle
        raw = oracle.encode(req, number)
        snapshot = oracle.begin(req)
        sent = time.perf_counter()
        if start is None:
            start, late = sent, 0.0
        else:
            late = sent - max(start, free_at)
        ops = max(len(req.ids), 1)
        try:
            status, headers, body = await conn.send(raw)
        except _TRANSPORT_ERRORS:
            await conn.close()  # the next send reconnects
            end = time.perf_counter()
            status, body, failed = 0, b"", ops
        else:
            end = time.perf_counter()
            if self.exchanges is not None:
                self.exchanges.append((raw, status, headers, body))
            failed = oracle.check(number, req, snapshot, status, headers, body)
        self.samples.append(
            Sample(number, req.kind, start, sent, end, ops, failed, late,
                   len(raw), status, len(body))
        )
        if self.checkpoint is not None and len(self.samples) == self.checkpoint[0]:
            self.checkpoint[1]()

    async def closed(
        self, seconds: Optional[float] = None, count: Optional[int] = None
    ) -> List[Sample]:
        """Closed loop for ``seconds`` or for exactly ``count`` requests."""
        first = len(self.samples)
        stop_at = time.perf_counter() + seconds if seconds is not None else None
        remaining = count

        async def worker(conn: Connection) -> None:
            nonlocal remaining
            while stop_at is None or time.perf_counter() < stop_at:
                if remaining is not None:
                    if remaining <= 0:
                        return
                    remaining -= 1
                number, req = self._next()
                await self._exchange(conn, number, req, None, 0.0)

        await asyncio.gather(*(worker(conn) for conn in self._conns))
        return self.samples[first:]

    async def open(self, seconds: float) -> List[Sample]:
        """Open loop: every request due within ``seconds`` is sent and awaited."""
        first = len(self.samples)
        origin = time.perf_counter()
        base: Optional[float] = None  # the stream time of the window's first request

        async def worker(conn: Connection) -> None:
            nonlocal base
            while True:
                free_at = time.perf_counter()
                number, req = self._next()
                if base is None:
                    base = req.due
                offset = req.due - base
                if offset >= seconds:
                    return
                due = origin + offset
                wait = due - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                await self._exchange(conn, number, req, due, free_at)

        await asyncio.gather(*(worker(conn) for conn in self._conns))
        return self.samples[first:]


# -- set-up, audit, scrape -------------------------------------------------------------


async def wait_healthy(host: str, port: int, timeout: float = 30.0) -> None:
    deadline = time.perf_counter() + timeout
    conn = Connection(host, port)
    try:
        while True:
            try:
                status, _, _ = await conn.request("GET", "/healthz")
                if status == 200:
                    return
            except _TRANSPORT_ERRORS:
                await conn.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            await asyncio.sleep(0.02)
    finally:
        await conn.close()


async def populate(host: str, port: int, workload: str, seed: int) -> Oracle:
    """Claim the population through the public API and verify it reads back."""
    revoked = initially_revoked(workload, seed)
    wire_ids: List[Optional[str]] = [None] * POPULATION
    pending = iter(range(POPULATION))

    async def worker() -> None:
        conn = Connection(host, port)
        try:
            for index in pending:
                body = json.dumps({
                    "content": population_content(workload, seed, index),
                    "initially_revoked": revoked[index],
                }).encode()
                status, _, reply = await conn.request("POST", "/claims", body)
                if status != 201:
                    raise RuntimeError(f"set-up claim {index} answered {status}: {reply!r}")
                wire_ids[index] = json.loads(reply)["id"]
        finally:
            await conn.close()

    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    oracle = Oracle()
    for wire_id, is_revoked in zip(wire_ids, revoked):
        oracle.add(wire_id, is_revoked)
    if await audit(host, port, oracle, range(POPULATION)):
        raise RuntimeError(f"set-up population did not verify: {oracle.violations[:3]}")
    return oracle


async def audit(host: str, port: int, oracle: Oracle, indices) -> int:
    """Batch-read ``indices`` and hold them to the oracle; returns the misses.

    Set-up reads the whole population; after a run only what the run
    wrote (``oracle.written``) needs reading again.
    """
    indices = sorted(indices)
    misses = 0
    conn = Connection(host, port)
    try:
        for first in range(0, len(indices), AUDIT_BATCH):
            chunk = indices[first:first + AUDIT_BATCH]
            body = json.dumps({"ids": [oracle.ids[i] for i in chunk]}).encode()
            status, _, reply = await conn.request("POST", "/status", body)
            results = json.loads(reply).get("results", []) if status == 200 else []
            misses += oracle.audit(chunk, status, results)
    finally:
        await conn.close()
    return misses


async def scrape(host: str, port: int) -> Dict[promtext.Sample, float]:
    conn = Connection(host, port)
    try:
        status, _, body = await conn.send(encode_request("GET", "/metrics"))
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return promtext.parse(body.decode())
    finally:
        await conn.close()
