"""The four workloads: seeded populations and request streams.

A stream is an endless, deterministic iterator of abstract requests.
Identifiers appear as *population indices*, never as wire ids: the ids
are whatever ``POST /claims`` answered during set-up, so the generator
knows nothing about how the program derives them and the pinned
sequence hashes in ``tests/`` hold across program changes.

Writes toggle a fixed 512-index slice in a seeded order, flipping a
*planned* state kept here, so two writes to one id are always ~500
writes apart (never concurrent on 2 connections) and the program's
learning Bloom filter (8,192 keys) never sees more than the 1,024
population keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Tuple

import numpy as np

POPULATION = 1024
TOGGLE_SLICE = 512  # writes only ever touch indices below this
BATCH_IDS = 64  # identifiers per page view
UNREVOKE_LAG = 64  # owner-writes: unrevoke trails revoke by this many steps
OPEN_RATE = 400.0  # mixed-open arrivals per second
WARMUP_REQUESTS = 200


@dataclass(frozen=True)
class Req:
    """One abstract request. ``due`` is only meaningful in an open loop."""

    kind: str  # status | status_batch | claim | revoke | unrevoke | bloom | deltas
    ids: Tuple[int, ...] = ()  # population indices
    content: str = ""  # claim content
    due: float = 0.0  # seconds since the stream began

    def line(self) -> bytes:
        ids = ",".join(map(str, self.ids))
        return f"{self.kind}|{ids}|{self.content}|{self.due:.6f}\n".encode()


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # 'closed' | 'open'
    why: str
    # Requests measured before server RSS is read, so the figure is
    # taken after the same work on every commit however fast it runs.
    rss_checkpoint: int
    traced_requests: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "page-views", "closed",
            "A proxy checking photo-heavy pages: 64-id batch reads, 0.5% of ids "
            "revoked; protocol, JSON and the Bloom filter do the work.",
            rss_checkpoint=1000, traced_requests=500,
        ),
        Workload(
            "revoked-reads", "closed",
            "Every id read is revoked, so the filter never short-circuits: "
            "batch wait, 3 replica reads and 3 RSA signatures per check.",
            rss_checkpoint=800, traced_requests=1000,
        ),
        Workload(
            "owner-writes", "closed",
            "Claims and revoke/unrevoke 1:2: quorum writes, challenge-flip-"
            "apply, TSA token, event seal and Merkle log; guards writes.",
            rss_checkpoint=2000, traced_requests=1000,
        ),
        Workload(
            "mixed-open", "open",
            "400 req/s Poisson arrivals, 85% reads 15% writes plus filter "
            "sync, timed from the due time so stalls and queueing count.",
            rss_checkpoint=1000, traced_requests=1000,
        ),
    )
}


def _rng(name: str, seed: int, salt: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{name}:{seed}:{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def population_content(name: str, seed: int, index: int) -> str:
    return f"e2e:{name}:{seed}:photo:{index}"


def initially_revoked(name: str, seed: int) -> List[bool]:
    """Which population indices set-up claims as born revoked."""
    rng = _rng(name, seed, "revoked")
    mask = [False] * POPULATION
    if name == "page-views":
        # 0.5%, not 1%: with 64 ids a view, 1% puts a revoked id (the slow
        # path) in 47% of views and p50 on the edge between the two modes.
        chosen = rng.choice(POPULATION, size=POPULATION // 200, replace=False)
    elif name == "revoked-reads":
        chosen = range(POPULATION)
    elif name == "owner-writes":
        # The first UNREVOKE_LAG unrevokes need something to unrevoke.
        chosen = _toggle_order(name, seed)[TOGGLE_SLICE - UNREVOKE_LAG:]
    elif name == "mixed-open":
        chosen = rng.choice(POPULATION, size=POPULATION // 5, replace=False)
    else:
        raise KeyError(name)
    for index in chosen:
        mask[int(index)] = True
    return mask


def _toggle_order(name: str, seed: int) -> List[int]:
    return [int(i) for i in _rng(name, seed, "toggle").permutation(TOGGLE_SLICE)]


class _Toggler:
    """Walks the toggle slice, flipping a planned revocation state."""

    def __init__(self, name: str, seed: int):
        self.order = _toggle_order(name, seed)
        self.planned = initially_revoked(name, seed)

    def flip(self, position: int) -> Req:
        index = self.order[position % TOGGLE_SLICE]
        self.planned[index] = not self.planned[index]
        return Req("revoke" if self.planned[index] else "unrevoke", (index,))


def stream(name: str, seed: int) -> Iterator[Req]:
    """The endless request stream of one workload."""
    rng = _rng(name, seed, "stream")
    if name == "page-views":
        while True:
            ids = rng.integers(0, POPULATION, size=BATCH_IDS)
            yield Req("status_batch", tuple(int(i) for i in ids))
    elif name == "revoked-reads":
        while True:
            for index in rng.integers(0, POPULATION, size=256):
                yield Req("status", (int(index),))
    elif name == "owner-writes":
        toggler = _Toggler(name, seed)
        step = 0
        while True:
            yield Req("claim", content=f"e2e:{name}:{seed}:new:{step}")
            yield toggler.flip(step)
            yield toggler.flip(step - UNREVOKE_LAG)
            step += 1
    elif name == "mixed-open":
        yield from _mixed_open(name, seed, rng)
    else:
        raise KeyError(name)


def _mixed_open(name: str, seed: int, rng: np.random.Generator) -> Iterator[Req]:
    toggler = _Toggler(name, seed)
    now = 0.0
    claims = toggles = 0
    next_sync = 0.5  # one /bloom and one /deltas per second
    while True:
        now += float(rng.exponential(1.0 / OPEN_RATE))
        while next_sync <= now:
            yield Req("bloom", due=next_sync)
            yield Req("deltas", due=next_sync)
            next_sync += 1.0
        draw = float(rng.random())
        if draw < 0.85:
            yield Req("status", (int(rng.integers(0, POPULATION)),), due=now)
        elif draw < 0.90:
            yield Req("claim", content=f"e2e:{name}:{seed}:new:{claims}", due=now)
            claims += 1
        else:
            flip = toggler.flip(toggles)
            yield Req(flip.kind, flip.ids, due=now)
            toggles += 1


def sequence_hash(name: str, seed: int, count: int) -> str:
    """sha256 over the first ``count`` requests (and the population)."""
    digest = hashlib.sha256()
    digest.update(bytes(initially_revoked(name, seed)))
    for req in islice(stream(name, seed), count):
        digest.update(req.line())
    return digest.hexdigest()
