"""Ground truth held by the generator, and the checks made against it.

The table is updated on every acknowledged write and every status
verdict is compared with it.  While a write to an id is in flight (or
one completed between a read's send and its reply) either verdict is
accepted; otherwise the verdict must equal the table.

Two kinds of bad outcome are kept apart:

* a *failed* operation (counted in ``failed``): transport error, or a
  status other than 200/201 (304 on ``/bloom`` is success, a 203
  degraded answer is not: it skips the path being measured);
* a *violation* (makes the run incorrect, exit code 1): a wrong
  verdict, a non-2xx body that is not the documented error envelope, or
  a post-run audit miss (an acked revocation not reading revoked, an
  acked claim answering 404).  Every violation is also a failed op.

A correct reply slower than the paper's section 4.4 budget is neither:
it is counted apart (``loadgen.over_budget_per_kop``), because today
the program's own GC pauses produce a few on every saturated run and
the benchmark driver wants workloads whose operations do not fail.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from httpclient import encode_request
from workloads import Req

STATUS_BUDGET_MS = 250.0  # section 4.4: revocation check (and filter sync)
WRITE_BUDGET_MS = 100.0  # section 4.4: ledger operation

ERROR_STATUS = {
    "degraded": 203, "malformed": 400, "not_found": 404,
    "method_not_allowed": 405, "too_large": 413, "shed": 429,
    "internal": 500, "unavailable": 503, "deadline": 504,
}

WRITE_KINDS = ("claim", "revoke", "unrevoke")


def over_budget(kind: str, latency_ms: float) -> bool:
    return latency_ms > (WRITE_BUDGET_MS if kind in WRITE_KINDS else STATUS_BUDGET_MS)


class Oracle:
    def __init__(self) -> None:
        self.ids: List[str] = []  # index -> wire id (population, then new claims)
        self.revoked: List[bool] = []
        self._inflight: List[int] = []  # writes in flight per index
        self._version: List[int] = []  # bumped when a write starts or is acked
        self.acked_revocations = 0
        self.written: set = set()  # indices claimed or flipped since set-up
        self.bloom_etag: Optional[str] = None
        self.deltas_head = 0
        self.violations: List[str] = []

    # -- population ---------------------------------------------------------------

    def add(self, wire_id: str, revoked: bool) -> int:
        self.ids.append(wire_id)
        self.revoked.append(revoked)
        self._inflight.append(0)
        self._version.append(0)
        return len(self.ids) - 1

    # -- wire ---------------------------------------------------------------------

    def encode(self, req: Req, number: int) -> bytes:
        """Wire bytes of ``req`` against the ids this run was given.

        Every request carries its stream position as ``x-request-id``:
        the program ignores it, the traced run joins client and server
        spans on it, and sending it always keeps the bytes the same in
        traced and untraced runs.
        """
        kind = req.kind
        tag = {"x-request-id": str(number)}
        if kind == "status":
            return encode_request("GET", f"/status/{self.ids[req.ids[0]]}", headers=tag)
        if kind == "status_batch":
            body = json.dumps({"ids": [self.ids[i] for i in req.ids]})
            return encode_request("POST", "/status", body.encode(), tag)
        if kind == "claim":
            body = json.dumps({"content": req.content})
            return encode_request("POST", "/claims", body.encode(), tag)
        if kind in ("revoke", "unrevoke"):
            body = json.dumps({"id": self.ids[req.ids[0]], "action": kind})
            return encode_request("POST", "/revocations", body.encode(), tag)
        if kind == "bloom":
            if self.bloom_etag:
                tag["if-none-match"] = self.bloom_etag
            return encode_request("GET", "/bloom", headers=tag)
        if kind == "deltas":
            return encode_request(
                "GET", f"/deltas?since={self.deltas_head}", headers=tag
            )
        raise ValueError(kind)

    # -- the in-flight rule ---------------------------------------------------------

    def begin(self, req: Req) -> Tuple[int, ...]:
        """Call at send time; returns the snapshot ``check`` needs."""
        if req.kind in ("revoke", "unrevoke"):
            index = req.ids[0]
            self._inflight[index] += 1
            self._version[index] += 1
        if req.kind == "deltas":
            return (self.acked_revocations,)
        return tuple(self._version[i] for i in req.ids)

    def _settled(self, index: int, seen_version: int) -> bool:
        return not self._inflight[index] and self._version[index] == seen_version

    # -- checking -------------------------------------------------------------------

    def check(
        self,
        number: int,
        req: Req,
        snapshot: Tuple[int, ...],
        status: int,
        headers: Dict[str, str],
        body: bytes,
    ) -> int:
        """Judge one reply; returns how many of the request's ops failed."""
        ops = max(len(req.ids), 1)
        expected = 201 if req.kind == "claim" else 200
        accepted = status == expected or (req.kind == "bloom" and status == 304)
        if not accepted:
            # A refused flip leaves the id's state unknown: its in-flight
            # mark is never cleared, so later reads accept either verdict.
            self._check_envelope(number, req, status, body)
            return ops
        failed = 0
        if req.kind in ("status", "status_batch"):
            failed = self._check_verdicts(number, req, snapshot, body)
        elif req.kind == "claim":
            self.written.add(self.add(json.loads(body)["id"], False))
        elif req.kind in ("revoke", "unrevoke"):
            index = req.ids[0]
            self.written.add(index)
            self.revoked[index] = req.kind == "revoke"
            self._inflight[index] -= 1
            self._version[index] += 1
            self.acked_revocations += 1
        elif req.kind == "bloom":
            self.bloom_etag = headers.get("etag", self.bloom_etag)
        elif req.kind == "deltas":
            head = json.loads(body)["head"]
            if head < snapshot[0]:
                self._violate(
                    number, req,
                    f"/deltas head {head} behind {snapshot[0]} acked revocations",
                )
                failed = 1
            self.deltas_head = head
        return failed

    def _check_verdicts(
        self, number: int, req: Req, snapshot: Tuple[int, ...], body: bytes
    ) -> int:
        payload = json.loads(body)
        results = payload["results"] if req.kind == "status_batch" else [payload]
        if len(results) != len(req.ids):
            self._violate(number, req, f"{len(results)} verdicts for {len(req.ids)} ids")
            return len(req.ids)
        failed = 0
        for index, seen, result in zip(req.ids, snapshot, results):
            if result.get("error") is not None or result.get("degraded"):
                failed += 1  # degraded or errored inside a 200 batch
            elif result.get("id") != self.ids[index]:
                self._violate(number, req, f"answer names {result.get('id')!r}")
                failed += 1
            elif self._settled(index, seen) and result["revoked"] != self.revoked[index]:
                self._violate(
                    number, req,
                    f"{self.ids[index]} read revoked={result['revoked']}, "
                    f"truth is {self.revoked[index]}",
                )
                failed += 1
        return failed

    def _check_envelope(self, number: int, req: Req, status: int, body: bytes) -> None:
        try:
            error = json.loads(body)["error"]
            shaped = (
                ERROR_STATUS.get(error["kind"]) == status == error["status"]
                and isinstance(error["detail"], str)
            )
        except (ValueError, KeyError, TypeError):
            shaped = False
        if not shaped:
            self._violate(number, req, f"status {status} without the error envelope")

    def _violate(self, number: int, req: Req, what: str) -> None:
        self.violations.append(f"request {number} ({req.kind}): {what}")

    # -- post-run audit ---------------------------------------------------------------

    def audit(self, indices: List[int], status: int, results: List[dict]) -> int:
        """Check one batch read of ``indices``; returns the number of misses."""
        if status != 200 or len(results) != len(indices):
            self.violations.append(f"audit: batch read answered {status}")
            return len(indices)
        misses = 0
        for index, result in zip(indices, results):
            error = result.get("error") or {}
            if self._inflight[index]:
                continue  # a flip was refused mid-run; state unknown
            if error.get("kind") == "not_found":
                what = "acked claim answers 404"
            elif self.revoked[index] and not result.get("revoked"):
                what = "acked revocation does not read revoked"
            elif not self.revoked[index] and result.get("revoked") and not error:
                what = "reads revoked, truth is not revoked"
            else:
                continue
            misses += 1
            self.violations.append(f"audit: {self.ids[index]} {what}")
        return misses
