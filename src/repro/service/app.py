"""The HTTP application: routing, handlers, answer→envelope mapping.

One :class:`ServiceApp` owns a :class:`LiveCluster` and translates the
wire contract documented in ``docs/api.md`` onto the frontend's async
callback API.  Design points worth naming:

* **One bridge.**  Every handler awaits the frontend's callbacks
  through :meth:`ServiceApp._call`.
* **Deadlines are the client's, within the server's.**  A finite
  ``X-Deadline-Ms`` header becomes a ``Deadline`` that may shorten a
  read's one timer, the frontend's backstop, but never lengthen it; a
  write (and ``/bloom``) is bounded here with ``asyncio.wait_for``.
  The paper's §4.4 budgets are enforced end to end, not advisory.
* **Degraded ≠ failed.**  A Bloom-backed answer is served as ``203``
  with the advisory ``error.kind="degraded"`` envelope (fail-closed,
  still an answer); shed is ``429``, deadline ``504``, quorum-dark
  with degraded reads disabled ``503``, never claimed ``404`` — each
  read from the answer's ``ClusterAnswer.cause``, never its text.
* **Every response is counted once** through ``repro.obs``, parser
  refusals included: a ``service.request`` span per routed request
  plus the ``service_*`` counters and latency histogram tabled in
  ``docs/observability.md``.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from itertools import compress, repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.assembly import KEY_BITS
from repro.cluster.frontend import ClusterAnswer
from repro.cluster.shard import CLAIM_COLLISION
from repro.core.identifiers import IdentifierError, PhotoIdentifier, string_prefix
from repro.crypto.signatures import KeyPair
from repro.crypto.hashing import sha256_hex
from repro.obs.metrics import Handles
from repro.resilience.policy import Deadline
from repro.service.cluster import LiveCluster
from repro.service.errors import ERROR_STATUS, ApiError, error_envelope
from repro.service.protocol import (
    HttpRequest,
    read_request,
    render_response,
)
from repro.service.routes import match_route

__all__ = ["ServiceApp", "ServiceServer"]

DEADLINE_HEADER = "x-deadline-ms"
MAX_BATCH_IDS = 1024
MAX_DELTA_PAGE = 1000
Params = Dict[str, str]  # a route's path parameters
Reply = Tuple[int, Any, Dict[str, str]]  # status, body, extra headers


class ServiceApp:
    """Handlers + dispatch over one live cluster."""

    def __init__(self, cluster: LiveCluster, obs=None):
        self.obs = obs
        if obs is not None:  # every request's metrics, each looked up once
            self._requests = Handles(obs.counter, "service_requests_total", "route")
            self._responses = Handles(obs.counter, "service_responses_total", "code")
            self.gauges, self.histograms = Handles(obs.gauge), Handles(obs.histogram)
        self.cluster = cluster
        self.frontend = self.cluster.frontend
        self._loop = asyncio.get_running_loop()
        # One service-owner keypair signs all custodial claims and
        # revocations (per-claim RSA keygen would blow the §4.4 budget
        # by itself); seeded, so runs reproduce.
        self.owner_keypair = KeyPair.generate(
            bits=KEY_BITS,
            rng=self.cluster.rngs.stream("service-owner"),
        )
        # serial -> signing keypair for /revocations (service claims
        # plus any seeded population registered via adopt_population).
        self._owners: Dict[int, KeyPair] = {}
        # Service-local acked-revocation feed served by /deltas.
        self._deltas: List[Dict[str, Any]] = []
        self._bloom_cache: Optional[Tuple[str, bytes, Dict[str, str]]] = None
        # Single-flight guard for the Bloom export: the full-record
        # scan runs off-loop in an executor, and only one request per
        # chain head pays for it.
        self._bloom_lock = asyncio.Lock()
        self._inflight = 0
        # A filter miss renders as a fixed template around its serial,
        # and a batch of canonical ids on this ledger parses as one.
        prefix = string_prefix(self.cluster.cluster_id)
        miss = self._status_body(ClusterAnswer(prefix + "\0", False, "filter"))[1]
        self._miss_template = json.dumps(miss).rsplit("\\u0000", 1)
        # At most 19 digits, so below 2**64; no leading zero, so canonical.
        self._canonical_id = re.compile(re.escape(prefix) + "(0|[1-9][0-9]{0,18})\n")

    # -- population helpers -----------------------------------------------------------

    def adopt_population(self, population) -> None:
        """Register seeded identifiers so /revocations can sign for them."""
        for identifier in population.identifiers:
            self._owners[identifier.serial] = population.owner

    # -- deadline plumbing -------------------------------------------------------------

    def _deadline_from(self, request: HttpRequest) -> Optional[Deadline]:
        raw = request.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            ms = float(raw)
        except ValueError as exc:
            raise ApiError("malformed", f"bad {DEADLINE_HEADER} header: {raw!r}") from exc
        if ms <= 0.0 or not math.isfinite(ms):
            must = "positive" if ms <= 0.0 else "finite"
            raise ApiError("malformed", f"{DEADLINE_HEADER} must be {must}, got {raw!r}")
        return Deadline.after(self.cluster.clock(), ms / 1000.0)

    def _call(self, method, *args, calls: int = 1, **kwargs) -> asyncio.Future:
        """Start a frontend ``*_async`` call; a future of its callbacks' arguments.

        The callback goes last among the positional arguments (as in
        :meth:`ClusterFrontend._sync`); the future resolves to the list
        of its argument tuples once it has fired ``calls`` times.
        """
        fut: asyncio.Future = self._loop.create_future()
        results: List[tuple] = []

        def _done(*result) -> None:
            results.append(result)
            if len(results) == calls and not fut.done():
                fut.set_result(results)

        method(*args, _done, **kwargs)
        return fut

    async def _bounded(self, awaitable, deadline: Optional[Deadline]):
        """Await a write or export under the request budget; expiry is a 504."""
        if deadline is None:
            return await awaitable
        remaining = deadline.remaining(self.cluster.clock())
        if remaining <= 0.0:
            raise ApiError("deadline", "request budget exhausted")
        try:
            return await asyncio.wait_for(awaitable, timeout=remaining)
        except asyncio.TimeoutError as exc:
            raise ApiError(
                "deadline", "request budget exhausted before quorum"
            ) from exc

    # -- identifier parsing ------------------------------------------------------------

    def _parse_identifier(self, raw: Any) -> PhotoIdentifier:
        if not isinstance(raw, str):
            raise ApiError("malformed", "identifier must be a string")
        try:
            identifier = PhotoIdentifier.from_string(raw)
        except IdentifierError as exc:
            raise ApiError("malformed", f"bad identifier {raw!r}: {exc}") from exc
        if identifier.ledger_id != self.cluster.cluster_id:
            raise ApiError(
                "not_found",
                f"identifier names ledger {identifier.ledger_id!r}, "
                f"this cluster serves {self.cluster.cluster_id!r}",
            )
        return identifier

    def _parse_batch(self, raw_ids: List[Any]) -> Tuple[List[int], List[str]]:
        """Each id's serial and serial text, as :meth:`_parse_identifier` reads them.

        Canonical ids on this ledger (a page view) are split out of one
        string; any other batch (``+5``, ``٥``, an id to refuse) is read
        id by id, so the first refused id in list order raises as before.
        """
        try:
            parts = self._canonical_id.split("\n".join(raw_ids) + "\n")
        except TypeError:  # a non-string id
            parts = [None]
        texts = parts[1::2]  # more texts than ids: an id with a newline inside
        if len(texts) == len(raw_ids) and not any(parts[::2]):  # nothing else between
            return list(map(int, texts)), texts
        serials = [self._parse_identifier(raw).serial for raw in raw_ids]
        return serials, list(map(str, serials))

    # -- ClusterAnswer -> wire ---------------------------------------------------------

    def _status_body(self, answer: ClusterAnswer) -> Tuple[int, Dict[str, Any]]:
        """Map one frontend answer onto (HTTP status, JSON body)."""
        body: Dict[str, Any] = {
            "id": answer.identifier,
            "revoked": answer.revoked,
            "source": answer.source,
            "state": answer.state,
            "epoch": answer.epoch,
            "answered_by": answer.answered_by,
            "degraded": answer.degraded,
            "error": None,
        }
        if answer.ok and not answer.degraded:
            return 200, body
        if answer.degraded:
            # Filter-backed fail-closed answer: an answer, not a failure.
            kind = "degraded"
            detail = {
                "deadline": "budget exhausted; answered from the filter",
                "shed": "admission refused; answered from the filter",
            }.get(answer.cause or "", "quorum unreachable; answered from the filter")
        elif answer.cause == "not_found":
            kind, detail = "not_found", answer.error
        elif answer.cause == "shed":
            kind, detail = "shed", answer.error or "load shed"
        elif answer.cause == "deadline":
            kind, detail = "deadline", answer.error or "deadline exceeded"
        else:
            kind, detail = "unavailable", answer.error or "quorum unreachable"
        body.update(error_envelope(kind, detail))
        return ERROR_STATUS[kind], body

    # -- handlers ----------------------------------------------------------------------

    async def handle_claims(self, request: HttpRequest, params: Params) -> Reply:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ApiError("malformed", "body must be a JSON object")
        content_hash = payload.get("content_hash")
        if not isinstance(content_hash, str) or not content_hash:
            content = payload.get("content")
            if not isinstance(content, str) or not content:
                raise ApiError(
                    "malformed", "body needs 'content_hash' or 'content'"
                )
            content_hash = sha256_hex(content.encode("utf-8"))
        initially_revoked = payload.get("initially_revoked", False)
        custodial = payload.get("custodial", True)
        for name, flag in (("initially_revoked", initially_revoked), ("custodial", custodial)):
            if not isinstance(flag, bool):
                raise ApiError("malformed", f"'{name}' must be true or false, got {flag!r}")
        deadline = self._deadline_from(request)
        signature = self.owner_keypair.sign(content_hash.encode("utf-8"))
        [(identifier, error)] = await self._bounded(
            self._call(
                self.frontend.claim_async,
                content_hash,
                signature,
                self.owner_keypair.public,
                initially_revoked=initially_revoked,
                custodial=custodial,
            ),
            deadline,
        )
        if error == CLAIM_COLLISION:
            raise ApiError("malformed", f"{identifier.to_string()}: {error}")
        if error is not None:
            raise ApiError("unavailable", error)
        self._owners[identifier.serial] = self.owner_keypair
        return 201, {
            "id": identifier.to_string(),
            "content_hash": content_hash,
            "custodial": custodial,
            "error": None,
        }, {}

    async def handle_labels(self, request: HttpRequest, params: Params) -> Reply:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ApiError("malformed", "body must be a JSON object")
        identifier = self._parse_identifier(payload.get("id"))
        # Label channels only for an id a shard quorum says is claimed:
        # any other answer (degraded included) is returned as it is.
        answer = await self._status(
            identifier, self._deadline_from(request), use_filter=False
        )
        status, body = self._status_body(answer)
        if status != 200:
            return status, body, {}
        return 200, {
            "id": identifier.to_string(),
            "metadata": identifier.to_string(),
            "watermark_hex": identifier.to_compact().hex(),
            "revoked": answer.revoked,
            "error": None,
        }, {}

    async def handle_revocations(self, request: HttpRequest, params: Params) -> Reply:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ApiError("malformed", "body must be a JSON object")
        identifier = self._parse_identifier(payload.get("id"))
        action = payload.get("action", "revoke")
        if action not in ("revoke", "unrevoke"):
            raise ApiError(
                "malformed", f"action must be revoke|unrevoke, got {action!r}"
            )
        keypair = self._owners.get(identifier.serial)
        if keypair is None:
            raise ApiError(
                "not_found",
                f"{identifier.to_string()} has no registered owner key here",
            )
        deadline = self._deadline_from(request)
        [(outcome, error)] = await self._bounded(
            self._call(
                self.frontend.revoke_async, identifier, keypair, action=action
            ),
            deadline,
        )
        if error is not None:
            # Past the owner-key lookup, a failed revocation is the
            # cluster's to answer for, whatever a replica said.
            raise ApiError("unavailable", error)
        entry = {
            "seq": len(self._deltas) + 1,
            "id": identifier.to_string(),
            "action": action,
            "epoch": outcome.get("epoch", -1) if outcome else -1,
        }
        self._deltas.append(entry)
        return 200, {
            "id": identifier.to_string(),
            "action": action,
            "epoch": entry["epoch"],
            "error": None,
        }, {}

    async def _status(
        self, identifier: PhotoIdentifier, deadline: Optional[Deadline],
        use_filter: bool = True,
    ) -> ClusterAnswer:
        # The wire format (_status_body) carries no proof: a verdict read.
        [(answer,)] = await self._call(
            self.frontend.status_async, identifier,
            use_filter=use_filter, deadline=deadline, proof=False,
        )
        return answer

    async def handle_status_one(self, request: HttpRequest, params: Params) -> Reply:
        identifier = self._parse_identifier(params["id"])
        answer = await self._status(identifier, self._deadline_from(request))
        return (*self._status_body(answer), {})

    async def handle_status_batch(self, request: HttpRequest, params: Params) -> Reply:
        """A page view: ``probe_many`` answers the misses, rendered from the miss
        template, and only hits go to ``status_many_async`` (with no verdicts,
        every id: no batch filter, or an observer to tell of each id)."""
        payload = request.json()
        if not isinstance(payload, dict) or not isinstance(payload.get("ids"), list):
            raise ApiError("malformed", "body must be {'ids': [...]}")
        raw_ids = payload["ids"]
        if not raw_ids:
            raise ApiError("malformed", "'ids' must not be empty")
        if len(raw_ids) > MAX_BATCH_IDS:
            raise ApiError("too_large", f"at most {MAX_BATCH_IDS} ids per batch")
        serials, texts = self._parse_batch(raw_ids)
        deadline = self._deadline_from(request)
        verdicts = self.frontend.probe_many(serials)
        hits = list(compress(range(len(serials)), verdicts or repeat(True)))
        head, tail = self._miss_template
        fragments = [head + text + tail for text in texts]
        if hits:
            for index, answer in await self._call(
                self.frontend.status_many_async, [serials[i] for i in hits],
                use_filter=verdicts is None, deadline=deadline, proof=False,
                calls=len(hits),
            ):
                fragments[hits[index]] = json.dumps(self._status_body(answer)[1])
        # json.dumps({"results": [...], "error": None}), byte for byte.
        body = '{"results": [' + ", ".join(fragments) + '], "error": null}'
        return 200, body.encode("utf-8"), {}

    async def handle_bloom(self, request: HttpRequest, params: Params) -> Reply:
        # export_bloom scans every record to rebuild the filter — real
        # CPU work that must not run on the event loop (it would stall
        # every in-flight request; tests/service/test_async_safety.py
        # pins that). It runs in the default executor, bounded by the
        # request deadline, and the lock makes it single-flight: one
        # scan per chain head no matter how many clients ask at once.
        deadline = self._deadline_from(request)
        etag = self.cluster.chain_head()
        quoted = f'"{etag}"'
        if request.headers.get("if-none-match") == quoted:
            return 304, b"", {"etag": quoted}
        cache = self._bloom_cache
        if cache is None or cache[0] != etag:
            async with self._bloom_lock:
                cache = self._bloom_cache
                if cache is None or cache[0] != etag:
                    data, extra = await self._bounded(
                        self._loop.run_in_executor(
                            None, self.cluster.export_bloom
                        ),
                        deadline,
                    )
                    cache = (etag, data, extra)
                    self._bloom_cache = cache
        _, data, extra = cache
        headers = {
            "etag": quoted,
            "content-type": "application/octet-stream",
            **extra,
        }
        return 200, data, headers

    async def handle_deltas(self, request: HttpRequest, params: Params) -> Reply:
        raw = request.query.get("since", "0")
        try:
            since = int(raw)
        except ValueError as exc:
            raise ApiError(
                "malformed", f"'since' must be an integer, got {raw!r}"
            ) from exc
        if since < 0:
            raise ApiError("malformed", "'since' must be >= 0")
        # ``seq`` is the 1-based index, so everything after ``since``
        # is a slice, not a scan of the service's whole history.
        head = len(self._deltas)
        return 200, {
            "since": since,
            "head": head,
            "entries": self._deltas[since:since + MAX_DELTA_PAGE],
            "truncated": head - since > MAX_DELTA_PAGE,
            "error": None,
        }, {}

    async def handle_metrics(self, request: HttpRequest, params: Params) -> Reply:
        text = "# no observability attached\n"
        if self.obs is not None:
            text = self.obs.export_prometheus()
        return 200, text.encode("utf-8"), {
            "content-type": "text/plain; version=0.0.4"
        }

    async def handle_healthz(self, request: HttpRequest, params: Params) -> Reply:
        breakers = self.frontend.breakers
        open_targets = sorted(breakers.open_targets()) if breakers else []
        return 200, {
            "ok": not open_targets,
            "shards": len(self.cluster.shards),
            "shards_down": sorted(self.cluster.transport.down),
            "breakers_open": open_targets,
            "chain_head": self.cluster.chain_head(),
            "deltas": len(self._deltas),
            "error": None,
        }, {}

    # -- dispatch ----------------------------------------------------------------------

    def _envelope(self, exc: ApiError) -> Reply:
        """An :class:`ApiError` as a response, counted by kind."""
        if self.obs is not None:
            self.obs.counter("service_errors_total", kind=exc.kind).inc()
        return exc.status, error_envelope(exc.kind, exc.detail), {}

    def _respond(self, status: int, body: Any, headers: Dict[str, str]) -> Reply:
        """Encode a response body and count the response by code."""
        if isinstance(body, (dict, list)):
            body = json.dumps(body).encode("utf-8")
        if self.obs is not None:
            self._responses[status].inc()
        return status, body, headers

    def refuse(self, exc: ApiError) -> Reply:
        """The response to a request the parser refused."""
        return self._respond(*self._envelope(exc))

    async def dispatch(self, request: HttpRequest) -> Reply:
        """Route + run one request, rendering envelopes for failures."""
        started = self.cluster.clock()
        obs, span = self.obs, None
        self._inflight += 1
        if obs is not None:
            self.gauges["service_inflight"].set(self._inflight)
        try:
            route, params = match_route(request.method, request.path)
            if obs is not None:
                self._requests[route.pattern].inc()
                span = obs.start(
                    "service.request", route=route.pattern, method=request.method
                )
            handler = getattr(self, route.handler)
            status, body, headers = await handler(request, params)
        except ApiError as exc:
            status, body, headers = self._envelope(exc)
        except Exception as exc:  # surface handler bugs as 500 envelopes
            status, body, headers = self._envelope(
                ApiError("internal", f"{type(exc).__name__}: {exc}")
            )
        finally:
            self._inflight -= 1
            if obs is not None:
                self.gauges["service_inflight"].set(self._inflight)
        status, raw, headers = self._respond(status, body, headers)
        if obs is not None:
            self.histograms["service_request_latency_seconds"].observe(
                self.cluster.clock() - started
            )
            if span is not None:
                span.end(status=status)
        return status, raw, headers


class ServiceServer:
    """asyncio server wrapper: sockets in, :class:`ServiceApp` out."""

    def __init__(self, app: ServiceApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self.app.obs is not None:
            self.app.obs.counter("service_connections_total").inc()
        try:
            keep_alive = True
            while keep_alive:
                try:
                    request = await read_request(reader)
                except ApiError as exc:
                    # The stream's framing is lost: answer, then close.
                    status, raw, headers = self.app.refuse(exc)
                    keep_alive = False
                else:
                    if request is None:
                        break
                    status, raw, headers = await self.app.dispatch(request)
                    keep_alive = request.keep_alive
                writer.write(render_response(
                    status, raw,
                    content_type=headers.pop("content-type", "application/json"),
                    extra_headers=headers, keep_alive=keep_alive,
                ))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # repro-lint: allow[no-silent-except] peer hangup mid-request is normal teardown
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Benign teardown races: the peer is gone or the loop is
                # shutting down, and closing was the goal anyway.  This
                # is the coroutine's last statement, so swallowing the
                # cancellation cannot strand any further work.
                pass  # repro-lint: allow[no-silent-except] close-time teardown race

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
