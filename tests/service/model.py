"""One reference model of the HTTP service: what each reply may say.

Tier-1's state machine (``test_service_model.py``) and bench E21's
open-loop driver hold every reply to this model, and the tests in this
directory take their envelope check and body shapes from it.  It
encodes ``docs/api.md`` and §4.2's fail-closed rule:

* Per id it keeps the set of states (a :data:`World`) the ledger may
  be in.  An acknowledged write maps each of them through its op.  A
  write on the wire, or one answered ``5xx``, adds the op's states
  beside the old ones, so the id is open until an exact read picks
  one; :meth:`ServiceModel.settle` says no answered write is still
  running.
* A read must match one of those states.  A filter miss or a
  ``revoked: false`` needs one that is not revoked; an authoritative
  answer names one exactly, epoch included, so epochs never go back;
  a ``404`` needs one never claimed.
* ``/deltas`` serves the acknowledged revocations in order.  ``/bloom``
  holds every id revoked in all its states, and a ``304`` needs no
  acknowledged change since its ETag was served.
* Every non-2xx reply but a bodiless ``304``, and every ``203``,
  carries the one envelope.

What the service does today is encoded as it is: a never-claimed id's
filter read is ``200 revoked: false``, and only an authoritative read
says ``404``; a re-claim answers ``201`` with the same id and changes
no state (its ``custodial`` echoes the request, so it is not held);
``/deltas`` past the head is an empty page.  A reply the model does
not allow raises :class:`ModelViolation`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.shard import content_serial
from repro.core.identifiers import PhotoIdentifier, identifier_string
from repro.crypto.hashing import sha256_hex
from repro.filters.bloom import BloomFilter
from repro.service.app import MAX_DELTA_PAGE
from repro.service.errors import ERROR_STATUS

STATUS_KEYS = [
    "id", "revoked", "source", "state", "epoch", "answered_by", "degraded",
    "error",
]
LABEL_KEYS = ["id", "metadata", "watermark_hex", "revoked", "error"]
CLAIM_KEYS = ["id", "content_hash", "custodial", "error"]
REVOCATION_KEYS = ["id", "action", "epoch", "error"]
DELTAS_KEYS = ["since", "head", "entries", "truncated", "error"]
CLUSTER_ID = "irs1"

World = Tuple[bool, bool, int]  # claimed, revoked, epoch of the last flip
NEVER_CLAIMED: World = (False, False, 0)
Op = Tuple[str, bool]  # (claim | revoke | unrevoke, initially_revoked)


class ModelViolation(AssertionError):
    """A reply the reference model does not allow."""


def expect(condition: Any, message: str) -> None:
    if not condition:
        raise ModelViolation(message)


def apply(op: Op, world: World) -> World:
    """The state a write leaves: re-claims and repeated flips change nothing."""
    action, initially_revoked = op
    claimed, revoked, epoch = world
    if action == "claim":
        return world if claimed else (True, initially_revoked, 0)
    if claimed and revoked != (action == "revoke"):
        return (True, not revoked, epoch + 1)
    return world


def envelope(status: int, body: Any) -> Optional[str]:
    """The error kind a reply carries, after the one envelope check.

    Every non-2xx reply and every ``203`` carries ``{"error": {kind,
    status, detail}}``: a documented kind whose status is the reply's,
    and a detail.  Any other answer says ``"error": null`` (None).
    """
    expect(isinstance(body, dict), f"{status}: body is not a JSON object: {body!r}")
    error = body.get("error")
    if 200 <= status < 300 and status != 203:
        expect(error is None, f"{status} answer carries an error: {error!r}")
        return None
    expect(isinstance(error, dict), f"{status} without an error envelope: {body!r}")
    kind = error.get("kind")
    expect(kind in ERROR_STATUS, f"undocumented error kind {kind!r}")
    expect(
        error.get("status") == ERROR_STATUS[kind] == status,
        f"kind {kind!r} documented as {ERROR_STATUS[kind]}, "
        f"served as {status} with error.status {error.get('status')!r}",
    )
    expect(isinstance(error.get("detail"), str) and error["detail"], f"{kind}: no detail")
    return kind


def error_kind(response) -> Optional[str]:
    """A response's error kind, its envelope checked (``json()`` must parse)."""
    return envelope(response.status, response.json())


def content_hash(content: str) -> str:
    return sha256_hex(content.encode("utf-8"))


def reply(response, allowed: Set[int], what: str) -> Tuple[Optional[str], Dict[str, Any]]:
    """Hold a JSON reply's status to ``allowed`` and its body to the envelope."""
    expect(response.status in allowed, f"{what}: answered {response.status}, "
           f"allowed {sorted(allowed)}: {response.body[:200]!r}")
    try:
        body = response.json()
    except ValueError:
        raise ModelViolation(f"{what}: body is not JSON: {response.body[:80]!r}") from None
    return envelope(response.status, body), body


def shape(body: Any, keys: List[str], what: str) -> None:
    expect(isinstance(body, dict) and list(body) == keys, f"{what}: keys of {body!r}, want {keys}")


class ServiceModel:
    """The ledger as the service's replies have shown it, id by id."""

    def __init__(self) -> None:
        self.worlds: Dict[str, Set[World]] = {}
        self.owned: Set[str] = set()  # ids with an acknowledged claim: revocable here
        self.pending: Dict[str, List[Op]] = defaultdict(list)  # writes on the wire
        self.unsettled: Set[str] = set()  # a write answered 5xx may still be running
        self.deltas: List[Tuple[str, str, int]] = []  # acknowledged (id, action, epoch)
        self.version = 0  # acknowledged writes that changed the ledger
        self.etags: Dict[str, int] = {}  # served ETag -> version it was served at

    @staticmethod
    def claim_id(content: str) -> str:
        """The deterministic id a claim of ``content`` gets."""
        return identifier_string(CLUSTER_ID, content_serial(content_hash(content)))

    def possible(self, id_: str) -> Set[World]:
        worlds = self.worlds.get(id_, {NEVER_CLAIMED})
        return worlds.union(*({apply(op, w) for w in worlds} for op in self.pending[id_]))

    def settle(self) -> None:
        """No write answered ``5xx`` is still running: the next exact read decides it."""
        self.unsettled.clear()

    def _observe(self, id_: str, allowed: Callable[[World], bool], seen: str,
                 sent_at: Optional[Set[World]] = None) -> None:
        """Hold a read to ``id_``'s states, and keep those it allows.

        ``sent_at`` is :meth:`possible` when the read was sent, for a read
        that raced writes: it may show either end, and narrows nothing.
        """
        worlds = self.possible(id_) | (sent_at or set())
        kept = {w for w in worlds if allowed(w)}
        expect(kept, f"{id_}: {seen}, but the model allows only {sorted(worlds)}")
        if sent_at is None and not self.pending[id_] and id_ not in self.unsettled:
            self.worlds[id_] = kept

    # -- writes --------------------------------------------------------------------

    def send_claim(self, content: str, initially_revoked: bool) -> str:
        id_ = self.claim_id(content)
        self.pending[id_].append(("claim", initially_revoked))
        return id_

    def send_revocation(self, id_: str, action: str) -> None:
        self.pending[id_].append((action, False))

    def _answered(self, id_: str, op: Op, status: int, epoch: Optional[int] = None) -> None:
        self.pending[id_].remove(op)
        worlds = self.worlds.get(id_, {NEVER_CLAIMED})
        after = {apply(op, w) for w in worlds}
        if status >= 500:  # it may have landed, and may yet
            self.worlds[id_] = worlds | after
            self.unsettled.add(id_)
        elif status < 300:
            if epoch is not None:
                after = {w for w in after if w[2] == epoch}
                expect(after, f"{id_}: {op[0]} acknowledged at epoch {epoch!r}, "
                       f"the model allows {sorted(worlds)} before it")
            if all(apply(op, w) != w for w in worlds):
                self.version += 1
            self.worlds[id_] = after

    def claim_reply(self, content: str, initially_revoked: bool, response) -> None:
        """``POST /claims``: ``201`` and the deterministic id, or a ``5xx`` left open."""
        id_, what = self.claim_id(content), f"POST /claims {content!r}"
        _, body = reply(response, {201, 503, 504}, what)
        if response.status == 201:
            shape(body, CLAIM_KEYS, what)
            expect(body["id"] == id_ and body["content_hash"] == content_hash(content)
                   and isinstance(body["custodial"], bool), f"{what}: answered {body}, id {id_}")
            self.owned.add(id_)
        self._answered(id_, ("claim", initially_revoked), response.status)

    def revocation_reply(self, id_: str, action: str, response) -> None:
        """``POST /revocations``: ``404`` exactly for ids with no acknowledged claim."""
        what = f"POST /revocations {action} {id_}"
        _, body = reply(response, {200, 404, 503, 504}, what)
        expect((response.status == 404) != (id_ in self.owned),
               f"{what}: answered {response.status}, acknowledged claim: {id_ in self.owned}")
        if response.status == 200:
            shape(body, REVOCATION_KEYS, what)
            expect(body["id"] == id_ and body["action"] == action, f"{what}: answered {body}")
            self.deltas.append((id_, action, body["epoch"]))
        self._answered(id_, (action, False), response.status, body.get("epoch"))

    # -- reads ---------------------------------------------------------------------

    def status_answer(self, id_: str, status: int, body: Any,
                      sent_at: Optional[Set[World]] = None) -> None:
        """One status answer: ``GET /status/{id}``, or a ``POST /status`` result."""
        what = f"status of {id_} ({status})"
        shape(body, STATUS_KEYS, what)
        kind = envelope(status, body)
        revoked, source = body["revoked"], body["source"]
        expect(body["id"] == id_ and isinstance(revoked, bool), f"{what}: {body}")
        if status == 200 and source == "filter":
            miss = dict(body, revoked=False, state=None, epoch=-1, answered_by=None,
                        degraded=False)
            expect(body == miss, f"{what}: filter answer {body}")
            self._observe(id_, lambda w: not w[1], "a filter miss", sent_at)
        elif status == 200:
            state = "revoked" if revoked else "not_revoked"
            expect(source == "shard" and body["state"] == state and not body["degraded"]
                   and body["answered_by"], f"{what}: authoritative answer {body}")
            world = (True, revoked, body["epoch"])
            self._observe(id_, world.__eq__, f"read {world}", sent_at)
        elif status == 203:
            expect(source == "degraded" and body["degraded"] is True, f"{what}: {body}")
            if not revoked:
                self._observe(id_, lambda w: not w[1], "a degraded revoked: false", sent_at)
        else:
            expect(status == 404, f"{what}: a status read answered {kind!r}")
            self._observe(id_, lambda w: not w[0], "an authoritative 404", sent_at)

    def status_reply(self, id_: str, response, sent_at: Optional[Set[World]] = None) -> None:
        _, body = reply(response, {200, 203, 404}, f"GET /status/{id_}")
        self.status_answer(id_, response.status, body, sent_at)

    def batch_reply(self, ids: List[str], response) -> None:
        """``POST /status``: a ``200`` whose results answer the ids in order."""
        _, body = reply(response, {200}, "POST /status")
        shape(body, ["results", "error"], "POST /status")
        expect(len(body["results"]) == len(ids), f"{len(body['results'])} results, {len(ids)} ids")
        for id_, result in zip(ids, body["results"]):
            error = result.get("error") if isinstance(result, dict) else None
            self.status_answer(id_, error.get("status") if isinstance(error, dict) else 200, result)

    def labels_reply(self, id_: str, response) -> None:
        """``POST /labels``: an authoritative read, or its own status answer."""
        what = f"POST /labels {id_}"
        _, body = reply(response, {200, 203, 404}, what)
        if response.status != 200:
            return self.status_answer(id_, response.status, body)
        shape(body, LABEL_KEYS, what)
        watermark = PhotoIdentifier.from_string(id_).to_compact().hex()
        revoked = body["revoked"]
        expect(body["id"] == body["metadata"] == id_ and body["watermark_hex"] == watermark
               and isinstance(revoked, bool), f"{what}: {body}")
        self._observe(id_, lambda w: w[:2] == (True, revoked), f"labels, revoked={revoked}")

    def deltas_reply(self, since: int, response) -> None:
        """``GET /deltas?since=N``: the acknowledged revocations after ``N``, gap-free."""
        what = f"GET /deltas?since={since}"
        _, body = reply(response, {200} if since >= 0 else {400}, what)
        if since < 0:
            return
        shape(body, DELTAS_KEYS, what)
        head = len(self.deltas)
        entries = [
            {"seq": seq, "id": id_, "action": action, "epoch": epoch}
            for seq, (id_, action, epoch) in enumerate(self.deltas, 1)
        ][since:since + MAX_DELTA_PAGE]
        expect(body == {"since": since, "head": head, "entries": entries,
                        "truncated": head - since > MAX_DELTA_PAGE, "error": None},
               f"{what}: served {body}, acknowledged {entries}")

    def bloom_reply(self, response, if_none_match: Optional[str] = None) -> None:
        """``GET /bloom``: every id revoked in all its states is in the served filter."""
        if response.status == 304:
            expect(self.etags.get(if_none_match) == self.version,
                   f"GET /bloom: 304 for {if_none_match}, written since or never served")
            return
        if response.status != 200:
            reply(response, {504}, "GET /bloom")
            return
        headers = response.headers
        etag = headers["etag"]
        expect(self.etags.setdefault(etag, self.version) == self.version,
               f"GET /bloom: ETag {etag} served again after an acknowledged write")
        served = BloomFilter.from_bytes(
            int(headers["x-filter-bits"]), int(headers["x-filter-hashes"]), response.body
        )
        must = [i for i in self.worlds if all(w[1] for w in self.possible(i))]
        may = [i for i in self.worlds if any(w[1] for w in self.possible(i))]
        missing = [i for i in must if PhotoIdentifier.from_string(i).to_compact() not in served]
        expect(not missing, f"GET /bloom: acknowledged revocations not in the filter: {missing}")
        expect(len(must) <= int(headers["x-filter-keys"]) <= len(may),
               f"GET /bloom: {headers['x-filter-keys']} keys, model says {len(must)}..{len(may)}")
