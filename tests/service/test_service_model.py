"""The live service against its reference model (``model.py``).

A hypothesis state machine serves a fresh in-process cluster per
example (one event loop, owned by the example and closed at teardown)
and fires requests at it over loopback through ``HttpClient``:

* claims from a small pool of contents, so re-claims are common;
* revocations and unrevocations of owned and never-claimed ids;
* status reads, one id or a batch of 1-64, and ``/labels``;
* ``/deltas`` from any cursor, and ``/bloom`` with and without the
  last ETag.

Reads and writes go with no ``X-Deadline-Ms``, the §4.4 budget, or a
budget spent on arrival, so ``504`` writes and ``203`` reads happen.
Every reply is held to :class:`ServiceModel`.  A write answered early
keeps running on the loop, so each write's step drains the loop before
the next request, and the next exact read decides what it did.
"""

import asyncio

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from tests.service.conftest import serve
from tests.service.model import ModelViolation, ServiceModel, envelope

CONTENTS = [f"photo-{n}" for n in range(4)]
# Each content's id, claimed or not yet, and one id that no content names.
IDS = [ServiceModel.claim_id(content) for content in CONTENTS] + ["irs1:irs1:42"]
ids = st.sampled_from(IDS)
deadlines = st.sampled_from([None, "250", "0.001"])


async def drained() -> None:
    """Return once no callback is ready: a write answered early has run out."""
    loop = asyncio.get_running_loop()
    await asyncio.sleep(0)
    while loop._ready:  # asyncio's ready queue; no shard is delayed, so no timer is due
        await asyncio.sleep(0)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.served = serve(with_obs=False)
        self.env = self.loop.run_until_complete(self.served.__aenter__())
        self.model = ServiceModel()
        self.etag = None

    def teardown(self):
        loop = self.loop
        loop.run_until_complete(self.served.__aexit__(None, None, None))
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    def request(self, method, path, body=None, deadline=None, headers=None):
        headers = dict(headers or {})
        if deadline is not None:
            headers["x-deadline-ms"] = deadline
        return self.loop.run_until_complete(
            self.env.client.request(method, path, body, headers)
        )

    def write(self, path, body, deadline):
        response = self.request("POST", path, body, deadline)
        self.loop.run_until_complete(drained())
        return response

    @rule(content=st.sampled_from(CONTENTS), initially_revoked=st.booleans(),
          custodial=st.booleans(), deadline=deadlines)
    def claim(self, content, initially_revoked, custodial, deadline):
        self.model.send_claim(content, initially_revoked)
        response = self.write("/claims", {
            "content": content, "initially_revoked": initially_revoked,
            "custodial": custodial,
        }, deadline)
        self.model.claim_reply(content, initially_revoked, response)
        self.model.settle()

    @rule(id_=ids, action=st.sampled_from(["revoke", "unrevoke"]), deadline=deadlines)
    def revoke(self, id_, action, deadline):
        self.model.send_revocation(id_, action)
        response = self.write("/revocations", {"id": id_, "action": action}, deadline)
        self.model.revocation_reply(id_, action, response)
        self.model.settle()

    @rule(id_=ids, deadline=deadlines)
    def status(self, id_, deadline):
        response = self.request("GET", f"/status/{id_}", deadline=deadline)
        self.model.status_reply(id_, response)

    @rule(batch=st.lists(ids, min_size=1, max_size=64), deadline=deadlines)
    def status_batch(self, batch, deadline):
        response = self.request("POST", "/status", {"ids": batch}, deadline)
        self.model.batch_reply(batch, response)

    @rule(id_=ids, deadline=deadlines)
    def labels(self, id_, deadline):
        response = self.request("POST", "/labels", {"id": id_}, deadline)
        self.model.labels_reply(id_, response)

    @rule(since=st.integers(-1, 48))
    def deltas(self, since):
        self.model.deltas_reply(since, self.request("GET", f"/deltas?since={since}"))

    @rule(conditional=st.booleans(), deadline=deadlines)
    def bloom(self, conditional, deadline):
        etag = self.etag if conditional else None
        headers = {"if-none-match": etag} if etag else None
        response = self.request("GET", "/bloom", deadline=deadline, headers=headers)
        self.model.bloom_reply(response, etag)
        if response.status == 200:
            self.etag = response.headers["etag"]


ServiceMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, derandomize=True, deadline=None,
)
TestServiceModel = ServiceMachine.TestCase


# -- the envelope check itself -------------------------------------------------------

def test_the_envelope_check_accepts_a_documented_failure():
    assert envelope(429, {"error": {"kind": "shed", "status": 429, "detail": "x"}}) == "shed"


@pytest.mark.parametrize("status, body, complaint", [
    (500, {"error": {"kind": "gremlins", "status": 500, "detail": "x"}},
     "undocumented error kind"),
    (500, {"error": {"kind": "shed", "status": 429, "detail": "x"}}, "documented as 429"),
    (500, {"error": None}, "without an error envelope"),
    (200, b"bytes", "not a JSON object"),
], ids=["undocumented-kind", "status-mismatch", "no-envelope", "not-an-object"])
def test_the_envelope_check_refuses(status, body, complaint):
    with pytest.raises(ModelViolation, match=complaint):
        envelope(status, body)
