"""What a write costs in RSA, as a count (the ``test_seal_once`` idiom).

A claim is an owner signature and a TSA token, a revocation a signed
challenge; each replica verifies what it stores.  Moving the owner's key
off the server (ROADMAP item 3) is judged against this number.
"""

import asyncio
import json

from repro.crypto import rsa
from repro.service.app import ServiceApp
from repro.service.cluster import LiveCluster
from repro.service.protocol import HttpRequest


def _post(path, payload):
    return HttpRequest("POST", path, path, {}, {}, json.dumps(payload).encode())


def test_claim_revoke_unrevoke_is_sixteen_modexps(monkeypatch):
    exponent_bits = []
    real = rsa.modexp

    def counted(base, exp, mod):
        exponent_bits.append(exp.bit_length())
        return real(base, exp, mod)

    async def inner():
        app = ServiceApp(LiveCluster(4))  # keys are generated before counting starts
        monkeypatch.setattr(rsa, "modexp", counted)
        status, body, _ = await app.dispatch(_post("/claims", {"content": "photo"}))
        assert status == 201
        claimed = json.loads(body)["id"]
        for action in ("revoke", "unrevoke"):
            status, _, _ = await app.dispatch(
                _post("/revocations", {"id": claimed, "action": action})
            )
            assert status == 200
        await asyncio.sleep(0.3)  # hint replay and repair verify nothing more

    asyncio.run(inner())
    verifies = [bits for bits in exponent_bits if bits == 17]  # e = 65537
    # 4 signatures (claim, TSA token, two challenges) x 2 CRT halves;
    # 8 verifies: the claim's signature and token on each of 3 replicas,
    # one ownership proof per flip.
    assert (len(exponent_bits) - len(verifies), len(verifies)) == (8, 8)
