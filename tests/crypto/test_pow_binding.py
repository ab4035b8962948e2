"""The fallback is a path on a supported platform: RSA and the TSA again, on ``pow``.

Every test class of ``test_rsa_signatures`` and ``test_timestamp`` is
collected a second time here, under one fixture that rebinds
``rsa.modexp`` to the builtin it stands in for.
"""

import pytest

from repro.crypto import rsa
from tests.crypto import test_rsa_signatures, test_timestamp


@pytest.fixture(autouse=True)
def pow_binding(monkeypatch):
    monkeypatch.setattr(rsa, "modexp", pow)


for _module in (test_rsa_signatures, test_timestamp):
    for _name, _suite in list(vars(_module).items()):
        if _name.startswith("Test"):
            globals()[f"{_name}OnPow"] = type(f"{_name}OnPow", (_suite,), {})


def test_the_fixture_rebinds(pow_binding):
    assert rsa.modexp is pow
