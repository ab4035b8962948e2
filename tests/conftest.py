"""Shared fixtures for the IRS test suite.

Expensive objects (RSA key pairs, deployments, watermarked photos) are
session-scoped where tests only read them; tests that mutate state build
their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IrsDeployment
from repro.crypto.signatures import KeyPair
from repro.media.image import generate_photo
from repro.media.watermark import WatermarkCodec


def pytest_addoption(parser, pluginmanager):
    # pyproject.toml sets a per-test `timeout`, which pytest-timeout (the
    # dev extra) enforces.  Without the plugin, claim the key here so the
    # ceiling stays written down and pytest does not warn about it.
    if not pluginmanager.hasplugin("timeout"):
        parser.addini(
            "timeout", "per-test wall-clock ceiling in seconds (pytest-timeout)"
        )


@pytest.fixture(scope="session")
def session_keypair() -> KeyPair:
    """One reusable 512-bit key pair (keygen costs ~30 ms)."""
    return KeyPair.generate(bits=512, rng=np.random.default_rng(1234))


@pytest.fixture(scope="session")
def second_keypair() -> KeyPair:
    return KeyPair.generate(bits=512, rng=np.random.default_rng(5678))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture()
def deployment() -> IrsDeployment:
    """A fresh single-ledger deployment (mutable per test)."""
    return IrsDeployment.create(seed=7)


@pytest.fixture(scope="session")
def codec() -> WatermarkCodec:
    return WatermarkCodec(payload_len=12)


@pytest.fixture(scope="session")
def base_photo():
    """A fixed 128x128 synthetic photo."""
    return generate_photo(seed=11, height=128, width=128)


@pytest.fixture(scope="session")
def large_photo():
    """A 256x256 photo with more watermark capacity."""
    return generate_photo(seed=12, height=256, width=256)
