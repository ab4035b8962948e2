"""``modexp`` is the builtin ``pow`` on its whole domain, from any thread."""

import sys
import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.hashing import sha256_int
from repro.crypto.modexp import modexp


def _outcome(function, *args):
    try:
        return function(*args)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@st.composite
def _triples(draw):
    """Moduli of 2..2,048 bits, odd and even, with the edge bases and exponents."""
    bits = draw(st.integers(2, 2048))
    mod = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    exp = draw(st.sampled_from([0, 1, 2, 65537]) | st.integers(0, (1 << bits) - 1))
    base = draw(st.sampled_from([0, 1, mod - 1]) | st.integers(0, mod - 1))
    return base, exp, mod


@settings(max_examples=300, deadline=None)
@given(_triples())
def test_equals_pow(triple):
    assert modexp(*triple) == pow(*triple)


@settings(max_examples=150, deadline=None)
@given(
    base=st.integers(-(2**70), 2**70) | st.floats(allow_nan=False) | st.booleans(),
    exp=st.integers(-5, 2**70) | st.just(2.0),
    mod=st.integers(-(2**70), 2**70) | st.sampled_from([0, 1, 2, 7.0]),
)
def test_refused_domain_answers_and_raises_as_pow_does(base, exp, mod):
    assert _outcome(modexp, base, exp, mod) == _outcome(pow, base, exp, mod)


def test_two_threads_sign_what_one_does():
    """Scratch is per thread: interleaved signers never share a BIGNUM."""
    key = rsa.generate_keypair(512, np.random.default_rng(77))
    digests = [
        [sha256_int(b"%d:%d" % (thread, index)) for index in range(200)]
        for thread in range(2)
    ]
    expected = [[key.sign_int(digest) for digest in batch] for batch in digests]
    signed = [None, None]
    barrier = threading.Barrier(2)

    def sign(slot):
        barrier.wait(timeout=10)
        signed[slot] = [key.sign_int(digest) for digest in digests[slot]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sign, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert signed == expected
    assert all(
        key.public.verify_int(digest, signature)
        for batch, signatures in zip(digests, signed)
        for digest, signature in zip(batch, signatures)
    )
