"""``modexp`` is the builtin ``pow`` on its whole domain, from any thread, whatever it keeps."""

import builtins
import ctypes
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.hashing import sha256_int
from repro.crypto.modexp import _KEPT, _bind, modexp


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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    widths=st.lists(st.integers(12, 2048), min_size=1, max_size=8),
)
def test_a_sequence_that_evicts_and_revisits_equals_pow(seed, widths):
    """3x the map's size in distinct odd moduli, each met twice: a kept form serves only its own."""
    rng = random.Random(seed)
    moduli = {3, 5, 7}
    while len(moduli) < 3 * _KEPT:
        bits = rng.choice(widths)
        moduli.add(rng.getrandbits(bits) | 1 << (bits - 1) | 1)
    visits = sorted(moduli) * 2
    rng.shuffle(visits)
    calls = []
    for mod in visits:
        base = rng.choice([0, 1, mod - 1, rng.randrange(mod)])
        exp = rng.choice([0, 1, 65537, 2**32 - 1, 2**32, mod - 2, rng.getrandbits(mod.bit_length())])
        calls.append((base, exp, mod))
        if not rng.randrange(8):  # the refused domain, between two kept moduli
            calls.append(rng.choice([(base, exp, mod + 1), (base, -1, mod), (mod, exp, mod), (base, 2.0, mod)]))
    assert [_outcome(modexp, *call) for call in calls] == [_outcome(pow, *call) for call in calls]


def _rss_kb():
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmRSS")).split()[1])


def test_eviction_returns_what_it_took():
    """3,000 distinct moduli, ten passes: the map holds ``_KEPT`` pairs, not 3,000."""
    rng = np.random.default_rng(24)
    moduli = [int.from_bytes(rng.bytes(64), "big") | (1 << 511) | 1 for _ in range(3000)]
    for mod in moduli:  # first pass: the allocator's arenas reach their working size
        assert modexp(5, 65537, mod) == pow(5, 65537, mod)
    before = _rss_kb()
    for _ in range(10):
        for mod in moduli:
            modexp(5, 65537, mod)
    assert _rss_kb() - before < 1024


def test_two_threads_sign_what_one_does():
    """Scratch and kept forms are per thread: interleaved signers share nothing native."""
    keys = [rsa.generate_keypair(512, np.random.default_rng(77 + slot)) for slot in range(2)]
    digests = [
        [sha256_int(b"%d:%d" % (thread, index)) for index in range(200)]
        for thread in range(2)
    ]
    expected = [[key.sign_int(digest) for digest in batch] for key, batch in zip(keys, digests)]
    signed, verified = [None, None], [None, None]
    barrier = threading.Barrier(2)

    def sign(slot):
        key = keys[slot]
        barrier.wait(timeout=10)
        signed[slot] = [key.sign_int(digest) for digest in digests[slot]]
        verified[slot] = [
            key.public.verify_int(digest, signature)
            and not keys[1 - slot].public.verify_int(digest, signature)
            for digest, signature in zip(digests[slot], signed[slot])
        ]

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
    assert verified == [[True] * 200] * 2
    # Both threads' native state went with them; this thread's is its own.
    assert [keys[0].sign_int(digest) for digest in digests[0]] == expected[0]



class _CountedLib:
    """A ``CDLL`` whose ``BN_MONT_CTX_set`` calls are counted (for a fresh ``_bind``)."""

    def __init__(self, lib, sets):
        self._lib, self._sets, self._functions = lib, sets, {}

    def __getattr__(self, name):
        if name != "BN_MONT_CTX_set":
            return getattr(self._lib, name)
        if name not in self._functions:
            self._functions[name] = _Counted(getattr(self._lib, name), self._sets)
        return self._functions[name]


class _Counted:
    def __init__(self, function, calls):
        self.__dict__.update(function=function, calls=calls)

    def __setattr__(self, name, value):  # restype / argtypes reach the real function
        setattr(self.function, name, value)

    def __call__(self, *args):
        self.calls.append(args)
        return self.function(*args)


def test_a_miss_sets_a_montgomery_form_and_never_calls_pow():
    """What a kept map miss costs, as a count: one ``BN_MONT_CTX_set``, no ``pow``.

    Twice ``_KEPT`` distinct moduli in rotation make every call a miss
    (the case where one key per owner could fall behind the builtin);
    revisiting the last ``_KEPT`` sets nothing more.
    """
    sets = []
    real_cdll = ctypes.CDLL
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ctypes, "CDLL", lambda path: _CountedLib(real_cdll(path), sets))
        counted = _bind()
    rng = np.random.default_rng(27)
    moduli = [int.from_bytes(rng.bytes(64), "big") | (1 << 511) | 1 for _ in range(2 * _KEPT)]
    expected = [pow(5, 65537, mod) for mod in moduli] + [pow(7, 65537, mod) for mod in moduli[-_KEPT:]]
    del sets[:]  # the bind-time vectors' one form

    def no_pow(*args):
        raise AssertionError(f"pow{args!r} called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "pow", no_pow)
        results = [counted(5, 65537, mod) for mod in moduli]
        misses = len(sets)
        results += [counted(7, 65537, mod) for mod in moduli[-_KEPT:]]
    assert results == expected
    assert (misses, len(sets)) == (len(moduli), len(moduli))
