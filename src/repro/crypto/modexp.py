"""``modexp(base, exp, mod)``: the builtin three-argument ``pow``, run on libcrypto.

CPython's ``pow`` spends ~110 us on one 256-bit CRT half; the OpenSSL
that already computes every SHA-256 in this process takes ~16 us,
conversion included.  ``CDLL(_hashlib.__file__)`` resolves the ``BN_*``
symbols through the extension's own dependency, so nothing is searched
for or installed.  If any step of binding fails the name is the builtin
``pow``: what runs is what the platform has, never a setting.  Ints in,
int out.

It runs the way libcrypto's own ``RSA_*`` does.  A modulus keeps its
Montgomery form (``RSA_FLAG_CACHE_PUBLIC``/``CACHE_PRIVATE``): each
thread holds its scratch ``BIGNUM``s and the ``_KEPT`` most recently
used ``mod -> (BIGNUM, BN_MONT_CTX)`` pairs, so a key's n, p and q cost
their R^2 mod n once, not once per call.  The map is per thread, so
nothing native is shared between the event loop and an executor; the
pair a new modulus evicts is re-set for it, and a thread's death frees
the lot.  And an exponent of at most 32 bits is public (65537; CRT
exponents and Miller-Rabin's ``d`` are full width), so it takes
``BN_mod_exp_mont``'s sliding window and only the others walk the
constant-time ladder: the input's width decides, never a parameter.
"""

from __future__ import annotations

import threading

__all__ = ["modexp"]

# Pairs kept per thread (< 1 kB each at 512 bits).  A write touches the
# n, p and q of the owner's, the TSA's and a shard's key.
_KEPT = 32


def _bind():
    import _hashlib
    from ctypes import CDLL, c_char_p, c_int, c_void_p, create_string_buffer

    lib = CDLL(_hashlib.__file__)
    for name, restype, *argtypes in (
        ("BN_new", c_void_p),
        ("BN_free", None, c_void_p),
        ("BN_CTX_new", c_void_p),
        ("BN_CTX_free", None, c_void_p),
        ("BN_MONT_CTX_new", c_void_p),
        ("BN_MONT_CTX_free", None, c_void_p),
        ("BN_MONT_CTX_set", c_int, c_void_p, c_void_p, c_void_p),
        ("BN_bin2bn", c_void_p, c_char_p, c_int, c_void_p),
        ("BN_bn2binpad", c_int, c_void_p, c_char_p, c_int),
        ("BN_mod_exp_mont", c_int, *[c_void_p] * 6),
        ("BN_mod_exp_mont_consttime", c_int, *[c_void_p] * 6),
    ):
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    bin2bn, bn2binpad, mont_set = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_MONT_CTX_set
    public_exp, secret_exp = lib.BN_mod_exp_mont, lib.BN_mod_exp_mont_consttime

    class Scratch:
        """One thread's ``base, exp, result``, ``BN_CTX`` and kept moduli, freed with the thread."""

        def __init__(self):
            self.kept = {}  # mod -> (BIGNUM, BN_MONT_CTX), least recently used first
            self.ctx, self.bns = lib.BN_CTX_new(), [lib.BN_new() for _ in range(3)]
            if not (self.ctx and all(self.bns)):
                raise MemoryError("libcrypto could not allocate BIGNUM scratch")

        def keep(self, mod: int, size: int):
            """A pair set for ``mod`` -- the least recently used one when the map is full."""
            kept = self.kept
            if len(kept) < _KEPT:
                m, mont = lib.BN_new(), lib.BN_MONT_CTX_new()
            else:
                m, mont = kept.pop(next(iter(kept)))
            if m and mont and bin2bn(mod.to_bytes(size, "big"), size, m) and mont_set(mont, m, self.ctx):
                kept[mod] = m, mont
                return m, mont
            lib.BN_free(m)
            lib.BN_MONT_CTX_free(mont)
            return None, None

        def __del__(self):
            for m, mont in self.kept.values():
                lib.BN_free(m)
                lib.BN_MONT_CTX_free(mont)
            for bn in self.bns:
                lib.BN_free(bn)
            lib.BN_CTX_free(self.ctx)

    local = threading.local()

    def modexp(base: int, exp: int, mod: int) -> int:
        """``pow(base, exp, mod)``; what Montgomery does not take goes to ``pow`` itself."""
        if (
            not (type(base) is type(exp) is type(mod) is int)
            or mod < 3 or not mod & 1 or exp < 0 or not 0 <= base < mod
        ):
            return pow(base, exp, mod)
        try:
            scratch = local.scratch
        except AttributeError:
            scratch = local.scratch = Scratch()
        b, e, r = scratch.bns
        size, exp_bits = (mod.bit_length() + 7) >> 3, exp.bit_length()
        exp_size = (exp_bits + 7) >> 3
        kept = scratch.kept
        try:
            m, mont = kept[mod] = kept.pop(mod)
        except KeyError:
            m, mont = scratch.keep(mod, size)
        out = create_string_buffer(size)
        if (
            m
            and bin2bn(base.to_bytes(size, "big"), size, b)
            and bin2bn(exp.to_bytes(exp_size, "big"), exp_size, e)
            and (public_exp if exp_bits <= 32 else secret_exp)(r, b, e, m, scratch.ctx, mont)
            and bn2binpad(r, out, size) == size
        ):
            return int.from_bytes(out.raw, "big")
        return pow(base, exp, mod)

    # Each ladder, the second and third on a kept form.
    base, mod = 3**150, 2**255 - 19
    if any(modexp(base, exp, mod) != pow(base, exp, mod) for exp in (mod - 1, 65537, mod - 2)):
        raise ArithmeticError("libcrypto's modexp disagrees with pow")
    return modexp


try:
    modexp = _bind()
except (ImportError, OSError, AttributeError, ArithmeticError, MemoryError):
    modexp = pow
