"""Exact integer and F_p arithmetic: the one place that knows how it is done.

Polynomials over F_p are ascending coefficient lists with entries in
[0, p) and a nonzero last entry; ``[]`` is the zero polynomial.
:func:`fp_trim` turns any integer coefficient list into that form.  All
primality testing, prime enumeration and integer factoring goes through
this module, and it is the only one that imports sympy.
"""
from __future__ import annotations

from functools import lru_cache

import sympy

# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def require_prime(p) -> int:
    """Return ``p`` as an int, or raise ``ValueError`` if it is not a prime."""
    if not sympy.isprime(p):
        raise ValueError(f"{p} is not prime")
    return int(p)


def next_prime(n: int) -> int:
    """Smallest prime greater than n."""
    return int(sympy.nextprime(n))


def prime_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, ascending."""
    return [int(p) for p in sympy.primerange(lo, hi)]


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(prime_range(2, 10000))


def factor_positive(n: int) -> dict[int, int]:
    """Factor n >= 1; trial division first, sympy only for a hard cofactor."""
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if sympy.isprime(n):
            out[n] = out.get(n, 0) + 1
        else:
            for p, e in sympy.factorint(n).items():
                out[int(p)] = out.get(int(p), 0) + int(e)
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    result = n
    for p in factor_positive(n):
        result -= result // p
    return result


# ---------------------------------------------------------------------------
# polynomials over F_p
# ---------------------------------------------------------------------------


def fp_trim(f, p: int) -> list[int]:
    """Reduce integer coefficients mod p and drop the vanishing top ones."""
    r = [c % p for c in f]
    while r and r[-1] == 0:
        r.pop()
    return r


def fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo the nonzero polynomial b."""
    db = len(b) - 1
    r = list(a)
    if len(r) > db:
        inv = pow(b[-1], -1, p)
        low = b[:db]
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k] * inv % p
            if c:
                off = k - db
                for j, bj in enumerate(low):
                    r[off + j] = (r[off + j] - c * bj) % p
        del r[db:]
        while r and r[-1] == 0:
            r.pop()
    return r


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor; ``[]`` when both are zero."""
    while b:
        a, b = b, fp_rem(a, b, p)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def fp_div_exact(a: list[int], b: list[int], p: int) -> list[int]:
    """Quotient a / b when b divides a."""
    db = len(b) - 1
    q = [0] * (len(a) - db)
    r = list(a)
    inv = pow(b[-1], -1, p)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % p
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] = (r[k + j] - c * b[j]) % p
    return q


def fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Product a * b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out]


def fp_pow_mod(base: list[int], e: int, g: list[int], p: int) -> list[int]:
    """base^e reduced modulo g, by repeated squaring."""
    result = [1]
    b = fp_rem(base, g, p)
    while e:
        if e & 1:
            result = fp_rem(fp_mul(result, b, p), g, p)
        b = fp_rem(fp_mul(b, b, p), g, p)
        e >>= 1
    return result


def fp_eval(f, x: int, p: int) -> int:
    """f(x) mod p by Horner's rule; f may carry any integer coefficients."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def fp_resultant(a: list[int], b: list[int], p: int) -> int:
    """Resultant of a and b over F_p by the Euclidean remainder chain.

    The degrees of a and b are taken from the lists, so both must keep the
    degrees of the integer polynomials they reduce (leading coefficients
    prime to p) for the value to be that resultant mod p.
    """
    res = 1
    while True:
        if not b:
            return 0
        if len(b) == 1:
            return res * pow(b[0], len(a) - 1, p) % p
        da, db = len(a) - 1, len(b) - 1
        r = fp_rem(a, b, p)
        res = res * pow(b[-1], da - max(len(r) - 1, 0), p) % p
        if da % 2 == 1 and db % 2 == 1:
            res = -res % p
        a, b = b, r


_BRUTE_FORCE_LIMIT = 3000


def fp_roots(f, p: int) -> list[int]:
    """Sorted distinct roots in F_p of the integer polynomial f.

    Small p enumerate all residues; larger p isolate the split part with
    gcd(f, x^p - x) and separate it by equal-degree splitting.
    """
    g = fp_trim(f, p)
    if not g:
        raise ValueError("polynomial vanishes mod p; divide out the content first")
    if len(g) == 1:
        return []
    if p <= _BRUTE_FORCE_LIMIT:
        return [x for x in range(p) if fp_eval(g, x, p) == 0]
    return sorted(_split_roots(g, p))


def _split_roots(g: list[int], p: int) -> list[int]:
    # equal-degree splitting with deterministic shifts: gcd with
    # (x + c)^((p-1)/2) - 1 for c = 0, 1, 2, ... (mod p)
    xp = fp_pow_mod([0, 1], p, g, p) + [0, 0]
    xp[1] -= 1
    split = fp_gcd(g, fp_trim(xp, p), p)
    roots: list[int] = []
    stack = [split] if len(split) > 1 else []
    shift = 0
    while stack:
        s = stack.pop()
        if len(s) == 2:
            roots.append(-s[0] % p)  # s is monic
            continue
        while True:
            t = fp_pow_mod([shift % p, 1], (p - 1) // 2, s, p) + [0]
            shift += 1
            t[0] -= 1
            d = fp_gcd(s, fp_trim(t, p), p)
            if 1 < len(d) < len(s):
                stack.append(d)
                stack.append(fp_div_exact(s, d, p))
                break
    return roots
