"""Exact integer and F_p arithmetic: the one place that knows how it is done.

Polynomials over F_p are ascending coefficient lists with entries in
[0, p) and a nonzero last entry; ``[]`` is the zero polynomial.
:func:`fp_trim` turns any integer coefficient list into that form.  All
primality testing, prime enumeration and integer factoring goes through
this module, and it is the only one that imports sympy.
"""
from __future__ import annotations

import itertools
import math
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
    return list(_primes(lo, hi))


def _primes(lo: int, hi: int):
    """Iterator over the primes in [lo, hi) from a sieve of Eratosthenes."""
    sieve = bytearray([1]) * max(hi, 2)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(max(hi - 1, 0)) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    lo = max(lo, 0)
    return itertools.compress(range(lo, hi), memoryview(sieve)[lo:hi])


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(prime_range(2, 10000))


# ---------------------------------------------------------------------------
# factoring under a fixed budget
# ---------------------------------------------------------------------------

_RHO_BATCH = 128  # rho products per gcd
_RHO_STEPS = 1 << 14  # map evaluations per composite
# ECM curves per composite as (curves, B1), tried in order with sigma = 6, 7, ...
_ECM_SCHEDULE = ((8, 500), (25, 2000), (12, 11000))
_B2_PER_B1 = 100
# the cost of rho and ECM, and of a primality test, grows with the size of a
# part, so larger parts stay whole: a 1070-bit composite took the schedule 18 s
_SPLIT_BITS = 256
_PRIME_TEST_BITS = 2048


def factor_positive(n: int) -> tuple[dict[int, int], int]:
    """Factor n >= 1 as far as a fixed budget goes: ``(primes, cofactor)``.

    Trial division to 10^4, then every composite part of at most
    ``_SPLIT_BITS`` bits gets a perfect-square check, Brent-Pollard rho and the
    ECM schedule, and both parts of every split are factored again.  A part
    that survives the whole budget, a larger composite, and any part above
    ``_PRIME_TEST_BITS`` bits is multiplied into ``cofactor``, which is 1 when
    n factors completely; n is always the product of the primes and the
    cofactor.
    """
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    cofactor = 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        bits = m.bit_length()
        if bits <= _PRIME_TEST_BITS and sympy.isprime(m):
            out[m] = out.get(m, 0) + 1
        elif bits > _SPLIT_BITS or (d := _split(m)) is None:
            cofactor *= m
        else:
            parts += (d, m // d)
    return out, cofactor


def _split(n: int) -> int | None:
    """A proper divisor of the composite n, or None once the budget is spent."""
    r = math.isqrt(n)
    if r * r == n:
        return r
    if (d := _rho(n)) is not None:
        return d
    sigma = 6
    for curves, b1 in _ECM_SCHEDULE:
        for _ in range(curves):
            if (d := _ecm(n, sigma, b1)) is not None:
                return d
            sigma += 1
    return None


def _rho(n: int) -> int | None:
    """Brent's cycle finding on y -> y^2 + 1 from y = 2, gcds batched.

    Brent, BIT 20 (1980): the products of (x - y) over a batch share one
    gcd, and a batch that overshoots to n is replayed one step at a time.
    """
    y, q, g, r, steps = 2, 1, 1, 1, 0
    while g == 1:
        if steps + 2 * r > _RHO_STEPS:
            return None
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + 1) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += _RHO_BATCH
        steps += 2 * r
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + 1) % n
            g = math.gcd(x - ys, n)
    return g if g < n else None


def _ecm(n: int, sigma: int, b1: int) -> int | None:
    """One ECM curve: a proper divisor of n, or None.

    Montgomery curve from Suyama's parametrisation in x-only projective
    coordinates (Montgomery, Math. Comp. 48, 1987).  Stage 1 multiplies by
    every prime power up to b1; stage 2 catches one more prime q in
    (b1, 100 b1] as a zero of x(vD Q) - x(j Q) for q = vD +- j.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    w = 16 * u ** 3 * v ** 4 % n
    g = math.gcd(w, n)
    if g != 1:
        return g if g < n else None
    inv = pow(w, -1, n)
    x = 16 * u ** 6 * v * inv % n  # u^3 / v^3
    a24 = (v - u) ** 3 * (3 * u + v) * v ** 3 * inv % n  # (A + 2) / 4
    x, z = _ladder(x, _stage1_multiplier(b1), n, a24)
    g = math.gcd(z, n)
    if g != 1:
        return g if g < n else None
    x = x * pow(z, -1, n) % n
    step, js, v0, rows = _stage2_plan(b1)  # D, the j's, the first v, the pairs
    x2, z2 = _xdbl(x, 1, n, a24)
    odd = [(x, 1), _xadd(x2, z2, x, 1, x, 1, n)]  # jQ for odd j < D / 2
    while len(odd) < step // 4:
        (xa, za), (xb, zb) = odd[-1], odd[-2]
        odd.append(_xadd(xa, za, x2, z2, xb, zb, n))
    dx, dz = _ladder(x, step, n, a24)
    a, b = _ladder(x, v0 * step, n, a24), _ladder(x, (v0 + 1) * step, n, a24)
    giants = []  # vDQ for v = v0, v0 + 1, ...
    for _ in rows:
        giants.append(a)
        a, b = b, _xadd(b[0], b[1], dx, dz, a[0], a[1], n)
    xs = _affine([odd[j // 2] for j in js] + giants, n)
    if isinstance(xs, int):
        return xs if xs < n else None
    babies, acc = xs[:len(js)], 1
    for xg, ks in zip(xs[len(js):], rows):
        for k in ks:
            acc = acc * (xg - babies[k]) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _xdbl(x: int, z: int, n: int, a24: int) -> tuple[int, int]:
    s = (x + z) ** 2 % n
    d = (x - z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int,
          n: int) -> tuple[int, int]:
    """x(P + Q) from x(P), x(Q) and x(P - Q)."""
    s = (xp - zp) * (xq + zq) % n
    t = (xp + zp) * (xq - zq) % n
    return zd * (s + t) ** 2 % n, xd * (s - t) ** 2 % n


def _ladder(x: int, k: int, n: int, a24: int) -> tuple[int, int]:
    """kP for P = (x : 1) and k >= 1 by the Montgomery ladder."""
    x1, z1 = x, 1
    x2, z2 = _xdbl(x, 1, n, a24)
    for bit in bin(k)[3:]:
        # the ladder keeps (mP, (m+1)P), whose difference is P = (x : 1)
        s = (x1 - z1) * (x2 + z2) % n
        t = (x1 + z1) * (x2 - z2) % n
        xs, zs = (s + t) ** 2 % n, x * (s - t) ** 2 % n
        if bit == "1":
            x1, z1 = xs, zs
            x2, z2 = _xdbl(x2, z2, n, a24)
        else:
            x2, z2 = xs, zs
            x1, z1 = _xdbl(x1, z1, n, a24)
    return x1, z1


def _affine(points: list[tuple[int, int]], n: int) -> list[int] | int:
    """x / z for every point by one inversion, or gcd(prod z, n) if that is not 1."""
    prefix = [1]
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    g = math.gcd(prefix[-1], n)
    if g != 1:
        return g
    inv = pow(prefix[-1], -1, n)
    out = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, z = points[i]
        out[i] = x * prefix[i] * inv % n
        inv = inv * z % n
    return out


@lru_cache(maxsize=None)
def _stage1_multiplier(b1: int) -> int:
    """The product of the largest power of each prime that is at most b1."""
    k = 1
    for p in prime_range(2, b1 + 1):
        power = p
        while power * p <= b1:
            power *= p
        k *= power
    return k


@lru_cache(maxsize=None)
def _stage2_plan(b1: int):
    """``(D, js, v0, rows)`` that writes each prime q in (b1, 100 b1] as vD +- j.

    D is the larger of 210 and 2310 with D / 2 < b1, so v >= 1; ``js`` are
    the odd j < D / 2 prime to D; ``rows[v - v0]`` holds the indices into
    ``js`` of the pairs (v, j) with vD + j or vD - j prime.  One factor
    x(vD Q) - x(j Q) covers both signs.
    """
    step = 2310 if 2 * b1 > 2310 else 210
    js = [j for j in range(1, step // 2, 2) if math.gcd(j, step) == 1]
    index = {j: k for k, j in enumerate(js)}
    b2 = _B2_PER_B1 * b1
    v0 = (b1 + 1 + step // 2) // step  # v of q = b1 + 1
    rows = [bytearray() for _ in range(v0, (b2 + step // 2) // step + 1)]
    for q in _primes(b1 + 1, b2 + 1):
        v = (q + step // 2) // step
        k = index[abs(q - v * step)]
        row = rows[v - v0]
        if k not in row:
            row.append(k)
    return step, tuple(js), v0, tuple(map(bytes, rows))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    primes, cofactor = factor_positive(n)
    if cofactor != 1:
        raise ArithmeticError(f"could not factor {cofactor} within the budget")
    result = n
    for p in primes:
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
