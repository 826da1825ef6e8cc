"""Exact integer-coefficient polynomials underlying all height computations.

A polynomial is stored dense and ascending: ``coeffs[k]`` multiplies ``x**k``.
All arithmetic in this module is exact (Python integers); floating point
enters only downstream, in the root finder and the height sums.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

from .arith import euler_phi, fp_gcd, fp_trim


class PolynomialSyntaxError(ValueError):
    """Raised when polynomial text does not conform to the input grammar."""


class NotSquarefreeError(ValueError):
    """Raised when an input polynomial has a repeated root."""


def derivative(coeffs) -> tuple[int, ...]:
    """Coefficients of the derivative, constant term first."""
    return tuple(k * c for k, c in enumerate(coeffs) if k >= 1)


def _exact_int(c) -> int:
    if isinstance(c, bool) or not hasattr(c, "__index__"):
        raise ValueError(f"coefficient {c!r} is not an integer")
    return operator.index(c)


def normalize_coefficients(raw) -> tuple[tuple[int, ...], list[str]]:
    """Divide out the content and force a positive leading coefficient.

    Returns the canonical coefficient tuple together with human-readable
    notices for every normalization actually applied.  Coefficients must be
    integers: floats and bools are rejected rather than truncated.
    """
    coeffs = [_exact_int(c) for c in raw]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    if len(coeffs) == 1:
        raise ValueError("degree-0 input: a nonzero constant has no roots")
    notices = []
    g = math.gcd(*coeffs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        notices.append(f"content {g} divided out")
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
        notices.append("sign flipped to make the leading coefficient positive")
    return tuple(coeffs), notices


@dataclass(frozen=True)
class PrimitivePolynomial:
    """Primitive squarefree integer polynomial with positive leading coefficient.

    Use :meth:`from_coeffs` or :func:`parse_polynomial` rather than the raw
    constructor; they normalize and validate the invariants.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if len(c) < 2:
            raise ValueError("degree must be at least 1")
        if c[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        if math.gcd(*c) != 1:
            raise ValueError("coefficients must be primitive (content 1)")
        if len(c) > 2 and not _is_squarefree(c):
            raise NotSquarefreeError(f"{_format(c)} has a repeated root")

    @classmethod
    def from_coeffs(cls, raw) -> "PrimitivePolynomial":
        coeffs, _ = normalize_coefficients(raw)
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def derivative_coeffs(self) -> tuple[int, ...]:
        return derivative(self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return _format(self.coeffs)


def _format(coeffs: tuple[int, ...]) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "x" if k == 1 else f"x^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) if parts else "0"


_TERM_RE = re.compile(r"(?P<sign>[+-]?)(?P<coef>\d+)?(?P<var>x(?:\^(?P<exp>\d+))?)?")


def _parse_terms(text: str) -> dict[int, int]:
    compact = "".join(text.split())
    if not compact:
        raise PolynomialSyntaxError("empty input")
    terms: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if m is None or m.end() == pos:
            raise PolynomialSyntaxError(f"unexpected {compact[pos]!r} at position {pos}")
        sign, coef, var, exp = m.group("sign", "coef", "var", "exp")
        if coef is None and var is None:
            raise PolynomialSyntaxError(f"dangling sign at position {pos}")
        if not first and not sign:
            raise PolynomialSyntaxError(f"missing '+' or '-' before position {pos}")
        k = 0 if var is None else (1 if exp is None else int(exp))
        if k > 100000:
            raise PolynomialSyntaxError(f"exponent {k} is beyond any supported degree")
        c = 1 if coef is None else int(coef)
        if sign == "-":
            c = -c
        terms[k] = terms.get(k, 0) + c
        pos = m.end()
        first = False
    return terms


def parse_polynomial(text: str) -> PrimitivePolynomial:
    """Parse ``text`` (e.g. ``"x^2 - 2"``) into a normalized polynomial."""
    poly, _ = parse_polynomial_with_notices(text)
    return poly


def parse_polynomial_with_notices(text: str) -> tuple[PrimitivePolynomial, list[str]]:
    """Like :func:`parse_polynomial`, also returning normalization notices."""
    terms = _parse_terms(text)
    top = max(terms)
    raw = [terms.get(k, 0) for k in range(top + 1)]
    coeffs, notices = normalize_coefficients(raw)
    return PrimitivePolynomial(coeffs), notices


# ---------------------------------------------------------------------------
# points on the projective line
# ---------------------------------------------------------------------------

_ZERO_POLY = (0, 1)  # the polynomial "x", whose only root is the point 0


@dataclass(frozen=True)
class AlgebraicPoint:
    """A point of the projective line: a root multiset, or the point at infinity.

    ``poly is None`` encodes infinity; the polynomial ``x`` encodes the point 0.
    """

    poly: PrimitivePolynomial | None

    @classmethod
    def finite(cls, poly: PrimitivePolynomial) -> "AlgebraicPoint":
        return cls(poly)

    @classmethod
    def zero(cls) -> "AlgebraicPoint":
        return cls(PrimitivePolynomial(_ZERO_POLY))

    @classmethod
    def infinity(cls) -> "AlgebraicPoint":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def is_zero(self) -> bool:
        return self.poly is not None and self.poly.coeffs == _ZERO_POLY


# ---------------------------------------------------------------------------
# exact discriminants via the subresultant remainder sequence
# ---------------------------------------------------------------------------

# Work budget: a resultant whose Hadamard bound reaches this many bits is
# refused.  400 x 62, the reach of the table of 400 primes above 2^62 that
# the modular resultant used before this remainder sequence, so the same
# inputs refuse.
_RESULTANT_BITS = 24_800

# A degree-0 gcd(f, f') modulo this prime certifies squarefreeness.
_SQUAREFREE_PRIME = 2**61 - 1


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b: lead(b)^(deg a - deg b + 1) * a mod b."""
    lb, db = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(a) - 1, db - 1, -1):
        c = r.pop()
        r = [lb * x for x in r]
        for j in range(db):
            r[k - db + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _resultant_int(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    """Exact resultant Res(f, g) by the subresultant polynomial remainder sequence.

    Each pseudo-remainder divides exactly by lead * h^delta (Collins, J. ACM
    1967; Brown and Traub, J. ACM 1971); the sign follows the degree parities.
    """
    da, db = len(f) - 1, len(g) - 1
    if da < 1 and db < 1:
        raise ValueError("resultant needs a nonconstant polynomial")
    # Hadamard bound on |Res|: product of Euclidean row norms of Sylvester
    nf = math.isqrt(sum(c * c for c in f)) + 1
    ng = math.isqrt(sum(c * c for c in g)) + 1
    bits = (2 * nf ** db * ng ** da + 1).bit_length()
    if bits >= _RESULTANT_BITS:
        raise ArithmeticError(f"the resultant may need {bits} bits, beyond the "
                              f"{_RESULTANT_BITS}-bit budget")
    a, b = list(f), list(g)
    sign = -1 if da % 2 and db % 2 and da < db else 1
    if da < db:
        a, b = b, a
    lead = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        scale = lead * h**delta
        a, b = b, [c // scale for c in r]
        lead = a[-1]
        h = lead**delta // h ** (delta - 1) if delta else h
    return sign * b[0] ** (len(a) - 1) // h ** (len(a) - 2)


def discriminant(f: PrimitivePolynomial) -> int:
    """Exact discriminant; returns 1 for degree 1 by convention."""
    d = f.degree
    if d == 1:
        return 1
    res = _resultant_int(f.coeffs, f.derivative_coeffs())
    disc, rem = divmod(res, f.leading)
    if rem != 0:
        raise AssertionError("resultant not divisible by leading coefficient")
    if d % 4 in (2, 3):  # (-1)^(d(d-1)/2)
        disc = -disc
    return disc


def _is_squarefree(coeffs: tuple[int, ...]) -> bool:
    # the modular certificate needs no resultant and so holds beyond the
    # budget; only when it fails is the exact resultant consulted
    fp = derivative(coeffs)
    p = _SQUAREFREE_PRIME
    if coeffs[-1] % p and len(fp_gcd(fp_trim(coeffs, p), fp_trim(fp, p), p)) == 1:
        return True
    return _resultant_int(coeffs, fp) != 0


# ---------------------------------------------------------------------------
# coefficient reversal (the point 1/alpha)
# ---------------------------------------------------------------------------


def reverse(f: PrimitivePolynomial) -> PrimitivePolynomial:
    """Minimal-style polynomial of the inverted root set.

    Rejects the polynomial ``x``: inverting the point 0 gives the point at
    infinity, which is an :class:`AlgebraicPoint`, not a polynomial.
    """
    if f.coeffs[0] == 0:
        raise ValueError("cannot reverse a polynomial with constant term 0 "
                         "(1/0 is the point at infinity)")
    coeffs, _ = normalize_coefficients(tuple(reversed(f.coeffs)))
    return PrimitivePolynomial(coeffs)


# ---------------------------------------------------------------------------
# cyclotomic recognition
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> PrimitivePolynomial:
    """The n-th cyclotomic polynomial, computed by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, list(cyclotomic_polynomial(d).coeffs))
    return PrimitivePolynomial(tuple(num))


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials when the division is exact and den is monic."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    r = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(den) - 1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                r[k + j] -= c * dj
    if any(r[: len(den) - 1]):
        raise ValueError("division is not exact")
    return q


def _divides(den: tuple[int, ...], num: list[int]) -> list[int] | None:
    """num / den when exact (den monic), else None."""
    if len(den) > len(num):
        return None
    try:
        return _exact_div(num, list(den))
    except ValueError:
        return None


def is_cyclotomic(f: PrimitivePolynomial) -> bool:
    """True exactly when every root of f is a root of unity.

    Strips cyclotomic factors one at a time.  Any n with a degree-phi(n)
    factor of f satisfies phi(n) <= d, hence n <= 2*d^2 + 6 (phi(n) >= sqrt(n/2)),
    so the candidate list below is exhaustive.
    """
    d = f.degree
    if f.leading != 1 or abs(f.coeffs[0]) != 1:
        return False  # products of cyclotomics are monic with constant term +-1
    residual = list(f.coeffs)
    remaining = d
    for n in range(1, 2 * d * d + 7):
        if remaining == 0:
            break
        if euler_phi(n) > remaining:
            continue
        q = _divides(cyclotomic_polynomial(n).coeffs, residual)
        if q is not None:
            residual = q
            remaining = len(residual) - 1
    return residual == [1]

