"""p-adic root data: Newton polygons and certified root counting over Q_p."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import fp_eval, fp_roots, require_prime
from .polynomials import PrimitivePolynomial, derivative


def valuation(n: int, p: int) -> int:
    """Exponent of p in n; raises on n = 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class NewtonPolygonResult:
    """Root valuations of a polynomial at p, from the lower hull of (i, v_p(a_i)).

    ``slopes`` lists (valuation, multiplicity) pairs with valuation = -hull slope,
    ordered by decreasing valuation; multiplicities sum to the degree.
    """

    prime: int
    slopes: tuple[tuple[Fraction, int], ...]

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.slopes)

    def valuation_sum(self) -> Fraction:
        return sum((v * m for v, m in self.slopes), Fraction(0))

    def positive_part_sum(self) -> Fraction:
        """Sum over roots of max(0, -valuation); equals v_p(leading) for primitive input."""
        return sum((max(-v, 0) * m for v, m in self.slopes), Fraction(0))


def newton_polygon(f: PrimitivePolynomial, p: int) -> NewtonPolygonResult:
    """Lower convex hull of the valuation points of f at the prime p.

    Requires a nonzero constant term (strip the root 0 first); with a_0 = 0
    one root valuation would be infinite.
    """
    p = require_prime(p)
    if f.coeffs[0] == 0:
        raise ValueError("newton_polygon requires a nonzero constant term")
    pts = [(i, valuation(c, p)) for i, c in enumerate(f.coeffs) if c != 0]
    hull = _lower_hull(pts)
    slopes = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        mult = i1 - i0
        slopes.append((Fraction(-(v1 - v0), mult), mult))
    slopes.sort(key=lambda t: t[0], reverse=True)
    return NewtonPolygonResult(prime=p, slopes=tuple(slopes))


def _lower_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep only strictly convex turns (drop points on or above the chord)
            if (x1 - x0) * (pt[1] - y0) <= (pt[0] - x0) * (y1 - y0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


# ---------------------------------------------------------------------------
# root counting in Q_p by residue enumeration and iterative lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicRootCount:
    """Number of roots in Q_p together with the certification status."""

    count: int
    certified: bool
    prime: int
    precision_exponent: int

    @property
    def status(self) -> str:
        return "certified" if self.certified else "inconclusive at this precision"


def p_adic_root_count(f: PrimitivePolynomial, p: int,
                      precision_exponent: int = 40) -> PadicRootCount:
    """Count the roots of f inside Q_p.

    Residues mod p are enumerated and lifted branch by branch; a branch is
    settled either by the simple-root criterion (unique Hensel lift) or by
    exclusion.  Branching beyond ``precision_exponent`` levels leaves the
    result inconclusive (a lower bound on the count).
    """
    p = require_prime(p)
    if precision_exponent < 1:
        raise ValueError("precision_exponent must be positive")
    coeffs = list(f.coeffs)
    count = 0
    if coeffs[0] == 0:
        count += 1  # the root 0; squarefree input carries a single factor x
        coeffs = coeffs[1:]
    certified = True
    if len(coeffs) > 1:
        c, ok = _count_in_zp(coeffs, p, precision_exponent, 0)
        count += c
        certified &= ok
        rev = list(reversed(coeffs))
        c, ok = _count_in_branch(rev, 0, p, precision_exponent, 0)
        count += c  # roots of valuation <= -1 correspond to reversed roots in pZ_p
        certified &= ok
    return PadicRootCount(count, certified, p, precision_exponent)


def _count_in_zp(g: list[int], p: int, budget: int, depth: int) -> tuple[int, bool]:
    count, certified = 0, True
    for r in fp_roots(g, p):
        c, ok = _count_in_branch(g, r, p, budget, depth)
        count += c
        certified &= ok
    return count, certified


def _count_in_branch(g: list[int], r: int, p: int, budget: int,
                     depth: int) -> tuple[int, bool]:
    """Roots of g in the disk r + pZ_p."""
    if fp_eval(g, r, p) != 0:
        return 0, True
    if fp_eval(derivative(g), r, p) != 0:
        return 1, True  # simple residue root: unique lift
    if depth >= budget:
        return 0, False
    h = _shift_and_rescale(g, r, p)
    return _count_in_zp(h, p, budget, depth + 1)


def _shift_and_rescale(g: list[int], r: int, p: int) -> list[int]:
    """Primitive part of g(r + p*y): zooms into the residue disk."""
    shifted = list(g)
    n = len(shifted)
    for i in range(n - 1):  # Taylor shift by r via repeated synthetic division
        for k in range(n - 2, i - 1, -1):
            shifted[k] += r * shifted[k + 1]
    scaled = [c * p**k for k, c in enumerate(shifted)]
    v = min(valuation(c, p) for c in scaled if c != 0)
    return [c // p**v for c in scaled]
