"""Arakelov and Weil heights on P^1 with their local energy decomposition.

The archimedean energy is computed from certified complex roots; every
finite-place quantity is exact integer arithmetic.  The two sides of the
decomposition identity (the height itself and half the sum of local
energies) are computed along independent paths, so their agreement is a
genuine cross-check, reported as ``crosscheck_residual``.
"""
from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass

from .arith import factor_positive, require_prime
from .padic import valuation
from .polynomials import (AlgebraicPoint, PrimitivePolynomial, discriminant,
                          is_cyclotomic)
from .roots import complex_roots

HALF_LOG2 = 0.5 * math.log(2.0)  # smallest positive Arakelov height

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class Place:
    """A place of Q: the archimedean place (prime None) or a prime."""

    prime: int | None = None

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(require_prime(p))

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    @property
    def key(self):
        """"inf", the prime, or the exact decimal string of an unfactored
        cofactor with more digits than the interpreter converts between int and
        str (4300 by default): such an int can be neither printed nor parsed."""
        if self.prime is None:
            return "inf"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit == 0 or self.prime < 10 ** limit:
            return self.prime
        return str(decimal.Decimal(self.prime))


@dataclass(frozen=True)
class LocalEnergy:
    """One term of the decomposition.

    ``method`` is "numeric-roots" at infinity and "exact-valuation" at a
    prime.  "unfactored-cofactor" marks the one entry for what the factoring
    budget left of the discriminant: its ``place.prime`` is that composite m,
    standing for all the primes dividing it, and its value is log(m) over
    d(d-1), exactly as their entries would sum to.
    """

    place: Place
    value: float
    method: str
    error_bound: float

    def to_json_dict(self) -> dict:
        return {"place": self.place.key, "value": self.value,
                "method": self.method, "error_bound": self.error_bound}


@dataclass(frozen=True)
class HeightReport:
    h_arakelov: float
    h_weil: float
    locals: tuple[LocalEnergy, ...]
    crosscheck_residual: float | None
    flags: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "h_arakelov": self.h_arakelov,
            "h_weil": self.h_weil,
            "locals": [e.to_json_dict() for e in self.locals],
            "crosscheck_residual": self.crosscheck_residual,
            "flags": list(self.flags),
        }


def chordal_distance(x: tuple[complex, complex], y: tuple[complex, complex]) -> float:
    """Scale-invariant projective distance in [0, 1] (l2 norms)."""
    x0, x1 = complex(x[0]), complex(x[1])
    y0, y1 = complex(y[0]), complex(y[1])
    nx = math.hypot(abs(x0), abs(x1))
    ny = math.hypot(abs(y0), abs(y1))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("(0:0) is not a projective point")
    return min(1.0, abs(x0 * y1 - y0 * x1) / (nx * ny))


def _as_point(point) -> AlgebraicPoint:
    if isinstance(point, AlgebraicPoint):
        return point
    if isinstance(point, PrimitivePolynomial):
        return AlgebraicPoint.finite(point)
    raise TypeError(f"expected AlgebraicPoint or PrimitivePolynomial, got {type(point)!r}")


def arch_energy_sum(f: PrimitivePolynomial, tol: float = DEFAULT_TOL) -> LocalEnergy:
    """Mean pairwise -log chordal distance over the complex root set."""
    d = f.degree
    if d < 2:
        raise ValueError("the energy sum requires degree >= 2")
    certified = complex_roots(f, tol)
    return arch_energy_sum_from_roots(certified.roots, certified.radii, d)


def nonarch_energy_sum(f: PrimitivePolynomial, p: int) -> LocalEnergy:
    """Energy sum at a finite place: v_p(disc) * log(p) / (d(d-1)), exactly.

    The closed form follows from factoring the discriminant into root
    differences and using the Gauss-lemma product of max(1, |root|_p); it is
    validated against direct p-adic evaluation in the test suite.
    """
    d = f.degree
    if d < 2:
        raise ValueError("the energy sum requires degree >= 2")
    place = Place.finite(p)
    v = valuation(abs(discriminant(f)), p)
    return LocalEnergy(place, v * math.log(p) / (d * (d - 1)), "exact-valuation", 0.0)


def _archimedean(point, tol: float):
    """The step every height shares: ``(poly, h_ar, h_weil, certified roots)``.

    The points 0 and infinity have height 0 and no polynomial; degree 1 has
    closed forms and no roots; degree >= 2 goes through certified roots.  The
    finite-place contribution collapses exactly to log(leading)/degree for a
    primitive polynomial, so only the archimedean term is numeric.
    """
    pt = _as_point(point)
    if pt.is_infinity or pt.is_zero:
        return None, 0.0, 0.0, None
    f = pt.poly
    if f.degree == 1:
        a0, a1 = f.coeffs
        return f, 0.5 * math.log(a0 * a0 + a1 * a1), math.log(max(abs(a0), a1)), None
    certified = complex_roots(f, tol)
    ar = 0.0
    weil = 0.0
    for z in certified.roots:
        a2 = z.real * z.real + z.imag * z.imag
        ar += 0.5 * math.log1p(a2)
        if a2 > 1.0:
            weil += 0.5 * math.log(a2)
    log_lead = math.log(f.leading)
    return f, (ar + log_lead) / f.degree, (weil + log_lead) / f.degree, certified


def arakelov_height(point, tol: float = DEFAULT_TOL) -> float:
    """Arakelov height in nats; exactly 0 for the points 0 and infinity."""
    return _archimedean(point, tol)[1]


def weil_height(point, tol: float = DEFAULT_TOL) -> float:
    """Standard (sup-norm) absolute height in nats; log of the Mahler measure over d."""
    return _archimedean(point, tol)[2]


def height_report(point, tol: float = DEFAULT_TOL,
                  itemize_finite: bool = True) -> HeightReport:
    """Full report: both heights, local energies, decomposition residual, flags.

    With ``itemize_finite`` the discriminant is factored and every prime
    dividing it gets its own entry (all other finite places contribute 0).
    Without it the finite places are summed in one exact aggregate; the
    residual is the same up to float associativity, which is useful when
    scanning large corpora.
    """
    f, h_ar, h_weil, certified = _archimedean(point, tol)
    if f is None:
        return HeightReport(0.0, 0.0, (), None, ())
    if certified is None:
        flags = ("root-of-unity",) if is_cyclotomic(f) else ()
        return HeightReport(h_ar, h_weil, (), None, flags)

    d = f.degree
    arch = arch_energy_sum_from_roots(certified.roots, certified.radii, d)
    disc = abs(discriminant(f))
    scale = 1.0 / (d * (d - 1))
    entries = [arch]
    cofactor = 1
    if itemize_finite:
        factorization, cofactor = factor_positive(disc)
        for p in sorted(factorization):
            v = factorization[p]
            entries.append(LocalEnergy(Place(p), v * math.log(p) * scale,
                                       "exact-valuation", 0.0))
        if cofactor > 1:
            entries.append(LocalEnergy(Place(cofactor), math.log(cofactor) * scale,
                                       "unfactored-cofactor", 0.0))
        finite_total = 0.0
        for e in entries[1:]:
            finite_total += e.value
    else:
        finite_total = math.log(disc) * scale
    residual = abs(h_ar - 0.5 * (arch.value + finite_total))
    flags = []
    if is_cyclotomic(f):
        flags.append("root-of-unity")
    flags.append("minimal-polynomial-unverified")
    if cofactor > 1:
        flags.append("discriminant-partially-factored")
    return HeightReport(h_ar, h_weil, tuple(entries), residual, tuple(flags))


def arch_energy_sum_from_roots(roots, radii, d: int) -> LocalEnergy:
    """Archimedean energy sum for an already certified root set.

    The chordal distance of two finite roots is |z_i - z_j| / (hypot(|z_i|, 1)
    hypot(|z_j|, 1)); each norm is taken once per root and each separation
    once per pair.
    """
    norms = [math.hypot(abs(z), 1.0) for z in roots]
    total = 0.0
    err = 0.0
    for i in range(d):
        zi, ri, ni = roots[i], radii[i], norms[i]
        for j in range(i + 1, d):
            sep = abs(zi - roots[j])
            total += -2.0 * math.log(min(1.0, sep / (ni * norms[j])))
            gap = max(sep - ri - radii[j], 1e-300)
            err += 2.0 * (ri + radii[j]) * (1.0 / gap + 0.5)
    scale = 1.0 / (d * (d - 1))
    return LocalEnergy(Place.archimedean(), total * scale, "numeric-roots",
                       err * scale + 1e-14 * (1.0 + abs(total * scale)))
