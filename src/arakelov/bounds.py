"""Height lower bounds under splitting conditions, and the prime censuses.

A set S of places yields a lower bound on the height of points that are
totally v-adic at every v in S: a base term (1/4 without the archimedean
place, (1/2)log 2 with it, or half the interval energy when conjugates are
confined to [-r, r]) plus half of p*log(p)/(p^2 - 1) per finite place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import prime_range, require_prime
from .equilibrium import Interval, analytic_energy
from .heights import HALF_LOG2
from .quadrature import QuadratureResult, adaptive_gauss_legendre


@dataclass(frozen=True)
class PlaceSet:
    """A finite set of places of Q: optionally the archimedean one, plus primes."""

    includes_infinity: bool
    primes: tuple[int, ...]

    def __post_init__(self):
        ps = tuple(sorted(set(int(p) for p in self.primes)))
        if ps != self.primes:
            object.__setattr__(self, "primes", ps)
        for p in self.primes:
            require_prime(p)

    @classmethod
    def parse(cls, text: str) -> "PlaceSet":
        """Parse a comma-separated list like ``"inf,2,3"`` (empty string allowed)."""
        inf = False
        primes = []
        for token in filter(None, (t.strip() for t in text.split(","))):
            if token in ("inf", "infinity", "oo"):
                inf = True
            else:
                primes.append(int(token))
        return cls(includes_infinity=inf, primes=tuple(primes))

    def __str__(self) -> str:
        parts = (["inf"] if self.includes_infinity else []) + [str(p) for p in self.primes]
        return "{" + ",".join(parts) + "}"


@dataclass(frozen=True)
class BoundResult:
    """A lower bound split into its base term and per-prime contributions."""

    value: float
    base: str  # "quarter" | "half_log2" | "interval"
    base_value: float
    r: float | None
    terms: tuple[tuple[int, float], ...]
    beats_elementary: bool

    def to_json_dict(self) -> dict:
        return {"bound": self.value, "base": self.base, "r": self.r,
                "terms": {str(p): v for p, v in self.terms},
                "beats_elementary": self.beats_elementary}


def nonarch_term(p: int) -> float:
    """The sharp energy constant p*log(p)/(p^2 - 1) at a finite place."""
    require_prime(p)
    return p * math.log(p) / (p * p - 1)


def _assemble(base: str, base_value: float, r: float | None,
              primes: tuple[int, ...]) -> BoundResult:
    terms = tuple((p, 0.5 * nonarch_term(p)) for p in primes)
    value = base_value
    for _, t in terms:
        value += t
    return BoundResult(value=value, base=base, base_value=base_value, r=r,
                       terms=terms, beats_elementary=value > HALF_LOG2)


def lower_bound(places: PlaceSet) -> BoundResult:
    """Height lower bound for points totally v-adic at every place of S."""
    if places.includes_infinity:
        return _assemble("half_log2", HALF_LOG2, None, places.primes)
    return _assemble("quarter", 0.25, None, places.primes)


def lower_bound_interval(places: PlaceSet, r: float) -> BoundResult:
    """Refined bound when the archimedean conjugates lie in [-r, r].

    The base term is half the interval equilibrium energy; requires the
    archimedean place to belong to S.
    """
    if not places.includes_infinity:
        raise ValueError("the interval refinement requires the archimedean place in S")
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    base_value = 0.5 * analytic_energy(Interval(r))
    return _assemble("interval", base_value, r, places.primes)


def single_place_beaters() -> tuple[int, ...]:
    """Primes p where the single-place bound 1/4 + t(p)/2 beats (1/2)log 2.

    The terms decrease for p >= 3, so enumeration stops at the first failure.
    """
    beaters = []
    for p in prime_range(2, 100):
        if 0.25 + 0.5 * nonarch_term(p) > HALF_LOG2:
            beaters.append(p)
        elif p >= 3:
            return tuple(beaters)
    raise ArithmeticError("every single-place bound below 100 beats (1/2)log 2")


@dataclass(frozen=True)
class PairCensus:
    """Census of prime pairs 13 < p < q whose two-place bound beats (1/2)log 2."""

    count: int
    pairs: tuple[tuple[int, int], ...]
    cutoff_prime: int
    threshold: float

    def to_csv(self) -> str:
        lines = ["p,q,bound"]
        for p, q in self.pairs:
            bound = 0.25 + 0.5 * (nonarch_term(p) + nonarch_term(q))
            lines.append(f"{p},{q},{bound:.10f}")
        return "\n".join(lines) + "\n"


def count_beating_pairs() -> PairCensus:
    """Enumerate all pairs {p, q}, 13 < p < q, with 1/4 + (t(p)+t(q))/2 > (1/2)log 2.

    The cutoff is computed, not assumed: terms decrease for p >= 3, so any
    admissible q satisfies t(q) > threshold - t(17), and the largest prime
    with that property bounds the search.
    """
    threshold = 2.0 * (HALF_LOG2 - 0.25)
    residual = threshold - nonarch_term(17)
    cutoff = 17
    for q in prime_range(19, 1000):
        if not nonarch_term(q) > residual:
            break
        cutoff = q
    else:
        raise ArithmeticError("the pair cutoff is not below 1000")
    primes = prime_range(17, cutoff + 1)
    pairs = []
    for i, p in enumerate(primes):
        tp = nonarch_term(p)
        for q in primes[i + 1:]:
            if tp + nonarch_term(q) > threshold:
                pairs.append((p, q))
            else:
                break  # terms decrease in q
    return PairCensus(count=len(pairs), pairs=tuple(pairs),
                      cutoff_prime=cutoff, threshold=threshold)


def chebyshev_limit_integral(tol: float = 1e-9) -> QuadratureResult:
    """Mean of log sqrt(1+x^2) against dx/(pi*sqrt(4-x^2)) on [-2, 2].

    This is the height limit of conjugate sets equidistributing along the
    arcsine measure of [-2, 2]; evaluated under x = 2*sin(theta).
    """
    def f(theta):
        return np.log1p(4.0 * np.sin(theta) ** 2) / (2.0 * np.pi)
    return adaptive_gauss_legendre(f, -np.pi / 2, np.pi / 2, tol)
