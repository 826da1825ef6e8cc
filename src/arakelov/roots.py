"""Simultaneous complex root finding with certified per-root error radii.

The certificate is the classical inclusion bound: every polynomial of degree
d has a root within d*|f(z)/f'(z)| of z, so d pairwise disjoint disks of that
radius pin down all d roots, one per disk.

- Starts: Aberth-Ehrlich sweeps begin on the circles of the Newton polygon,
  the upper hull of (i, log|a_i|): a hull edge from i to j puts j - i starts on
  the circle of radius (|a_i| / |a_j|)^(1/(j - i)), where that many roots sit
  roughly (Bini, Numer. Algorithms 1996; Bini-Robol, J. Comput. Appl. Math.
  2014).  A zero constant term puts one start, and one root, at 0.
- One loop of Gauss-Seidel Aberth sweeps, ``_sweeps``, with two step kernels
  that give a root's certified radius and Newton step f/f' at its centre.
  Double: Horner's rule with a running-error bound.  Exact: a double centre
  is a dyadic rational, so f and f' are evaluated there exactly on the
  integer coefficients, and a radius carries only the rounding of its
  quotient and square root.
- Passes differ only in the stop rule.  Double sweeps run from the polygon
  starts; a root takes its first step below 1e-14 |z| and stops at the next
  evaluation, whose radius it keeps.  Exact sweeps then run over each disk
  above ``tol`` or meeting another, and again from the polygon starts if
  they fail or the coefficients overflow a double.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .padic import _lower_hull
from .polynomials import PrimitivePolynomial

_SWEEP_BUDGET = 200
_ANGLE_OFFSET = 2.0 * math.pi * (math.sqrt(5) - 1) / 2  # irrational fraction of a turn
_EPS = sys.float_info.epsilon
_ROUNDING = 1.0 + 4.0 * _EPS  # covers the three roundings of an exact-rung radius
_TINY = 5e-324  # smallest subnormal: covers the rounding of a subnormal radius
_CENTER_SLACK = 4e-16  # how far, relative to its modulus, a double may sit from a root


class RootFindingError(RuntimeError):
    """Root iteration failed to certify; retry with a looser tol or report upstream."""


@dataclass(frozen=True)
class CertifiedComplexRoots:
    """All complex roots, each inside a certified disk of the given radius."""

    roots: tuple[complex, ...]
    radii: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.roots)

    def max_radius(self) -> float:
        return max(self.radii)


def complex_roots(f: PrimitivePolynomial, tol: float = 1e-12) -> CertifiedComplexRoots:
    """Find all roots of f with certified radii at most ``tol``.

    Raises :class:`RootFindingError` if no rung certifies them.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    coeffs = f.coeffs
    for centers, radii in _passes(coeffs):
        if _certify_exact(coeffs, centers, radii, tol):
            return _package(centers, radii)
    modulus = _modulus_lower_bound(coeffs)
    reason = (f": a root of modulus at least {modulus:.3g} cannot be pinned to that "
              "absolute radius by a double-precision center"
              if _CENTER_SLACK * modulus > tol else "; the input may be ill-conditioned")
    # f is named by its size: str(f) fails past the interpreter's int-to-str limit
    raise RootFindingError(
        f"could not certify the roots of a degree-{f.degree} polynomial with coefficients "
        f"of up to {max(abs(a) for a in coeffs).bit_length()} bits to radius {tol:g}{reason}")


def _passes(coeffs: tuple[int, ...]):
    """Centres and radii for the exact rung, in turn: those of the double
    sweeps from the polygon starts, then the polygon starts again."""
    d = len(coeffs) - 1
    if d == 1:
        try:
            root = complex(-coeffs[0] / coeffs[1])  # correctly rounded even for big ints
        except OverflowError:
            raise RootFindingError("root exceeds double-precision range") from None
        yield [root], [4.0 * _EPS * (1.0 + abs(root))]
        return  # the centre is already the nearest double
    try:
        starts = _start_points(coeffs)
    except OverflowError:  # a circle beyond float range: no double centre is near
        return
    try:
        step_at = _double_step(coeffs)
    except OverflowError:  # a coefficient beyond float range
        pass
    else:
        centers, radii = list(starts), [math.inf] * d
        _sweeps(centers, radii, range(d), step_at, _polished())
        yield centers, radii
    yield starts, [math.inf] * d


def _modulus_lower_bound(coeffs: tuple[int, ...]) -> float:
    """Some root has at least this modulus: |e_k| <= C(d, k) max|z|^k for each k."""
    d = len(coeffs) - 1
    lead = math.log(abs(coeffs[-1]))
    log_bound = max((math.log(abs(coeffs[d - k])) - lead - math.log(math.comb(d, k))) / k
                    for k in range(1, d + 1) if coeffs[d - k])
    return math.exp(min(log_bound, 709.0))


def _package(centers, radii) -> CertifiedComplexRoots:
    order = sorted(range(len(centers)), key=lambda i: (centers[i].real, centers[i].imag))
    return CertifiedComplexRoots(
        roots=tuple(centers[i] for i in order),
        radii=tuple(radii[i] for i in order),
    )


def _accept(centers, radii, tol) -> bool:
    n = len(centers)
    if any(not (r <= tol) for r in radii):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if abs(centers[i] - centers[j]) <= radii[i] + radii[j]:
                return False
    return True


def _starts(coeffs: tuple[int, ...]) -> list[tuple[float | None, float]]:
    """(log radius, angle) of each Aberth start, from the Newton polygon.

    The log radius is None for the start at 0 that a zero constant term asks
    for.  Each circle is turned by its first index, so circles do not line up.
    Consecutive hull edges whose log radii agree up to rounding are one edge,
    which the float hull split at a vertex on the chord: one circle.
    """
    d = len(coeffs) - 1
    hull = _lower_hull([(i, -math.log(abs(a))) for i, a in enumerate(coeffs) if a])
    edges: list[tuple[tuple[int, float], tuple[int, float]]] = []
    for (i0, h0), (i1, h1) in zip(hull, hull[1:]):
        if edges:
            (j0, g0), _ = edges[-1]
            slack = 8.0 * _EPS * max(1.0, abs(g0), abs(h0), abs(h1))
            if abs((h1 - h0) / (i1 - i0) - (h0 - g0) / (i0 - j0)) <= slack:
                edges[-1] = ((j0, g0), (i1, h1))
                continue
        edges.append(((i0, h0), (i1, h1)))
    starts: list[tuple[float | None, float]] = [(None, 0.0)] * hull[0][0]
    for (i0, h0), (i1, h1) in edges:
        m = i1 - i0
        log_radius = (h1 - h0) / m
        starts += [(log_radius, 2.0 * math.pi * (k / m + i0 / d) + _ANGLE_OFFSET)
                   for k in range(m)]
    return starts


def _start_points(coeffs: tuple[int, ...]) -> list[complex]:
    """The starts of ``_starts`` as complex doubles; OverflowError beyond float range."""
    return [0j if lr is None else cmath.rect(math.exp(lr), angle)
            for lr, angle in _starts(coeffs)]


def _sweeps(centers: list[complex], radii: list[float], active, step_at, stop) -> None:
    """Gauss-Seidel Aberth sweeps, in place, over the roots in ``active``.

    ``step_at(z)`` gives the certified radius at z and the Newton step f/f'
    (None if there is none); ``stop(i, z, step)`` says whether root i stays
    at z.  A root that moves is evaluated again, so every radius belongs to
    the centre it ends with, or is inf if the budget ends the moves.  A move
    beyond float range is not taken.
    """
    for _ in range(_SWEEP_BUDGET):
        moved = []
        for i in active:
            z = centers[i]
            radii[i], newton = step_at(z)
            if newton is None:
                continue
            try:
                repulsion = 0j
                for j, w in enumerate(centers):
                    if j != i:
                        repulsion += 1.0 / (z - w)
                step = newton / (1.0 - newton * repulsion)
            except ZeroDivisionError:  # two centres coincide
                step = newton
            if not cmath.isfinite(step):
                step = newton
            if stop(i, z, step):
                continue
            z -= step
            if cmath.isfinite(z):
                centers[i] = z
                moved.append(i)
        active = moved
        if not active:
            break
    for i in active:  # moved by the last sweep the budget allows: never evaluated
        radii[i] = math.inf


def _polished():
    """Double-pass stop rule: after its first step below 1e-14 |z| a root is
    evaluated once more, for its radius only."""
    last = set()

    def stop(i: int, z: complex, step: complex) -> bool:
        if i in last:
            return True
        if abs(step) <= 1e-14 * abs(z):
            last.add(i)
        return False
    return stop


def _certify_exact(coeffs: tuple[int, ...], centers: list[complex],
                   radii: list[float], tol: float) -> bool:
    """Second rung, in place: exact sweeps over every root whose disk is above
    ``tol`` or meets another disk; True when all disks end certified.  A root
    stops when its step leaves its centre unchanged or is below eps |z| once
    its disk is isolated (eps |z| / 16 before, so that sub-ulp steps still
    part a close pair).
    """
    if _accept(centers, radii, tol):
        return True

    def still(i: int, z: complex, step: complex) -> bool:
        scale = 1.0 if _isolated(i, centers, radii, tol) else 0.0625
        return z - step == z or abs(step) <= _EPS * abs(z) * scale

    active = [i for i in range(len(centers)) if not _isolated(i, centers, radii, tol)]
    _sweeps(centers, radii, active, lambda z: _exact_step(coeffs, z), still)
    return _accept(centers, radii, tol)


def _isolated(i: int, centers: list[complex], radii: list[float], tol: float) -> bool:
    """Whether disk i is certified: at most ``tol`` and disjoint from the others."""
    r, z = radii[i], centers[i]
    return r <= tol and all(abs(z - w) > r + radii[j]
                            for j, w in enumerate(centers) if j != i)


def _double_step(coeffs: tuple[int, ...]):
    """The double-precision step kernel: Horner's rule with a running-error
    bound.  The radius is inf when a coefficient exceeds 2^53 (so is not a
    double), rounding swamps f'(z) or |f(z)| overflows; OverflowError for a
    coefficient beyond float range.

    A root keeps only the radius of its last evaluation, once its steps are
    below 1e-14 |z|, so the bound is skipped (radius inf) while the Newton
    step is above 2^-26 |z|: that saves most of its cost.
    """
    d = len(coeffs) - 1
    lead = complex(coeffs[-1])
    tail = [float(a) for a in coeffs[-2::-1]]
    abs_tail = [abs(a) for a in tail]
    all_doubles = all(abs(a) <= 2 ** 53 for a in coeffs)
    # running-error bound for complex Horner, with headroom over the real case
    unit = (4.0 * d + 4.0) * _EPS

    def step_at(z: complex) -> tuple[float, complex | None]:
        fz, fpz = lead, 0j
        for a in tail:
            fpz = fpz * z + fz
            fz = fz * z + a
        try:
            newton = fz / fpz
            az = abs(z)
            if not abs(newton) <= 2.0 ** -26 * az:  # far from a root, or not finite
                return math.inf, newton if cmath.isfinite(newton) else None
            mag, magp = lead.real, 0.0  # the leading coefficient is positive
            for a in abs_tail:
                magp = magp * az + mag
                mag = mag * az + a
            denom = abs(fpz) - unit * magp
            radius = (d * (abs(fz) + unit * mag) / denom + 4.0 * _EPS * (1.0 + az)
                      if all_doubles and denom > 0.0 else math.inf)
        except (ZeroDivisionError, OverflowError):  # f'(z) = 0, or a modulus beyond float range
            return math.inf, None
        return (radius if radius < math.inf else math.inf), newton  # NaN once Horner overflows
    return step_at


def _exact_step(coeffs: tuple[int, ...], z: complex) -> tuple[float, complex | None]:
    """Certified radius d |f(z)/f'(z)| from an exact evaluation, and the
    Newton step f/f' as a double (None when f'(z) = 0 or it overflows).

    z = (X + iY)/Q with Q = 2^s, so homogenised Horner gives B = Q^d f(z) and
    C = Q^(d-1) f'(z) in Python ints, and f/f' = B / (Q C).
    """
    (xn, xq), (yn, yq) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    s = max(xq, yq).bit_length() - 1
    x = xn << (s - xq.bit_length() + 1)
    y = yn << (s - yq.bit_length() + 1)
    br, bi = coeffs[-1], 0
    cr = ci = 0
    for j, a in enumerate(coeffs[-2::-1], 1):
        cr, ci = cr * x - ci * y + br, cr * y + ci * x + bi
        br, bi = br * x - bi * y + (a << (s * j)), br * y + bi * x
    c2 = cr * cr + ci * ci
    radius = _radius_bound(len(coeffs) - 1, br * br + bi * bi, c2 << (2 * s))
    if not c2:
        return radius, None
    # B conj(C) / (Q |C|^2), each part a correctly rounded int / int
    q = c2 << s
    try:
        return radius, complex((br * cr + bi * ci) / q, (bi * cr - br * ci) / q)
    except OverflowError:
        return radius, None


def _radius_bound(d: int, num: int, den: int) -> float:
    """An upper bound on d * sqrt(num / den); inf when den = 0 or it overflows.

    The quotient is scaled by 4^k into the normal range, so its rounding stays
    relative however small the ratio; ``_ROUNDING`` covers the quotient, the
    square root and the product, and ``_TINY`` a subnormal result.
    """
    if not den:
        return math.inf
    k = max(0, (den.bit_length() - num.bit_length()) // 2 + 1)
    try:
        q = (num << (2 * k)) / den
    except OverflowError:
        return math.inf
    return math.ldexp(d * math.sqrt(q) * _ROUNDING, -k) + _TINY
