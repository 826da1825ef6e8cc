"""Simultaneous complex root finding with certified per-root error radii.

The certificate is the classical inclusion bound: every polynomial of degree
d has a root within d*|f(z)/f'(z)| of z, so d pairwise disjoint disks of that
radius pin down all d roots, one per disk.

- Starts: Aberth-Ehrlich sweeps begin on the circles of the Newton polygon,
  the upper hull of (i, log|a_i|): a hull edge from i to j puts j - i starts on
  the circle of radius (|a_i| / |a_j|)^(1/(j - i)), where that many roots sit
  roughly (Bini, Numer. Algorithms 1996; Bini-Robol, J. Comput. Appl. Math.
  2014).  A zero constant term puts one start, and one root, at 0.
- First rung: double precision, with a running-error bound on Horner's rule.
- Second rung, for each disk the first leaves above ``tol`` or meeting
  another: a double centre is a dyadic rational, so f and f' are evaluated
  there exactly on the integer coefficients, Aberth sweeps on those exact
  quotients move the centres, and a radius carries only the rounding of its
  quotient and square root.  The sweeps start from the polygon circles when
  the coefficients overflow a double, and again when a first pass fails.
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
_NAN = complex(math.nan, math.nan)
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
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    """Centres and radii for the exact rung, in turn: the double rung's, then the polygon's."""
    d = len(coeffs) - 1
    if d == 1:
        try:
            root = complex(-coeffs[0] / coeffs[1])  # correctly rounded even for big ints
        except OverflowError:
            raise RootFindingError("root exceeds double-precision range") from None
        yield [root], [4.0 * _EPS * (1.0 + abs(root))]
        return  # the centre is already the nearest double
    try:
        approx = _aberth(coeffs)
    except OverflowError:  # coefficients or iterates beyond float range
        pass
    else:
        yield _certify_double(coeffs, approx) or (approx, [math.inf] * d)
    try:
        starts = _start_points(coeffs)
    except OverflowError:  # a circle beyond float range: no double centre is near
        return
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
    """
    d = len(coeffs) - 1
    hull = _lower_hull([(i, -math.log(abs(a))) for i, a in enumerate(coeffs) if a])
    starts: list[tuple[float | None, float]] = [(None, 0.0)] * hull[0][0]
    for (i0, h0), (i1, h1) in zip(hull, hull[1:]):
        m = i1 - i0
        log_radius = (h1 - h0) / m
        starts += [(log_radius, 2.0 * math.pi * (k / m + i0 / d) + _ANGLE_OFFSET)
                   for k in range(m)]
    return starts


def _start_points(coeffs: tuple[int, ...]) -> list[complex]:
    """The starts of ``_starts`` as complex doubles; OverflowError beyond float range."""
    return [0j if lr is None else cmath.rect(math.exp(lr), angle)
            for lr, angle in _starts(coeffs)]


def _aberth(coeffs: tuple[int, ...]) -> list[complex]:
    """Aberth-Ehrlich in double precision: Jacobi sweeps from the polygon circles.

    Scalar loops over Python complex values; at the degrees heights see, array
    calls cost more in overhead than the arithmetic they do.  A division by
    zero gives a non-finite step, which falls back to the Newton step or, if
    that is not finite either, to a fixed nudge.  OverflowError (coefficients,
    start radii or iterates beyond float range) propagates to the caller.
    """
    lead = float(coeffs[-1])
    c = [float(a) / lead for a in coeffs[:-1]]  # monic; the leading 1 is implicit
    z = _start_points(coeffs)
    nudge = complex(1e-3 * max(abs(v) for v in z))
    for _ in range(_SWEEP_BUDGET):
        moved = False
        new = []
        for i, zi in enumerate(z):
            fz = 1 + 0j
            fpz = 0j
            for a in reversed(c):
                fpz = fpz * zi + fz
                fz = fz * zi + a
            try:
                newton = fz / fpz
            except ZeroDivisionError:
                newton = _NAN
            try:
                repulsion = 0j
                for j, zj in enumerate(z):
                    if j != i:
                        repulsion += 1.0 / (zi - zj)
                step = newton / (1.0 - newton * repulsion)
            except ZeroDivisionError:
                step = _NAN
            if not cmath.isfinite(step):
                step = newton if cmath.isfinite(newton) else nudge
            zi -= step
            new.append(zi)
            moved = moved or abs(step) > 1e-14 * abs(zi)
        z = new
        if not moved:
            break
    return z


def _certify_double(coeffs: tuple[int, ...],
                    approx) -> tuple[list[complex], list[float]] | None:
    """Certification in double precision with a rigorous evaluation-error bound.

    Returns None when any coefficient is too large to round exactly to float
    or |f(z)| overflows; a root whose derivative is swamped by rounding error
    gets an infinite radius.  The exact rung takes over in both cases.
    """
    if any(abs(a) > 2 ** 53 for a in coeffs):
        return None
    d = len(coeffs) - 1
    c = [float(a) for a in coeffs]
    tail = c[-2::-1]
    # running-error bound for complex Horner, with headroom over the real case
    unit = (4.0 * d + 4.0) * _EPS
    centers = [complex(v) for v in approx]
    radii = []
    try:
        for z in centers:
            az = abs(z)
            fz = complex(c[-1])
            fpz = 0j
            mag = abs(c[-1])
            magp = 0.0
            for a in tail:
                fpz = fpz * z + fz
                fz = fz * z + a
                magp = magp * az + mag
                mag = mag * az + abs(a)
            denom = abs(fpz) - unit * magp
            radii.append(d * (abs(fz) + unit * mag) / denom + 4.0 * _EPS * (1.0 + az)
                         if denom > 0.0 else math.inf)
    except OverflowError:  # |f(z)| beyond float range
        return None
    return centers, radii


def _certify_exact(coeffs: tuple[int, ...], centers: list[complex],
                   radii: list[float], tol: float) -> bool:
    """Second rung, in place: Gauss-Seidel Aberth sweeps on exactly evaluated
    f/f' over every root whose disk is above ``tol`` or meets another disk;
    True when all disks end certified.  A moved centre keeps its old radius
    as a guide until the next sweep evaluates it.  A root stops when its step
    leaves its centre unchanged or is below eps |z| once its disk is isolated
    (eps |z| / 16 before, so that sub-ulp steps still part a close pair).
    """
    if _accept(centers, radii, tol):
        return True
    active = [i for i in range(len(centers)) if not _isolated(i, centers, radii, tol)]
    for _ in range(_SWEEP_BUDGET):
        moved = []
        for i in active:
            z = centers[i]
            if not cmath.isfinite(z):
                continue
            radii[i], newton = _exact_step(coeffs, z)
            if newton is None:
                continue
            try:
                repulsion = sum(1.0 / (z - w) for j, w in enumerate(centers) if j != i)
                step = newton / (1.0 - newton * repulsion)
            except ZeroDivisionError:
                step = _NAN
            if not cmath.isfinite(step):
                step = newton
            still = _EPS * abs(z) * (1.0 if _isolated(i, centers, radii, tol) else 0.0625)
            if z - step == z or abs(step) <= still:
                continue
            centers[i] = z - step
            moved.append(i)
        active = moved
        if not active:
            break
    for i in active:  # moved by the last sweep the budget allows: never evaluated
        radii[i] = math.inf
    return _accept(centers, radii, tol)


def _isolated(i: int, centers: list[complex], radii: list[float], tol: float) -> bool:
    """Whether disk i is certified: at most ``tol`` and disjoint from the others."""
    r, z = radii[i], centers[i]
    return r <= tol and all(abs(z - w) > r + radii[j]
                            for j, w in enumerate(centers) if j != i)


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
