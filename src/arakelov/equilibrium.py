"""Minimal-energy measures for the chordal kernel on three target sets.

Targets are the full complex projective line ("sphere"), the real projective
line, and symmetric real intervals [-r, r].  Each carries an explicit density
whose chordal energy has a closed form; the quadrature here recomputes
masses, potentials and energies numerically so the closed forms can be
validated rather than assumed.

Coordinate conventions: the sphere is compactified radially by
u = 1/(1+rho^2), and Jensen's formula takes the mean over the angle exactly,
so its potential is a radial integral in u.  The real line and the intervals
are arcs of the real projective line x = tan(theta): [-r, r] is the arc
|theta| <= atan(r), described by (k, k') = (sin, cos) of atan(r), and the
line is the arc r = inf, (k, k') = (1, 0).  In the chart t in [-pi/2, pi/2]
with sin(theta) = k sin(t) and cos(theta) = hypot(k', k cos t) every arc's
equilibrium measure is dt/pi (on the line the chart is theta = t), so one set
of arc kernels serves the line and every interval.  On the support the
kernel's mean over +-t is that of -log|k sin(t_x - t)|, so the support rows
of every arc are the line's less log k; off the support the chordal kernel
is taken in the chart as it stands.  Logarithmic kernel
singularities and kinks are handled by splitting at the singular point and
integrating each side with graded Gauss-Legendre panels.  On each target set
the potentials at support points are rows of one batch, each split at its
point's coordinate, and the energy's cross-check batches all nodes of an
outer level.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import (QuadratureError, QuadratureResult,
                         adaptive_gauss_legendre, split_rows, split_singular)

INF = complex(math.inf, 0.0)  # the point at infinity on P^1


@dataclass(frozen=True)
class Sphere:
    """The whole complex projective line."""


@dataclass(frozen=True)
class RealLine:
    """The real projective line (real axis plus infinity)."""


@dataclass(frozen=True)
class Interval:
    """The real interval [-r, r]."""

    r: float

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError("interval radius must be positive and finite")


TargetSet = Sphere | RealLine | Interval


def set_name(target: TargetSet) -> str:
    """The name a target set goes by in output: sphere, real-line, interval:R."""
    if isinstance(target, Sphere):
        return "sphere"
    if isinstance(target, RealLine):
        return "real-line"
    return f"interval:{target.r:g}"


def require_normal_radius(target: TargetSet) -> None:
    """Refuse an interval whose radius is below the normal double range,
    before any numpy work: r^2, 1/r and the chart's angles lose their
    precision or overflow there."""
    if isinstance(target, Interval) and target.r < sys.float_info.min:
        raise FloatingPointError(
            f"interval radius {target.r:g} is subnormal: numeric work needs r "
            f"from {sys.float_info.min:g} to {sys.float_info.max:g}")


def _is_infinite(x) -> bool:
    z = complex(x)
    return math.isinf(z.real) or math.isinf(z.imag)


def analytic_energy(target: TargetSet) -> float:
    """Closed-form minimal chordal energy of the target set."""
    if isinstance(target, Sphere):
        return 0.5
    return math.log(2.0) - math.log(_arc(target)[0])


def _arc(target: TargetSet) -> tuple[float, float, float]:
    """(k, k', r) with (k, k') = (sin, cos) of atan(r) for the arc
    |theta| <= atan(r) of the real line x = tan(theta): [-r, r], or the whole
    line, the arc r = inf."""
    if isinstance(target, RealLine):
        return 1.0, 0.0, math.inf
    if isinstance(target, Interval):
        h = math.hypot(target.r, 1.0)
        return target.r / h, 1.0 / h, target.r
    raise TypeError(f"not a target set: {target!r}")


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def density(target: TargetSet, x) -> float:
    """Equilibrium density at x (per unit area for the sphere, else per unit length)."""
    if isinstance(target, Sphere):
        z = complex(x)
        if _is_infinite(z):
            raise ValueError("sphere density is expressed in the finite chart")
        try:
            value = 1.0 / (math.pi * (1.0 + abs(z) ** 2) ** 2)
        except OverflowError:
            value = 0.0
        if value == 0.0:  # pi (1 + |z|^2)^2 overflowed: |z| > 8.7e76, so 1 + |z|^2 = |z|^2
            a = math.hypot(z.real, z.imag)  # inf where abs(z) would raise
            value = 1.0 / math.pi / a / a / a / a
        return value
    if isinstance(target, RealLine):
        xr = _require_real(x)
        return 1.0 / (math.pi * (1.0 + xr * xr))
    if isinstance(target, Interval):
        require_normal_radius(target)
        xr = _require_real(x)
        r = target.r
        if not abs(xr) < r:
            raise ValueError(f"point {xr} outside the open interval (-{r}, {r})")
        value = float(_arc_density(math.hypot(1.0, r) / np.pi / r, xr,
                                   (r - abs(xr)) / r, 1.0 + abs(xr) / r))
        if not math.isfinite(value):  # beyond double range, as from r = 1e-309 down
            raise FloatingPointError(f"interval density at r = {r:g} is not finite")
        return value
    raise TypeError(f"not a target set: {target!r}")


def _require_real(x) -> float:
    z = complex(x)
    if z.imag != 0.0 or _is_infinite(z):
        raise ValueError(f"{x!r} is not a finite real point")
    return z.real


def _arc_density(scale, x, near, far):
    """scale / ((1 + x^2) sqrt(near far)), near = 1 - |x|/r and far = 1 + |x|/r,
    divided in an order that overflows only where the value does: at
    scale = 1/(pi k) the density of the arc."""
    hx = np.hypot(1.0, x)
    return scale / np.sqrt(near) / np.sqrt(far) / hx / hx


def _arc_x(k: float, kp: float, t):
    """The point x(t) = tan(theta) = k sin(t) / hypot(k', k cos t) of the arc."""
    return k * np.sin(t) / np.hypot(kp, k * np.cos(t))


def _arc_t(r: float, x: float) -> float:
    """The chart angle of x in [-r, r]: tan t = x sqrt(1 + r^2) / sqrt(r^2 - x^2),
    formed from r itself, so that r - |x| is exact near the ends; on the real
    line, r = inf, its limit atan(x)."""
    if r == math.inf:
        return math.atan(x)
    a = abs(x)
    return math.atan2(x * (math.hypot(1.0, r) / r),
                      math.sqrt((r - a) / r) * math.sqrt(1.0 + a / r))


# ---------------------------------------------------------------------------
# total mass
# ---------------------------------------------------------------------------


def mass(target: TargetSet, tol: float = 1e-9) -> QuadratureResult:
    """Integral of the density over its support; the normalization check."""
    if isinstance(target, Sphere):
        def radial(u):
            rho2 = 1.0 / u - 1.0
            dens = 1.0 / (np.pi * (1.0 + rho2) ** 2)
            return 2.0 * np.pi * dens * (1.0 + rho2) ** 2 / 2.0
        return adaptive_gauss_legendre(radial, 0.0, 1.0, tol)
    require_normal_radius(target)
    k, kp, _ = _arc(target)

    def f(t):
        # the density times dx/dt = k cos t / g^3, g = cos(theta), with k
        # cancelled first: near +-r the density alone overflows at the smallest
        # r.  g^2 - s^2 = cos^2 t makes 1 - |x|/r = (g - s)/g cancellation-free
        c, s = np.cos(t), kp * np.abs(np.sin(t))
        g = np.hypot(kp, k * c)
        near, far = c / g * (c / (g + s)), (g + s) / g
        return _arc_density(c / g / g / g / np.pi, _arc_x(k, kp, t), near, far)
    return adaptive_gauss_legendre(f, -np.pi / 2, np.pi / 2, tol)


# ---------------------------------------------------------------------------
# elliptic potentials
# ---------------------------------------------------------------------------


def potential(target: TargetSet, x, tol: float = 1e-8) -> QuadratureResult:
    """Integral of -log(chordal distance to x) against the equilibrium measure."""
    if cmath.isnan(complex(x)):
        raise ValueError(f"{x!r} is not a point of P^1")
    if isinstance(target, Sphere):
        z = complex(x)
        a = math.hypot(z.real, z.imag)  # inf where abs(z) would raise
        return _sphere_potentials(np.array([1.0 / (1.0 + a * a)]), tol)[0]
    require_normal_radius(target)
    return _arc_potential(target, x, tol)


def _half_log1p_sq(a: float) -> float:
    """(1/2) log(1 + a^2) for a >= 0, also where a^2 overflows."""
    if a > 1e150:
        return math.log(a)  # the dropped (1/2) log1p(a^-2) is below 1e-300
    return 0.5 * math.log1p(a * a)


def _sphere_potentials(c: np.ndarray, tol: float):
    """Sphere potentials at the points of moduli |x| with c = 1/(1 + |x|^2),
    one row each, split at c.

    In u = 1/(1 + rho^2) the measure is du dphi / 2pi on [0, 1], and by
    Jensen's formula the mean over phi of -log|x - rho e^(i phi)| is
    -log max(|x|, rho), so the chordal kernel averages to
    -(1/2) log max(u (1 - c), c (1 - u)): one radial integral with a kink at
    u = c.  The point at infinity is c = 0.
    """
    def f(rows, u):
        cx = c[rows, None]
        return -0.5 * np.log(np.maximum(u * (1.0 - cx), cx * (1.0 - u)))
    return split_rows(f, 0.0, 1.0, c[:, None], tol)


def _arc_support_potentials(k: float, t_x: np.ndarray, tol: float):
    """Potentials of the arc of sin(theta) = k sin(t) at the points of chart
    angles t_x, one row each, split at t_x.

    The chordal distance of tan(theta_x) and tan(theta) is
    |sin(theta_x - theta)|, and
    sin(theta_x - theta) sin(theta_x + theta) = sin^2 theta_x - sin^2 theta
    = k^2 sin(t_x - t) sin(t_x + t).  The measure dt/pi is even in t, so the
    kernel may be taken at t and -t at once: -log|k sin(t_x - t)| / pi has
    the same mean over +-t, and integrates to the same potential.  On the
    line, k = 1, it is the kernel itself.
    """
    log_k = math.log(k)  # apart: k |sin(t_x - t)| underflows for the narrowest intervals

    def f(rows, t):
        return -(np.log(np.abs(np.sin(t_x[rows, None] - t))) + log_k) / np.pi
    return split_rows(f, -np.pi / 2, np.pi / 2, t_x[:, None], tol)


def _arc_potential(target: TargetSet, x, tol: float) -> QuadratureResult:
    """The potential of an arc at x: a support row on the arc, else the
    chordal distance |z cos(theta) - sin(theta)| / sqrt(1 + |z|^2) from
    tan(theta) to z integrated in the chart; at a modulus past the double
    range, the potential at infinity."""
    k, kp, r = _arc(target)

    def cos_theta(t):
        return np.hypot(kp, k * np.cos(t))

    z = complex(x)
    a = math.hypot(z.real, z.imag)  # inf where abs(z) would raise
    if a == math.inf:
        return split_singular(lambda t: -np.log(cos_theta(t)) / np.pi,
                              -np.pi / 2, np.pi / 2, (), tol)
    if z.imag == 0.0 and abs(z.real) <= r:
        return _arc_support_potentials(k, np.array([_arc_t(r, z.real)]), tol)[0]

    def g(t):
        return (-np.log(np.abs(z * cos_theta(t) - k * np.sin(t)))
                + _half_log1p_sq(a)) / np.pi
    # near the cut the kernel is nearly singular at Re z: split there
    cuts = _arc_t(r, z.real) if abs(z.real) <= r else ()
    return split_singular(g, -np.pi / 2, np.pi / 2, cuts, tol)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def energy(target: TargetSet, tol: float = 1e-8,
           cross_tol: float = 1e-6) -> QuadratureResult:
    """Minimal energy, evaluated two ways and reconciled.

    The reported value is the potential at a support point (the potential is
    constant on the support); the full double integral is recomputed as an
    independent cross-check and a disagreement beyond ``cross_tol`` raises.
    """
    single = _energy_single(target, tol)
    double = _energy_double(target, tol, cross_tol)
    gap = abs(single.value - double.value)
    if gap > cross_tol:
        raise QuadratureError(
            f"energy cross-check failed: single {single.value!r} "
            f"vs double {double.value!r}")
    return QuadratureResult(single.value, max(single.est_error, gap),
                            single.evaluations + double.evaluations)


def _energy_single(target: TargetSet, tol: float) -> QuadratureResult:
    return potential(target, INF if isinstance(target, Sphere) else 0.0, tol)


def _energy_double(target: TargetSet, tol: float,
                   cross_tol: float) -> QuadratureResult:
    """Outer Gauss-Legendre rule, n = 16 to 128, on the potential against the
    measure: in u on the sphere and in the chart angle t, of measure dt/pi,
    on an arc.  The potentials at all nodes of an outer level are one batch;
    ``evaluations`` counts the inner ones; refuses when the last n is not
    converged."""
    evals = 0
    sphere = isinstance(target, Sphere)
    k = None if sphere else _arc(target)[0]

    def f(c):
        nonlocal evals
        inner = (_sphere_potentials(c, tol / 4) if sphere
                 else _arc_support_potentials(k, c, tol / 4))
        evals += sum(p.evaluations for p in inner)
        values = np.array([p.value for p in inner])
        return values if sphere else values / np.pi
    a, b = (0.0, 1.0) if sphere else (-np.pi / 2, np.pi / 2)
    outer = adaptive_gauss_legendre(f, a, b, cross_tol / 4, max_doublings=3)
    return QuadratureResult(outer.value, outer.est_error, evals)


# ---------------------------------------------------------------------------
# conformal maps, Green function, harmonic measure on [-r, r]
# ---------------------------------------------------------------------------


def _reject_on_cut(z: complex, r: float):
    if z.imag == 0.0 and abs(z.real) <= r:
        raise ValueError(f"{z} lies on the cut [-{r}, {r}]")


def exterior_map(z, r: float) -> complex:
    """Map of the slit plane onto the exterior of the unit disk, infinity to infinity.

    sqrt(z - r) sqrt(z + r) has its cut exactly on [-r, r] and behaves like z
    at infinity, so the image modulus exceeds 1 off the cut; unlike
    sqrt(z^2 - r^2) it does not overflow for r beyond 1e154.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    z = complex(z)
    _reject_on_cut(z, r)
    # both factors keep the sign of z.imag, zero included, so they share a branch
    x, y = z.real, z.imag
    return (z + cmath.sqrt(complex(x - r, y)) * cmath.sqrt(complex(x + r, y))) / r


def conformal_map(z, r: float) -> complex:
    """Exterior map composed with the disk automorphism that sends i to infinity."""
    w = exterior_map(z, r)
    w0 = 1j * (math.hypot(r, 1.0) + 1.0) / r
    if w == w0:
        return complex(math.inf, math.inf)
    return (w0.conjugate() * w - 1.0) / (w - w0)


def green_interval(z, r: float) -> float:
    """Green function of the slit plane with pole at infinity: log|exterior map|."""
    return max(0.0, math.log(abs(exterior_map(z, r))))


def harmonic_measure_interval(r: float, a: float, b: float) -> QuadratureResult:
    """Harmonic measure (seen from i) of [a, b] in [-r, r]: (t_b - t_a)/pi in
    the arc chart.  Each chart angle is within a few ulps of the true one, and the
    estimate is 4 eps (|t_a| + |t_b|)/pi."""
    require_normal_radius(Interval(r))
    if not (-r <= a < b <= r):
        raise ValueError(f"need -r <= a < b <= r, got a={a}, b={b}, r={r}")
    t_a, t_b = _arc_t(r, a), _arc_t(r, b)
    return QuadratureResult((t_b - t_a) / math.pi,
                            4.0 * sys.float_info.epsilon * (abs(t_a) + abs(t_b)) / math.pi, 0)


def energy_via_balayage(r: float, tol: float = 1e-8) -> QuadratureResult:
    """Interval energy as Green value at i plus the swept-out log moment."""
    require_normal_radius(Interval(r))
    g = green_interval(1j, r)
    moment = _arc_potential(Interval(r), INF, tol)
    return QuadratureResult(g + moment.value, moment.est_error, moment.evaluations)
