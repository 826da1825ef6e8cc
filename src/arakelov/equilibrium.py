"""Minimal-energy measures for the chordal kernel on three target sets.

Targets are the full complex projective line ("sphere"), the real projective
line, and symmetric real intervals [-r, r].  Each carries an explicit density
whose chordal energy has a closed form; the quadrature here recomputes
masses, potentials and energies numerically so the closed forms can be
validated rather than assumed.

Coordinate conventions: unbounded supports are compactified with x = tan(theta)
(real line) and the radial substitution u = 1/(1+rho^2) (sphere).  The
interval [-r, r] is the arc |theta| <= atan(r) of the real line, and in the
chart x = r sin(t) / sqrt(1 + r^2 cos^2 t), t in [-pi/2, pi/2], where
sin(theta) = k sin(t) with k = r/sqrt(1 + r^2), its equilibrium measure is
dt/pi, as the real line's is dtheta/pi: every interval integral runs there.
Logarithmic kernel singularities are handled by splitting at the singular
point and integrating each side with a tanh-sinh rule.  Potentials at points
of the real line or an interval are rows of one tanh-sinh batch, each split
at its point's angle: a single point is a batch of one, and the energy's
cross-check takes the potentials at all nodes of an outer level as one
batch.  The sphere potential is rotation invariant and is taken at |x|.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import (QuadratureError, QuadratureResult, _refine,
                         adaptive_gauss_legendre, split_singular,
                         tanh_sinh, tanh_sinh_nodes, tanh_sinh_rows)

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
    if isinstance(target, RealLine):
        return math.log(2.0)
    if isinstance(target, Interval):
        r = target.r
        return math.log(2.0) - math.log(r / math.hypot(r, 1.0))
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
        return 1.0 / (math.pi * (1.0 + abs(z) ** 2) ** 2)
    if isinstance(target, RealLine):
        xr = _require_real(x)
        return 1.0 / (math.pi * (1.0 + xr * xr))
    if isinstance(target, Interval):
        require_normal_radius(target)
        xr = _require_real(x)
        r = target.r
        if not abs(xr) < r:
            raise ValueError(f"point {xr} outside the open interval (-{r}, {r})")
        value = float(_interval_density(r, xr, (r - abs(xr)) / r, 1.0 + abs(xr) / r))
        if not math.isfinite(value):  # beyond double range, as from r = 1e-309 down
            raise FloatingPointError(f"interval density at r = {r:g} is not finite")
        return value
    raise TypeError(f"not a target set: {target!r}")


def _require_real(x) -> float:
    z = complex(x)
    if z.imag != 0.0 or _is_infinite(z):
        raise ValueError(f"{x!r} is not a finite real point")
    return z.real


def _interval_density(r: float, x, near, far):
    """sqrt(1 + r^2) / (pi (1 + x^2) sqrt(r^2 near far)), near = 1 - |x|/r and far =
    1 + |x|/r, divided in an order that overflows only where the value does."""
    hx = np.hypot(1.0, x)
    return math.hypot(1.0, r) / np.pi / r / np.sqrt(near) / np.sqrt(far) / hx / hx


def _interval_x(r: float, t):
    """The point x(t) = r sin(t) / sqrt(1 + r^2 cos^2 t) of [-r, r]."""
    return r * np.sin(t) / np.hypot(1.0, r * np.cos(t))


def _interval_t(r: float, x: float) -> float:
    """The chart angle of x in [-r, r]: sin t = x sqrt(1 + r^2) / (r sqrt(1 + x^2))."""
    s = x / r * (math.hypot(1.0, r) / math.hypot(1.0, x))
    return math.asin(max(-1.0, min(1.0, s)))


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
    if isinstance(target, RealLine):
        def f(theta):
            x = np.tan(theta)
            return (1.0 / (np.pi * (1.0 + x * x))) / np.cos(theta) ** 2
        return adaptive_gauss_legendre(f, -np.pi / 2, np.pi / 2, tol)
    if isinstance(target, Interval):
        require_normal_radius(target)
        r, big_h = target.r, math.hypot(1.0, target.r)

        def f(t):
            c, s = r * np.cos(t), np.abs(np.sin(t))
            h = np.hypot(1.0, c)
            # 1 - |x|/r = (h - s)/h = (1 + r^2) cos^2 t / (h (h + s)), free of cancellation
            near = (big_h * np.cos(t) / h) * (big_h * np.cos(t) / (h + s))
            dxdt = c / h * (big_h / h) ** 2  # r(1+r^2)cos t/(1+r^2 cos^2 t)^(3/2)
            return _interval_density(r, _interval_x(r, t), near, (h + s) / h) * dxdt
        return adaptive_gauss_legendre(f, -np.pi / 2, np.pi / 2, tol)
    raise TypeError(f"not a target set: {target!r}")


# ---------------------------------------------------------------------------
# elliptic potentials
# ---------------------------------------------------------------------------


def potential(target: TargetSet, x, tol: float = 1e-8) -> QuadratureResult:
    """Integral of -log(chordal distance to x) against the equilibrium measure."""
    if isinstance(target, Sphere):
        if _is_infinite(x):
            return _sphere_tail_moment(tol)
        return _sphere_potential(abs(complex(x)), tol)
    if isinstance(target, RealLine):
        if _is_infinite(x):
            return _real_line_tail_moment(tol)
        return _line_potentials(np.array([math.atan(_require_real(x))]), tol)[0]
    if isinstance(target, Interval):
        require_normal_radius(target)
        return _interval_potential(target.r, x, tol)
    raise TypeError(f"not a target set: {target!r}")


def _half_log1p_sq(a: float) -> float:
    """(1/2) log(1 + a^2) for a >= 0, also where a^2 overflows."""
    if a > 1e150:
        return math.log(a)  # the dropped (1/2) log1p(a^-2) is below 1e-300
    return 0.5 * math.log1p(a * a)


@lru_cache(maxsize=32)
def _sphere_tail_moment(tol: float) -> QuadratureResult:
    # potential at infinity: integral of (1/2)log(1+rho^2) dmu = -(1/2)log u du
    return tanh_sinh(lambda u: -0.5 * np.log(u), 0.0, 1.0, tol)


@lru_cache(maxsize=32)
def _real_line_tail_moment(tol: float) -> QuadratureResult:
    return tanh_sinh(lambda t: -np.log(np.abs(np.cos(t))) / np.pi,
                     -np.pi / 2, np.pi / 2, tol)


def _sphere_potential(ax: float, tol: float) -> QuadratureResult:
    """The sphere potential at any point of modulus ``ax``."""
    tail = _sphere_tail_moment(tol / 4)
    log_part = _sphere_log_part(ax, tol / 2)
    value = log_part.value + tail.value + _half_log1p_sq(ax)
    return QuadratureResult(value, log_part.est_error + tail.est_error,
                            log_part.evaluations + tail.evaluations)


def _sphere_log_part(ax: float, tol: float) -> QuadratureResult:
    """integral of -log|ax - w| dmu(w) in polar coordinates at the origin.

    The measure is rotation invariant, so the point is taken on the positive
    real axis.  The radial variable is compactified by u = 1/(1+rho^2), under
    which the measure's radial factor integrates to du/2.  The kernel is
    log-singular at (rho, phi) = (ax, 0) and even in phi: the angular mesh
    covers [0, pi] and counts twice, and the radial mesh splits at ax, so the
    singularity sits at a corner where the tanh-sinh product rule converges.
    """
    u_x = 1.0 / (1.0 + ax * ax)

    def level(k, _):
        h = 0.5 * 2.0 ** (-k)
        pn, pw, kept = tanh_sinh_nodes(0.0, np.pi, h)
        pn, pw = pn[kept], pw[kept]
        un, uw, kept = tanh_sinh_nodes((0.0, u_x), (u_x, 1.0), h)
        un, uw = un[kept], uw[kept]
        rho = np.sqrt(1.0 / un - 1.0)[:, None]
        kernel = -np.log(np.hypot(ax - rho * np.cos(pn), rho * np.sin(pn)))
        return [float(np.sum(uw[:, None] * pw * kernel)) / np.pi], [un.size * pn.size]
    return _refine(level, 7, tol, "sphere potential product rule")[0]


def _line_potentials(phi: np.ndarray, tol: float):
    """Real-line potentials at the points tan(phi), one tanh-sinh row each, split at phi."""
    def f(rows, theta):
        return -np.log(np.abs(np.sin(phi[rows, None] - theta))) / np.pi
    return tanh_sinh_rows(f, -np.pi / 2, np.pi / 2, phi[:, None], tol)


def _interval_support_potentials(r: float, t_x: np.ndarray, tol: float):
    """Potentials of [-r, r] at the points of chart angles t_x, one tanh-sinh
    row each, split at t_x.

    In the t chart the measure is dt/pi, and with H = sqrt(1 + r^2):
    sin(theta) = k sin t, k = r/H, and cos(theta) = sqrt(1 + r^2 cos^2 t) / H.
    """
    big_h = math.hypot(1.0, r)
    k = r / big_h
    s_x, h_x = np.sin(t_x)[:, None], np.hypot(1.0, r * np.cos(t_x))[:, None]

    def f(rows, t):
        tx, sx, hx = t_x[rows, None], s_x[rows], h_x[rows]
        s_t, h_t = np.sin(t), np.hypot(1.0, r * np.cos(t))
        # sin(theta_x - theta): where the two terms share a sign, as
        # (sin^2 theta_x - sin^2 theta) / (sin theta_x cos theta + cos theta_x sin theta)
        same = s_t * sx > 0.0
        near = (r * np.sin(tx - t) * np.sin(tx + t)
                / np.where(same, sx * h_t + s_t * hx, 1.0))
        far = k / big_h * (sx * h_t - hx * s_t)
        return -np.log(np.abs(np.where(same, near, far))) / np.pi
    return tanh_sinh_rows(f, -np.pi / 2, np.pi / 2, t_x[:, None], tol)


def _interval_potential(r: float, x, tol: float) -> QuadratureResult:
    # the chordal distance from tan(theta) to z is
    # |z cos(theta) - sin(theta)| / sqrt(1 + |z|^2), in the chart of
    # _interval_support_potentials
    big_h = math.hypot(1.0, r)
    k = r / big_h

    def cos_theta(t):
        return np.hypot(1.0, r * np.cos(t)) / big_h

    if _is_infinite(x):
        return tanh_sinh(lambda t: -np.log(cos_theta(t)) / np.pi, -np.pi / 2, np.pi / 2, tol)
    z = complex(x)
    if z.imag == 0.0 and abs(z.real) <= r:
        return _interval_support_potentials(r, np.array([_interval_t(r, z.real)]), tol)[0]

    def g(t):
        return (-np.log(np.abs(z * cos_theta(t) - k * np.sin(t)))
                + _half_log1p_sq(abs(z))) / np.pi
    # near the cut the kernel is nearly singular at Re z: split there
    cuts = _interval_t(r, z.real) if abs(z.real) <= r else ()
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
    return potential(target, 0.0 if isinstance(target, Interval) else INF, tol)


def _support_potentials(target: TargetSet, c: np.ndarray,
                        tol: float) -> list[QuadratureResult]:
    """Potentials at the support points of coordinates ``c``: u = 1/(1 + |x|^2)
    on the sphere (one product rule per point), the angle theta of
    x = tan(theta) on the real line and the chart angle t on an interval (one
    batch of tanh-sinh rows)."""
    if isinstance(target, Sphere):
        return [_sphere_potential(ax, tol) for ax in np.sqrt(1.0 / c - 1.0).tolist()]
    if isinstance(target, RealLine):
        return _line_potentials(c, tol)
    return _interval_support_potentials(target.r, c, tol)


def _energy_double(target: TargetSet, tol: float,
                   cross_tol: float) -> QuadratureResult:
    """Outer Gauss-Legendre rule, n = 16 to 128, on the potential against the
    measure: in u on the sphere, in the angle of measure dt/pi on the real line
    (x = tan t) and on an interval (the arc chart).  The potentials at all
    nodes of an outer level are one batch; ``evaluations`` counts the inner
    ones; refuses when the last n is not converged."""
    evals = 0
    sphere = isinstance(target, Sphere)

    def f(c):
        nonlocal evals
        inner = _support_potentials(target, c, tol / 4)
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
    """Harmonic measure (seen from i) of [a, b] in [-r, r]: (t_b - t_a)/pi in the arc chart."""
    if not (-r <= a < b <= r):
        raise ValueError(f"need -r <= a < b <= r, got a={a}, b={b}, r={r}")
    return QuadratureResult((_interval_t(r, b) - _interval_t(r, a)) / math.pi, 0.0, 0)


def energy_via_balayage(r: float, tol: float = 1e-8) -> QuadratureResult:
    """Interval energy as Green value at i plus the swept-out log moment."""
    require_normal_radius(Interval(r))
    g = green_interval(1j, r)
    moment = _interval_potential(r, INF, tol)
    return QuadratureResult(g + moment.value, moment.est_error, moment.evaluations)
