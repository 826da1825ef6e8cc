"""Minimal-energy measures for the chordal kernel on three target sets.

Targets are the full complex projective line ("sphere"), the real projective
line, and symmetric real intervals [-r, r].  Each carries an explicit density
whose chordal energy has a closed form; the quadrature here recomputes
masses, potentials and energies numerically so the closed forms can be
validated rather than assumed.

Coordinate conventions: unbounded supports are compactified with x = tan(theta)
(real line) and the radial substitution u = 1/(1+rho^2) (sphere); interval
integrals use x = r*sin(psi), which absorbs the inverse square-root endpoint
factor of the density.  Logarithmic kernel singularities are handled by
splitting at the singular point and integrating each side with a tanh-sinh
rule; interval integrals also split at psi = 0, where the density peaks with
width about 1/r.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import (QuadratureError, QuadratureResult, _refine,
                         adaptive_gauss_legendre, split_singular,
                         tanh_sinh, tanh_sinh_nodes)

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
        if r > 1e150:  # r*r would overflow; sqrt(r*r + 1) is r to double precision
            return math.log(2.0)
        return math.log(2.0 * math.sqrt(r * r + 1.0) / r)
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
        xr = _require_real(x)
        r = target.r
        if not abs(xr) < r:
            raise ValueError(f"point {xr} outside the open interval (-{r}, {r})")
        s = math.sqrt(r * r + 1.0) + 1.0
        w = math.sqrt(r * r - xr * xr)
        value = (s / (math.pi * w * (xr * xr + (s - w) ** 2))
                 + s / (math.pi * w * (xr * xr + (s + w) ** 2)))
        if not math.isfinite(value):  # r*r overflows from r = 1.3e154
            raise FloatingPointError(f"interval density at r = {r:g} is not finite")
        return value
    raise TypeError(f"not a target set: {target!r}")


def _require_real(x) -> float:
    z = complex(x)
    if z.imag != 0.0 or _is_infinite(z):
        raise ValueError(f"{x!r} is not a finite real point")
    return z.real


def _even_interval_integral(f, tol: float, max_doublings: int = 11) -> QuadratureResult:
    """Integral over [-pi/2, pi/2] of an f even in psi: Gauss-Legendre on
    [0, pi/2], doubled, so the density peak at psi = 0 is a panel endpoint."""
    half = adaptive_gauss_legendre(f, 0.0, np.pi / 2, tol / 2, max_doublings=max_doublings)
    return QuadratureResult(2.0 * half.value, 2.0 * half.est_error, half.evaluations)


def _interval_psi_density(r: float, psi):
    """Interval density against d(psi) under x = r*sin(psi); smooth on [-pi/2, pi/2]."""
    s = math.sqrt(r * r + 1.0) + 1.0
    x = r * np.sin(psi)
    c = r * np.cos(psi)
    return s / np.pi * (1.0 / (x * x + (s - c) ** 2) + 1.0 / (x * x + (s + c) ** 2))


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
        r = target.r
        return _even_interval_integral(lambda psi: _interval_psi_density(r, psi), tol)
    raise TypeError(f"not a target set: {target!r}")


# ---------------------------------------------------------------------------
# elliptic potentials
# ---------------------------------------------------------------------------


def potential(target: TargetSet, x, tol: float = 1e-8) -> QuadratureResult:
    """Integral of -log(chordal distance to x) against the equilibrium measure."""
    if isinstance(target, Sphere):
        if _is_infinite(x):
            return _sphere_tail_moment(tol)
        return _sphere_potential(complex(x), tol)
    if isinstance(target, RealLine):
        if _is_infinite(x):
            return _real_line_tail_moment(tol)
        xr = _require_real(x)
        phi = math.atan(xr)

        def f(theta):
            return -np.log(np.abs(np.sin(phi - theta))) / np.pi
        return split_singular(f, -np.pi / 2, np.pi / 2, phi, tol)
    if isinstance(target, Interval):
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


def _sphere_potential(x: complex, tol: float) -> QuadratureResult:
    tail = _sphere_tail_moment(tol / 4)
    log_part = _sphere_log_part(x, tol / 2)
    value = log_part.value + tail.value + _half_log1p_sq(abs(x))
    return QuadratureResult(value, log_part.est_error + tail.est_error,
                            log_part.evaluations + tail.evaluations)


def _sphere_log_part(x: complex, tol: float) -> QuadratureResult:
    """integral of -log|x - w| dmu(w) in polar coordinates at the origin.

    The radial variable is compactified by u = 1/(1+rho^2), under which the
    measure's radial factor integrates to du/2.  The kernel is log-singular
    at (rho, phi) = (|x|, arg x); both 1d meshes split there, so the
    singularity sits at a corner where the tanh-sinh product rule converges.
    """
    ax = abs(x)
    phi0 = math.atan2(x.imag, x.real)
    u_x = 1.0 / (1.0 + ax * ax)

    def levels():
        for level in range(7):
            h = 0.5 * 2.0 ** (-level)
            total, evals = 0.0, 0
            for ulo, uhi in ((0.0, u_x), (u_x, 1.0)):
                if uhi <= ulo:
                    continue
                un, uw = tanh_sinh_nodes(ulo, uhi, h)
                rho = np.sqrt(1.0 / un - 1.0)
                for plo, phi in ((phi0 - np.pi, phi0), (phi0, phi0 + np.pi)):
                    pn, pw = tanh_sinh_nodes(plo, phi, h)
                    w = rho[:, None] * np.exp(1j * pn)[None, :]
                    kernel = -np.log(np.abs(x - w))
                    total += float(np.sum(uw[:, None] * pw[None, :] * kernel))
                    evals += un.size * pn.size
            yield total / (2.0 * np.pi), evals
    return _refine(levels(), tol, "sphere potential product rule")


def _interval_potential(r: float, x, tol: float) -> QuadratureResult:
    # every split includes psi = 0, where the density peaks with width ~ 1/r
    if _is_infinite(x):
        def f(psi):
            y = r * np.sin(psi)
            return _interval_psi_density(r, psi) * 0.5 * np.log1p(y * y)
        return _even_interval_integral(f, tol)
    z = complex(x)
    if z.imag == 0.0 and abs(z.real) <= r:
        xr = z.real
        psi_x = math.asin(max(-1.0, min(1.0, xr / r)))

        def f(psi):
            y = r * np.sin(psi)
            p = _interval_psi_density(r, psi)
            # |x - y| = 2r|cos((psi+psi_x)/2) sin((psi-psi_x)/2)|, stable near psi_x
            dist = 2.0 * r * np.abs(np.cos(0.5 * (psi + psi_x))
                                    * np.sin(0.5 * (psi - psi_x)))
            return p * (-np.log(dist) + 0.5 * math.log1p(xr * xr)
                        + 0.5 * np.log1p(y * y))
        return split_singular(f, -np.pi / 2, np.pi / 2, (0.0, psi_x), tol)

    def g(psi):
        y = r * np.sin(psi)
        p = _interval_psi_density(r, psi)
        return p * (-np.log(np.abs(z - y)) + _half_log1p_sq(abs(z))
                    + 0.5 * np.log1p(y * y))
    # near the cut the kernel is nearly singular at Re z: split there too
    cuts = (0.0, math.asin(z.real / r)) if abs(z.real) <= r else 0.0
    return split_singular(g, -np.pi / 2, np.pi / 2, cuts, tol)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def energy(target: TargetSet, tol: float = 1e-8,
           cross_tol: float | None = None) -> QuadratureResult:
    """Minimal energy, evaluated two ways and reconciled.

    The reported value is the potential at a support point (the potential is
    constant on the support); the full double integral is recomputed as an
    independent cross-check and a disagreement beyond ``cross_tol`` raises.
    """
    if cross_tol is None:
        cross_tol = 1e-5 if isinstance(target, Interval) else 1e-6
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


def _energy_double(target: TargetSet, tol: float,
                   cross_tol: float) -> QuadratureResult:
    """Outer Gauss-Legendre rule on the potential against the measure: n = 16 to
    256 on an interval, whose density peak narrows as 1/r, and 16 to 128 elsewhere.

    ``evaluations`` counts the inner ones; refuses when the last n is not converged.
    """
    inner_tol = tol / 4
    evals = 0

    def potentials(xs):
        nonlocal evals
        inner = [potential(target, x, inner_tol) for x in xs]
        evals += sum(p.evaluations for p in inner)
        return np.array([p.value for p in inner])

    if isinstance(target, Interval):
        r = target.r

        def f(psi):
            return _interval_psi_density(r, psi) * potentials(r * np.sin(psi))
        outer = _even_interval_integral(f, cross_tol / 4, max_doublings=4)
    elif isinstance(target, Sphere):
        def f(u):
            return potentials(np.sqrt(1.0 / u - 1.0))
        outer = adaptive_gauss_legendre(f, 0.0, 1.0, cross_tol / 4, max_doublings=3)
    else:
        def f(t):
            return potentials(np.tan(t)) / np.pi
        outer = adaptive_gauss_legendre(f, -np.pi / 2, np.pi / 2, cross_tol / 4,
                                        max_doublings=3)
    return QuadratureResult(outer.value, outer.est_error, evals)


# ---------------------------------------------------------------------------
# conformal maps, Green function, harmonic measure on [-r, r]
# ---------------------------------------------------------------------------


def _reject_on_cut(z: complex, r: float):
    if z.imag == 0.0 and abs(z.real) <= r:
        raise ValueError(f"{z} lies on the cut [-{r}, {r}]")


def exterior_map(z, r: float) -> complex:
    """Map of the slit plane onto the exterior of the unit disk, infinity to infinity.

    Branch chosen so the image modulus exceeds 1 off the cut.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    z = complex(z)
    _reject_on_cut(z, r)
    xi = cmath.sqrt(z * z - r * r)
    if abs(z + xi) < abs(z - xi):
        xi = -xi
    return (z + xi) / r


def conformal_map(z, r: float) -> complex:
    """Exterior map composed with the disk automorphism that sends i to infinity."""
    w = exterior_map(z, r)
    w0 = 1j * (math.sqrt(r * r + 1.0) + 1.0) / r
    if w == w0:
        return complex(math.inf, math.inf)
    return (w0.conjugate() * w - 1.0) / (w - w0)


def green_interval(z, r: float) -> float:
    """Green function of the slit plane with pole at infinity: log|exterior map|."""
    return max(0.0, math.log(abs(exterior_map(z, r))))


def harmonic_measure_interval(r: float, a: float, b: float,
                              tol: float = 1e-9) -> QuadratureResult:
    """Harmonic measure (seen from i) of [a, b] inside [-r, r]."""
    if not (-r <= a < b <= r):
        raise ValueError(f"need -r <= a < b <= r, got a={a}, b={b}, r={r}")
    lo = math.asin(max(-1.0, min(1.0, a / r)))
    hi = math.asin(max(-1.0, min(1.0, b / r)))
    return split_singular(lambda psi: _interval_psi_density(r, psi),
                          lo, hi, min(max(0.0, lo), hi), tol)


def energy_via_balayage(r: float, tol: float = 1e-8) -> QuadratureResult:
    """Interval energy as Green value at i plus the swept-out log moment."""
    g = green_interval(1j, r)
    moment = _interval_potential(r, INF, tol)
    return QuadratureResult(g + moment.value, moment.est_error, moment.evaluations)
