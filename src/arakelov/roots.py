"""Simultaneous complex root finding with certified per-root error radii.

The solver runs an all-roots (Aberth-Ehrlich) iteration in double precision,
then polishes and certifies each root in higher working precision against the
exact integer coefficients.  The certificate is the classical inclusion bound:
every polynomial of degree d has a root within d*|f(z)/f'(z)| of z, so d
pairwise disjoint disks of that radius pin down all d roots, one per disk.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import mpmath as mp

from .polynomials import PrimitivePolynomial

_SWEEP_BUDGET = 200
_ANGLE_OFFSET = 2.0 * math.pi * (math.sqrt(5) - 1) / 2  # irrational fraction of a turn
_NAN = complex(math.nan, math.nan)
_CENTER_SLACK = 4e-16  # relative rounding of an mpc center to a complex


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

    Raises :class:`RootFindingError` if certification fails after the
    iteration budget and the precision ladder.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = f.degree
    if d == 1:
        a0, a1 = f.coeffs
        try:
            root = -a0 / a1  # correctly rounded even for big ints
        except OverflowError:
            root = math.inf
        if not math.isfinite(root):
            raise RootFindingError("root exceeds double-precision range")
        radius = 4.0 * sys.float_info.epsilon * (1.0 + abs(root))
        if radius <= tol:
            return CertifiedComplexRoots((complex(root),), (radius,))
        pair = _certify(f.coeffs, [complex(root)], dps=30, steps=2)
        return _package(pair, tol)
    try:
        approx = _aberth(f.coeffs)
    except OverflowError:  # coefficients or iterates beyond float range
        approx = _aberth_mp(f.coeffs, dps=60)
    fast = _certify_double(f.coeffs, approx)
    if fast is not None and _accept(*fast, tol):
        return _package(fast, tol)
    for dps, steps in ((30, 2), (60, 6)):
        centers, radii = _certify(f.coeffs, approx, dps=dps, steps=steps)
        if _accept(centers, radii, tol):
            return _package((centers, radii), tol)
        approx = centers
    approx = _aberth_mp(f.coeffs, dps=120)
    centers, radii = _certify(f.coeffs, approx, dps=120, steps=4)
    if _accept(centers, radii, tol):
        return _package((centers, radii), tol)
    modulus = _modulus_lower_bound(f.coeffs)
    if _CENTER_SLACK * modulus > tol:
        raise RootFindingError(
            f"could not certify roots of {f} to radius {tol:g}: a root of modulus "
            f"at least {modulus:.3g} cannot be pinned to that absolute radius by "
            "a double-precision center")
    raise RootFindingError(
        f"could not certify roots of {f} to radius {tol:g}; "
        "the input may be ill-conditioned")


def _modulus_lower_bound(coeffs: tuple[int, ...]) -> float:
    """Some root has at least this modulus: |e_k| <= C(d, k) max|z|^k for each k."""
    d = len(coeffs) - 1
    lead = math.log(abs(coeffs[-1]))
    log_bound = max((math.log(abs(coeffs[d - k])) - lead - math.log(math.comb(d, k))) / k
                    for k in range(1, d + 1) if coeffs[d - k])
    return math.exp(min(log_bound, 709.0))


def _package(pair, tol) -> CertifiedComplexRoots:
    centers, radii = pair
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


def _aberth(coeffs: tuple[int, ...]) -> list[complex]:
    """Aberth-Ehrlich in double precision: Jacobi sweeps from the Cauchy circle.

    Scalar loops over Python complex values; at the degrees heights see, array
    calls cost more in overhead than the arithmetic they do.  A division by
    zero gives a non-finite step, which falls back to the Newton step or, if
    that is not finite either, to a fixed nudge.  OverflowError (coefficients
    or iterates beyond float range) propagates to the caller.
    """
    d = len(coeffs) - 1
    lead = float(coeffs[-1])
    c = [float(a) / lead for a in coeffs[:-1]]  # monic; the leading 1 is implicit
    radius = 1.0 + max(abs(a) for a in c)  # Cauchy bound
    z = [radius * cmath.exp(1j * (2.0 * math.pi * k / d + _ANGLE_OFFSET))
         for k in range(d)]
    nudge = complex(1e-3 * radius)
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


def _aberth_mp(coeffs: tuple[int, ...], dps: int) -> list[complex]:
    d = len(coeffs) - 1
    with mp.workdps(dps):
        radius = 1 + mp.mpf(max(abs(c) for c in coeffs[:-1])) / coeffs[-1]
        z = [radius * mp.expjpi(2 * mp.mpf(k) / d + mp.mpf(_ANGLE_OFFSET) / mp.pi)
             for k in range(d)]
        for _ in range(_SWEEP_BUDGET):
            moved = mp.mpf(0)
            for i in range(d):
                fz, fpz = _eval_pair(coeffs, z[i])
                if fpz == 0:
                    continue
                newton = fz / fpz
                rep = mp.fsum(1 / (z[i] - z[j]) for j in range(d) if j != i)
                denom = 1 - newton * rep
                step = newton if denom == 0 else newton / denom
                z[i] -= step
                moved = max(moved, abs(step))
            if moved < mp.mpf(10) ** (-dps + 5):
                break
        return [complex(v) for v in z]


def _certify_double(coeffs: tuple[int, ...],
                    approx) -> tuple[list[complex], list[float]] | None:
    """Certification in double precision with a rigorous evaluation-error bound.

    Returns None when any coefficient is too large to round exactly to float
    or a derivative is swamped by rounding error; callers then fall back to
    the high-precision path.
    """
    if any(abs(a) > 2 ** 53 for a in coeffs):
        return None
    d = len(coeffs) - 1
    c = [float(a) for a in coeffs]
    tail = c[-2::-1]
    eps = sys.float_info.epsilon
    # running-error bound for complex Horner, with headroom over the real case
    unit = (4.0 * d + 4.0) * eps
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
            if denom <= 0.0:
                return None
            radii.append(d * (abs(fz) + unit * mag) / denom + 4.0 * eps * (1.0 + az))
    except OverflowError:  # |f(z)| beyond float range
        return None
    return centers, radii


def _eval_pair(coeffs, z):
    fz = mp.mpc(coeffs[-1])
    fpz = mp.mpc(0)
    for a in coeffs[-2::-1]:
        fpz = fpz * z + fz
        fz = fz * z + a
    return fz, fpz


def _certify(coeffs: tuple[int, ...], approx, dps: int,
             steps: int) -> tuple[list[complex], list[float]]:
    """Newton-polish each center, then bound the nearest root distance."""
    d = len(coeffs) - 1
    centers: list[complex] = []
    radii: list[float] = []
    with mp.workdps(dps):
        for z0 in approx:
            z = mp.mpc(z0)
            for _ in range(steps):
                fz, fpz = _eval_pair(coeffs, z)
                if fpz == 0:
                    z += mp.mpf(10) ** (-dps // 2)
                    continue
                z -= fz / fpz
            fz, fpz = _eval_pair(coeffs, z)
            if fpz == 0:
                radius = math.inf
            else:
                radius = float(d * abs(fz / fpz)) * (1 + 1e-9)
            zc = complex(z)
            # slack for the mpc -> complex rounding of the center itself: a
            # relative ulp, plus a floor for centers in the subnormal range
            radius += _CENTER_SLACK * abs(zc) + 1e-320
            centers.append(zc)
            radii.append(radius)
    return centers, radii
