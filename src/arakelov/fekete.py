"""Discrete chordal-energy minimization (Fekete-style point configurations).

Free points live in coordinates chosen per target set so the chordal kernel
is smooth everywhere and boundary handling disappears: on the sphere the N
unit vectors u of R^3, held as 3N numbers (the x, y and z rows), where the
chordal distance is |u - v|/2; tan angles theta on the real projective line,
where it is |sin(theta - phi)|; and on an interval [-r, r], the arc
theta = atan(r)*sin(t) of that line, angles t mapped onto the real-line
kernels.  The sphere energy normalises its points itself, so its gradient,
the Euclidean pair gradient projected onto the tangent planes, has no pole
singularity and is exact at any nonzero vectors.  Sphere results are
reported as azimuths and polar angles.

The optimizer is gradient descent with a Barzilai-Borwein trial step and
Armijo backtracking (one loop, ``descend``), restarted from exact samples of
the equilibrium measure.  Each trial point is retracted onto its chart
before its energy is taken: rows normalised on the sphere, unchanged on the
line and intervals (Wen-Yin, Math. Program. 2013).

The two energy kernels (sphere, real line) evaluate the chordal kernel on the
n(n-1)/2 point pairs only (their indices cached per n), and return the pair
data their one gradient kernel reuses at the same point.  An accepted step
keeps the energy its Armijo test computed and the pair data it left, so an
iteration evaluates the gradient once and the energy only at trial points.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (Interval, RealLine, Sphere, TargetSet,
                          analytic_energy, require_normal_radius, set_name)


@dataclass
class PointConfiguration:
    """An N-point configuration with its energy and optimizer bookkeeping.

    ``params`` holds 2N values (N azimuths then N polar angles) for the sphere,
    else N angles: theta on the real line, t with theta = atan(r)*sin(t) on [-r, r].
    """

    set: TargetSet
    params: np.ndarray
    energy: float
    iterations: int
    converged: bool = True

    @property
    def n(self) -> int:
        return len(self.params) // 2 if isinstance(self.set, Sphere) else len(self.params)

    def to_json_dict(self) -> dict:
        return {"set": set_name(self.set), "n": self.n,
                "params": [float(v) for v in self.params],
                "energy": self.energy, "iterations": self.iterations,
                "converged": self.converged}


def _pair_scale(n: int) -> float:
    return 1.0 / (n * (n - 1))


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j), i < j, of the n(n-1)/2 point pairs in row-major order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _evaluate(target: TargetSet, params: np.ndarray) -> tuple[float, tuple]:
    """Discrete energy from the n(n-1)/2 pair distances (+inf at coincident
    points), and the pair data its gradient reuses at the same params."""
    if isinstance(target, RealLine):
        n = len(params)
        i, j = _pairs(n)
        d = params[i] - params[j]
        s = np.sin(d)
        return float(-2.0 * np.log(np.abs(s)).sum() * _pair_scale(n)) + 0.0, (d, s)
    if isinstance(target, Sphere):
        x = params.reshape(3, -1)
        norms = np.sqrt((x * x).sum(axis=0))
        u = x / norms
        n = len(norms)
        i, j = _pairs(n)
        diff = u.take(i, axis=1) - u.take(j, axis=1)
        d2 = (diff * diff).sum(axis=0)
        # -2 log(|u_i - u_j| / 2) = -log(|u_i - u_j|^2 / 4)
        # d2 / 4 rounds above 1 for pairs that are antipodal up to rounding
        return (float(-np.log(np.minimum(d2 / 4.0, 1.0)).sum() * _pair_scale(n)) + 0.0,
                (u, norms))
    if isinstance(target, Interval):
        return _evaluate(RealLine(), math.atan(target.r) * np.sin(params))
    raise TypeError(f"not a target set: {target!r}")


def _energy(target: TargetSet, params: np.ndarray) -> float:
    """Discrete energy of the descent parameters."""
    return _evaluate(target, params)[0]


def _gradient(target: TargetSet, params: np.ndarray, pairs: tuple | None = None) -> np.ndarray:
    """Gradient of ``_energy`` with respect to ``params``, from the pair data
    ``_evaluate`` returned at ``params`` (computed here if not given)."""
    if pairs is None:
        pairs = _evaluate(target, params)[1]
    if isinstance(target, RealLine):
        n = len(params)
        i, j = _pairs(n)
        d, s = pairs
        c = np.cos(d) / s
        # cos is even and sin odd, so cot(p_j - p_i) is exactly -cot(p_i - p_j)
        cot = np.zeros(n * n)
        cot[i * n + j] = c
        cot[j * n + i] = -c
        return -2.0 * _pair_scale(n) * cot.reshape(n, n).sum(axis=1)
    if isinstance(target, Sphere):
        u, norms = pairs
        n = len(norms)
        # diff[:, i, j] = u_i - u_j; the n x n form sums faster than a scatter of the pairs
        diff = u[:, :, None] - u[:, None, :]
        d2 = (diff * diff).sum(axis=0)
        np.fill_diagonal(d2, 1.0)
        # dE/du_i = -2s * sum_j (u_i - u_j)/|u_i - u_j|^2
        f = -2.0 * _pair_scale(n) * (diff / d2).sum(axis=2)
        # the energy sees only x/|x|: project onto the tangent plane at u, scale by 1/|x|.
        # The first projection leaves a radial rounding of about eps |f|, large
        # against a small tangent part; the second leaves about eps |g|.
        f = f - (u * f).sum(axis=0) * u
        f = f - (u * f).sum(axis=0) * u
        return (f / norms).ravel()
    if isinstance(target, Interval):
        alpha = math.atan(target.r)
        return _gradient(RealLine(), alpha * np.sin(params), pairs) * (alpha * np.cos(params))
    raise TypeError(f"not a target set: {target!r}")


def _retract(target: TargetSet, params: np.ndarray) -> np.ndarray:
    """Map a descent point back onto its chart: unit rows on the sphere."""
    if isinstance(target, Sphere):
        x = params.reshape(3, -1)
        return (x / np.sqrt((x * x).sum(axis=0))).ravel()
    return params


def _angles_to_vectors(params: np.ndarray) -> np.ndarray:
    """Descent parameters (x, y, z rows) of N azimuths then N polar angles."""
    az, pol = np.split(params, 2)
    sp = np.sin(pol)
    return np.concatenate([sp * np.cos(az), sp * np.sin(az), np.cos(pol)])


def discrete_energy(config: PointConfiguration) -> float:
    """Mean pairwise -log chordal distance; rejects coincident points."""
    params = np.asarray(config.params, dtype=float)
    if isinstance(config.set, Sphere):
        params = _angles_to_vectors(params)
    with np.errstate(divide="ignore"):
        value = _energy(config.set, params)
    if not math.isfinite(value):
        raise ValueError("configuration contains coincident points (infinite energy)")
    return value


def equally_spaced_energy(n: int) -> float:
    """Discrete energy of n equally spaced angles on the real projective line.

    Closed form log(2) - log(n)/(n-1), via prod_{j<n} sin(pi j/n) = n/2^(n-1);
    this is the optimal value, which the optimizer must rediscover.
    """
    if n < 2:
        raise ValueError("need at least two points")
    return math.log(2.0) - math.log(n) / (n - 1)


def _initial_params(target: TargetSet, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(target, RealLine):
        return np.pi * (rng.random(n) - 0.5)
    if isinstance(target, Sphere):
        # uniform on the sphere: azimuth and height z = cos(polar) uniform
        az = 2.0 * np.pi * rng.random(n)
        z = 1.0 - 2.0 * rng.random(n)
        rho = np.sqrt((1.0 - z) * (1.0 + z))
        return np.concatenate([rho * np.cos(az), rho * np.sin(az), z])
    # the equilibrium measure is dt/pi in the arc chart sin(theta) = r sin(t) / sqrt(1 + r^2)
    r, t = target.r, np.pi * (rng.random(n) - 0.5)
    theta = np.arctan2(r * np.sin(t), np.hypot(1.0, r * np.cos(t)))
    return np.arcsin(np.clip(theta / np.arctan(r), -1.0, 1.0))


def _canonicalize(target: TargetSet, params: np.ndarray) -> np.ndarray:
    if isinstance(target, RealLine):
        return np.mod(params, np.pi)
    if isinstance(target, Sphere):  # unit vectors to azimuths then polar angles
        x, y, z = params.reshape(3, -1)
        return np.concatenate([np.mod(np.arctan2(y, x), 2.0 * np.pi),
                               np.arctan2(np.hypot(x, y), z)])
    return np.arcsin(np.sin(params))


def descend(target: TargetSet, params: np.ndarray, budget: int,
            grad_tol: float = 1e-10,
            trace: list | None = None) -> tuple[np.ndarray, float, int, bool]:
    """Armijo-backtracking gradient descent; every accepted step decreases energy.

    Each trial point is retracted onto the chart before its energy is taken,
    and the gradient at the accepted trial reuses that energy's pair data.
    """
    params = _retract(target, np.asarray(params, dtype=float).copy())
    energy, pairs = _evaluate(target, params)
    grad = _gradient(target, params, pairs)
    if not (math.isfinite(energy) and np.isfinite(grad).all()):  # NaN fails Armijo until "stationary"
        raise FloatingPointError(f"descent start is not finite: energy {energy!r}")
    if trace is not None:
        trace.append(energy)
    step = 1.0
    prev_params = prev_grad = None
    iterations = 0
    stalls = 0
    for _ in range(budget):
        gnorm2 = float(np.dot(grad, grad))
        if math.sqrt(gnorm2) <= grad_tol:
            return params, energy, iterations, True
        # Barzilai-Borwein trial step, safeguarded by the Armijo test below
        if prev_grad is not None:
            s = params - prev_params
            y = grad - prev_grad
            sy = float(np.dot(s, y))
            step = float(np.dot(s, s)) / sy if sy > 0 else step * 2.0
        else:
            step = step * 2.0
        step = min(max(step, 1e-18), 1e6)
        while True:
            trial = _retract(target, params - step * grad)
            trial_energy, pairs = _evaluate(target, trial)
            if trial_energy <= energy - 1e-4 * step * gnorm2:
                break
            step *= 0.5
            if step < 1e-18:
                return params, energy, iterations, True  # numerically stationary
        prev_params, prev_grad = params, grad
        # the Armijo test already evaluated the energy at the accepted point
        params, new_energy = trial, trial_energy
        grad = _gradient(target, params, pairs)
        iterations += 1
        if trace is not None:
            trace.append(new_energy)
        # double precision can no longer resolve progress: call it stationary
        stalls = stalls + 1 if energy - new_energy <= 4e-16 * (1.0 + abs(energy)) else 0
        energy = new_energy
        if stalls >= 8:
            return params, energy, iterations, True
    return params, energy, iterations, False


def minimize(target: TargetSet, n: int, seed: int = 0, budget: int = 4000,
             restarts: int = 8, grad_tol: float = 1e-10) -> PointConfiguration:
    """Best locally minimal configuration over seeded restarts.

    Deterministic in (target, n, seed): restart k draws its start from an
    independent stream keyed by (seed, k), and the best energy wins with the
    restart index as tie-break.
    """
    if n < 2:
        raise ValueError("need at least two points")
    if budget < 1:
        raise ValueError("budget must be positive")
    require_normal_radius(target)
    best = None
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        start = _initial_params(target, n, rng)
        params, energy, iterations, converged = descend(target, start, budget, grad_tol)
        if best is None or energy < best[0]:
            best = (energy, params, iterations, converged)
    energy, params, iterations, converged = best
    return PointConfiguration(set=target, params=_canonicalize(target, params),
                              energy=energy, iterations=iterations,
                              converged=converged)


def gradient_relative_error(target: TargetSet, params, h: float = 1e-6) -> float:
    """Relative gap between the analytic gradient and central finite differences."""
    params = np.asarray(params, dtype=float)
    grad = _gradient(target, params)
    fd = np.empty_like(grad)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += h
        hi = _energy(target, bumped)
        bumped[i] -= 2 * h
        lo = _energy(target, bumped)
        fd[i] = (hi - lo) / (2 * h)
    scale = float(np.linalg.norm(grad))
    return float(np.linalg.norm(fd - grad)) / max(scale, 1e-12)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    energy: float
    limit: float
    gap: float


def convergence_table(target: TargetSet, ns, seed: int = 0,
                      budget: int = 4000, restarts: int = 8) -> list[ConvergenceRow]:
    """Minimized energies against the analytic limit for increasing N."""
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])) or any(n < 2 for n in ns):
        raise ValueError("ns must be strictly increasing, each >= 2")
    limit = analytic_energy(target)
    rows = []
    for n in ns:
        config = minimize(target, n, seed=seed, budget=budget, restarts=restarts)
        rows.append(ConvergenceRow(n=n, energy=config.energy, limit=limit,
                                   gap=limit - config.energy))
    return rows
