"""Discrete chordal-energy minimization (Fekete-style point configurations).

Free points live in coordinates chosen per target set so the chordal kernel
is smooth everywhere and boundary handling disappears: on the sphere the N
unit vectors u of R^3, held as 3N numbers (the x, y and z rows), where the
chordal distance is |u - v|/2; tan angles theta on the real projective line,
where it is |sin(theta - phi)|; and on an interval [-r, r], the arc
theta = atan(r)*sin(t) of that line, angles t mapped onto the real-line
kernels.  An interval's gradient and Hessian run the line kernels on its
pair sines divided by atan(r), then the chain rule through sin t: each term
is (atan(r) cos t_i) / sin(theta_i - theta_j) up to a cosine, finite at
every normal radius, where csc(theta_i - theta_j) overflows from r = 1e-154
or so.  The sphere energy normalises its points itself, so its gradient,
the Euclidean pair gradient projected onto the tangent planes, has no pole
singularity and is exact at any nonzero vectors.  Sphere results are
reported as azimuths and polar angles.

The optimizer is one descent loop (``descend``), restarted from exact
samples of the equilibrium measure.  Far from a minimum each step is
gradient descent with a Barzilai-Borwein (BB) trial step and Armijo
backtracking.  Below a gradient norm of ``_NEWTON_SWITCH`` the loop tries a
Newton step on the analytic dense Hessian (``_hessian``) instead, and keeps
it if the energy rises by at most the stall rule's slack, 4e-16 (1 + |E|),
and the gradient norm at least halves; a refused Newton step falls back to
the BB step, and Newton is tried again once the gradient norm has fallen
tenfold (Riemannian Newton: Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008).  Rotations leave the real-line and
sphere energies unchanged, so their Hessians are singular along them: a
rank-one 11^T term on the line and the outer products of the three rotation
generators on the sphere lift that null space before the solve.  A sphere
trial builds its tangent basis once, in closed form: e1 = e_k x u / |e_k x u|
for the axis e_k of u's smallest component is a signed permutation of u's
rows (a 3 x 3 table), and e2 = u x e1.  Its 2N x 2N Hessian is one
(2, 2, N, N) array of stacked products, one (e_a, e_b) block each, turned
into the matrix by one transpose and reshape.  Above
``_NEWTON_MAX_DIM`` Newton coordinates the BB steps run alone, and
``minimize`` refuses more than ``MAX_POINTS`` points before any array is
allocated.  Each trial point is retracted onto its chart before its energy
is taken: rows normalised on the sphere, unchanged on the line and intervals
(Wen-Yin, Math. Program. 2013).

The two energy kernels (sphere, real line) evaluate the chordal kernel on the
n(n-1)/2 point pairs only (their indices cached per n), and return the pair
data their gradient and Hessian kernels reuse at the same point.  An accepted
step keeps the energy its test computed and the pair data it left, so an
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
    evaluations: int = 0

    @property
    def n(self) -> int:
        return len(self.params) // 2 if isinstance(self.set, Sphere) else len(self.params)

    def to_json_dict(self) -> dict:
        return {"set": set_name(self.set), "n": self.n,
                "params": [float(v) for v in self.params],
                "energy": self.energy, "iterations": self.iterations,
                "converged": self.converged, "evaluations": self.evaluations}


# Newton trials start below this gradient norm; BB steps alone do the rest
_NEWTON_SWITCH = 1e-2
# Newton trials only up to this many Newton coordinates (N on the line and
# intervals, 2N on the sphere): each builds a dense (dim, dim) Hessian and
# solves it in O(dim^3)
_NEWTON_MAX_DIM = 256
# point count beyond which descent is refused: the pair arrays grow as N^2
MAX_POINTS = 4 * _NEWTON_MAX_DIM


def _pair_scale(n: int) -> float:
    return 1.0 / (n * (n - 1))


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j), i < j, of the n(n-1)/2 point pairs in row-major order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@functools.lru_cache(maxsize=64)
def _flat_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices i*n + j and j*n + i of the pairs and their mirrors."""
    i, j = _pairs(n)
    upper, lower = i * n + j, j * n + i
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def _evaluate(target: TargetSet, params: np.ndarray) -> tuple[float, tuple]:
    """Discrete energy from the n(n-1)/2 pair distances (+inf at coincident
    points), and the pair data its gradient reuses at the same params."""
    if isinstance(target, RealLine):
        n = len(params)
        i, j = _pairs(n)
        d = params[i] - params[j]
        s = np.sin(d)
        return float(-2.0 * np.add.reduce(np.log(np.abs(s))) * _pair_scale(n)) + 0.0, (d, s)
    if isinstance(target, Sphere):
        x = params.reshape(3, -1)
        norms = np.sqrt(np.add.reduce(x * x))
        u = x / norms
        n = len(norms)
        i, j = _pairs(n)
        diff = u.take(i, axis=1) - u.take(j, axis=1)
        d2 = np.add.reduce(diff * diff)
        # -2 log(|u_i - u_j| / 2) = -log(|u_i - u_j|^2 / 4)
        # d2 / 4 rounds above 1 for pairs that are antipodal up to rounding
        return (float(-np.add.reduce(np.log(np.minimum(d2 / 4.0, 1.0))) * _pair_scale(n)) + 0.0,
                (u, norms))
    if isinstance(target, Interval):
        return _evaluate(RealLine(), math.atan(target.r) * np.sin(params))
    raise TypeError(f"not a target set: {target!r}")


def _energy(target: TargetSet, params: np.ndarray) -> float:
    """Discrete energy of the descent parameters."""
    return _evaluate(target, params)[0]


def _scatter(n: int, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The n x n array holding ``upper`` at the pairs (i, j), i < j, of
    ``_pairs``, ``lower`` at their mirrors (j, i), and zeros on the diagonal."""
    at_upper, at_lower = _flat_pairs(n)
    m = np.zeros(n * n)
    m[at_upper] = upper
    m[at_lower] = lower
    return m.reshape(n, n)


def _gradient(target: TargetSet, params: np.ndarray, pairs: tuple | None = None) -> np.ndarray:
    """Gradient of ``_energy`` with respect to ``params``, from the pair data
    ``_evaluate`` returned at ``params`` (computed here if not given)."""
    if pairs is None:
        pairs = _evaluate(target, params)[1]
    if isinstance(target, RealLine):
        n = len(params)
        d, s = pairs
        c = np.cos(d) / s
        # cos is even and sin odd, so cot(p_j - p_i) is exactly -cot(p_i - p_j)
        return -2.0 * _pair_scale(n) * np.add.reduce(_scatter(n, c, -c), axis=1)
    if isinstance(target, Sphere):
        u, norms = pairs
        n = len(norms)
        # diff[:, i, j] = u_i - u_j; the n x n form sums faster than a scatter of the pairs
        diff = u[:, :, None] - u[:, None, :]
        d2 = np.add.reduce(diff * diff)
        d2.flat[::n + 1] = 1.0
        # dE/du_i = -2s * sum_j (u_i - u_j)/|u_i - u_j|^2
        f = -2.0 * _pair_scale(n) * np.add.reduce(diff / d2, axis=2)
        # the energy sees only x/|x|: project onto the tangent plane at u, scale by 1/|x|.
        # The first projection leaves a radial rounding of about eps |f|, large
        # against a small tangent part; the second leaves about eps |g|.
        f = f - np.add.reduce(u * f) * u
        f = f - np.add.reduce(u * f) * u
        return (f / norms).ravel()
    if isinstance(target, Interval):
        # the line kernel on sines divided by alpha = atan(r) differentiates in sin t:
        # dE/dt_i = -2s cos t_i sum_j cos(theta_i - theta_j) / (sin(theta_i - theta_j) / alpha)
        d, s = pairs
        return _gradient(RealLine(), params, (d, s / math.atan(target.r))) * np.cos(params)
    raise TypeError(f"not a target set: {target!r}")


def _hessian(target: TargetSet, params: np.ndarray, pairs: tuple | None = None,
             basis: np.ndarray | None = None) -> np.ndarray:
    """Dense Hessian of ``_energy`` in the Newton coordinates: ``params`` on the
    line and intervals, on the sphere the 2N coordinates (all e1, then all e2)
    of each point's ``_tangent_basis``; from the pair data ``_evaluate``
    returned at ``params`` (computed here if not given), and on the sphere
    the tangent basis at its unit vectors (likewise)."""
    if pairs is None:
        pairs = _evaluate(target, params)[1]
    if isinstance(target, RealLine):
        n = len(params)
        _, s = pairs
        # d^2/dp_i dp_j of -2 log|sin(p_i - p_j)| is -2 csc^2(p_i - p_j), and
        # every row sums to zero: rotations are a null direction
        off = -2.0 * _pair_scale(n) / (s * s)
        h = _scatter(n, off, off)
        h.flat[::n + 1] = -np.add.reduce(h, axis=1)
        return h
    if isinstance(target, Sphere):
        u, norms = pairs
        n = len(norms)
        diff = u[:, :, None] - u[:, None, :]
        d2 = np.add.reduce(diff * diff)
        d2.flat[::n + 1] = np.inf
        w = 1.0 / d2
        w2 = w * w
        if basis is None:
            basis = _tangent_basis(u)
        et = basis.transpose(0, 2, 1)
        dots = et @ u  # dots[a][i, j] = e_a(u_i) . u_j
        # h[a, b] is the (e_a, e_b) block.  In units of 2/(n(n-1)): the
        # Euclidean Hessian of the pair sum has, for i != j, the 3 x 3 blocks
        # I/d2 - 2 (u_i - u_j)(u_i - u_j)^T/d2^2, and minus their row sums on
        # the diagonal; e_a(u_i) . (u_i - u_j) is -e_a(u_i) . u_j.  The
        # sphere's curvature adds -u_i . g_i = (n - 1)/2 on the diagonal, g the
        # Euclidean gradient, as u_i . (u_i - u_j) = d2/2.
        h = (et[:, None] @ basis[None, :]) * w
        h += 2.0 * dots[:, None] * dots.transpose(0, 2, 1)[None, :] * w2
        diag = 2.0 * np.add.reduce(dots[:, None] * dots[None, :] * w2, axis=3)
        diag[[0, 1], [0, 1]] -= np.add.reduce(w, axis=1) - 0.5 * (n - 1)
        h.reshape(4, n * n)[:, ::n + 1] += diag.reshape(4, n)
        # the energy sees x/|x|: a tangent step dx moves u by dx/|x|
        scale = 1.0 / norms
        h *= 2.0 * _pair_scale(n)
        h *= scale[:, None]
        h *= scale
        return h.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    if isinstance(target, Interval):
        # as in _gradient, then the chain rule through sin t: J H J with J = cos t,
        # plus (sin t)'' = -sin t times the gradient in sin t on the diagonal
        d, s = pairs
        scaled = (d, s / math.atan(target.r))
        jac = np.cos(params)
        h = _hessian(RealLine(), params, scaled) * jac[:, None] * jac[None, :]
        h.flat[::len(params) + 1] -= _gradient(RealLine(), params, scaled) * np.sin(params)
        return h
    raise TypeError(f"not a target set: {target!r}")


# e_k x u = (sum_m eps_rkm u_m)_r for the axis e_k: row r of it is
# _CROSS_SIGN[r, k] * u[_CROSS_ROW[r, k]], a signed permutation of u's rows
_CROSS_ROW = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
_CROSS_SIGN = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
# row r of a x b is a[_NEXT[r]] b[_PREV[r]] - a[_PREV[r]] b[_NEXT[r]]
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _tangent_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal tangent vectors e1 and e2 = u x e1 at each unit column of
    u, as one (2, 3, N) array: e1 is e_k x u normalised, e_k the axis of u's
    smallest component."""
    n = u.shape[1]
    k = np.argmin(np.abs(u), axis=0)
    basis = np.empty((2, 3, n))
    e1 = basis[0]
    np.multiply(_CROSS_SIGN[:, k], u[_CROSS_ROW[:, k], np.arange(n)], out=e1)
    e1 /= np.sqrt(np.add.reduce(e1 * e1))
    np.subtract(u[_NEXT] * e1[_PREV], u[_PREV] * e1[_NEXT], out=basis[1])
    return basis


def _newton_trial(target: TargetSet, params: np.ndarray, pairs: tuple,
                  grad: np.ndarray) -> np.ndarray:
    """The retracted Newton point from ``params``, given the pair data and
    gradient there.

    Rotations leave the real-line and sphere energies unchanged, so their
    Hessians are singular along them.  A rank-one 11^T term on the line, and
    the outer products of the three rotation generators on the sphere, lift
    that null space, scaled so that its nonzero eigenvalues sit near the mean
    diagonal; the gradient is orthogonal to it, so the step does not turn
    the configuration.  On an interval the rotation is no symmetry, and the
    Hessian is taken as it is.
    """
    if isinstance(target, Sphere):
        basis = _tangent_basis(pairs[0])
        h = _hessian(target, params, pairs, basis)
        rhs = np.add.reduce(basis * grad.reshape(3, -1), axis=1).ravel()
        # e_k x u_i in tangent coordinates: (e_k . e2_i, -e_k . e1_i)
        null = np.concatenate([basis[1], -basis[0]], axis=1)
        # its squares summed column by column: the order fixes the rounding
        h += (np.trace(h) * 3 / (len(h) * np.add.reduce((null * null).ravel("F")))) * (null.T @ null)
    else:
        h = _hessian(target, params, pairs)
        rhs = grad
        if isinstance(target, RealLine):  # 11^T, scaled as on the sphere: trace(h) / (n |1|^2)
            h += np.trace(h) / (len(h) * len(h))
    try:
        step = np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError:  # no step: the gradient test refuses it
        return params
    if isinstance(target, Sphere):
        n = len(step) // 2
        step = (basis[0] * step[:n] + basis[1] * step[n:]).ravel()
    return _retract(target, params - step)


def _retract(target: TargetSet, params: np.ndarray) -> np.ndarray:
    """Map a descent point back onto its chart: unit rows on the sphere."""
    if isinstance(target, Sphere):
        x = params.reshape(3, -1)
        return (x / np.sqrt(np.add.reduce(x * x))).ravel()
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
            trace: list | None = None) -> tuple[np.ndarray, float, int, bool, int]:
    """Gradient descent with Newton steps near a minimum: ``(params, energy,
    iterations, converged, evaluations)``, the last counting every energy,
    gradient and Hessian evaluation.

    Each iteration takes one step.  Below a gradient norm of
    ``_NEWTON_SWITCH`` (dimension at most ``_NEWTON_MAX_DIM``) it tries a
    Newton step, kept if the energy rises at most by the stall rule's slack
    and the gradient norm at least halves; otherwise, and after a refused
    Newton step until the gradient norm falls tenfold, the step is
    Barzilai-Borwein with Armijo backtracking, which lowers the energy.
    Each trial point is retracted onto the chart before its energy is taken,
    and the gradient at the accepted trial reuses that energy's pair data.
    """
    params = _retract(target, np.asarray(params, dtype=float).copy())
    energy, pairs = _evaluate(target, params)
    grad = _gradient(target, params, pairs)
    evaluations = 2
    if not (math.isfinite(energy) and np.isfinite(grad).all()):  # NaN fails Armijo until "stationary"
        raise FloatingPointError(f"descent start is not finite: energy {energy!r}")
    if trace is not None:
        trace.append(energy)
    dim = len(params) // 3 * 2 if isinstance(target, Sphere) else len(params)
    newton_below = _NEWTON_SWITCH if dim <= _NEWTON_MAX_DIM else 0.0
    step = 1.0
    prev_params = prev_grad = None
    iterations = 0
    stalls = 0
    for _ in range(budget):
        gnorm2 = float(np.dot(grad, grad))
        gnorm = math.sqrt(gnorm2)
        if gnorm <= grad_tol:
            return params, energy, iterations, True, evaluations
        # double precision can no longer resolve a change this small
        slack = 4e-16 * (1.0 + abs(energy))
        new_grad = None
        if gnorm < newton_below:
            trial = _newton_trial(target, params, pairs, grad)
            trial_energy, trial_pairs = _evaluate(target, trial)
            if trial_energy <= energy + slack:
                new_grad = _gradient(target, trial, trial_pairs)
            evaluations += 2 if new_grad is None else 3  # with the Hessian
            if new_grad is not None and float(np.dot(new_grad, new_grad)) <= 0.25 * gnorm2:
                pairs = trial_pairs
            else:  # refused: BB steps until the gradient norm falls tenfold
                new_grad = None
                newton_below = 0.1 * gnorm
        if new_grad is None:
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
                evaluations += 1
                if trial_energy <= energy - 1e-4 * step * gnorm2:
                    break
                step *= 0.5
                if step < 1e-18:
                    return params, energy, iterations, True, evaluations  # numerically stationary
            # the Armijo test already evaluated the energy at the accepted point
            new_grad = _gradient(target, trial, pairs)
            evaluations += 1
        prev_params, prev_grad = params, grad
        params, grad = trial, new_grad
        iterations += 1
        if trace is not None:
            trace.append(trial_energy)
        stalls = stalls + 1 if energy - trial_energy <= slack else 0
        energy = trial_energy
        if stalls >= 8:
            return params, energy, iterations, True, evaluations
    return params, energy, iterations, False, evaluations


def _check_arguments(n: int, budget: int, restarts: int) -> None:
    """Refuse a descent's arguments before any numpy work."""
    if n < 2:
        raise ValueError("need at least two points")
    if n > MAX_POINTS:
        raise ArithmeticError(f"{n} points exceed the {MAX_POINTS}-point bound "
                              f"(the pair arrays grow as N^2)")
    if budget < 1:
        raise ValueError("budget must be positive")
    if restarts < 1:
        raise ValueError("restarts must be positive")


def minimize(target: TargetSet, n: int, seed: int = 0, budget: int = 4000,
             restarts: int = 8, grad_tol: float = 1e-10) -> PointConfiguration:
    """Best locally minimal configuration over seeded restarts.

    Deterministic in (target, n, seed): restart k draws its start from an
    independent stream keyed by (seed, k), and the best energy wins with the
    restart index as tie-break.  ``evaluations`` sums over every restart.
    """
    _check_arguments(n, budget, restarts)
    require_normal_radius(target)
    best = None
    evaluations = 0
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        start = _initial_params(target, n, rng)
        params, energy, iterations, converged, count = descend(target, start, budget, grad_tol)
        evaluations += count
        if best is None or energy < best[0]:
            best = (energy, params, iterations, converged)
    energy, params, iterations, converged = best
    return PointConfiguration(set=target, params=_canonicalize(target, params),
                              energy=energy, iterations=iterations,
                              converged=converged, evaluations=evaluations)


# the step of the central differences in gradient_relative_error
_FD_STEP = 1e-6


def gradient_relative_error(target: TargetSet, params) -> float:
    """Relative gap between the analytic gradient and central finite differences."""
    params = np.asarray(params, dtype=float)
    grad = _gradient(target, params)
    fd = np.empty_like(grad)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += _FD_STEP
        hi = _energy(target, bumped)
        bumped[i] -= 2 * _FD_STEP
        lo = _energy(target, bumped)
        fd[i] = (hi - lo) / (2 * _FD_STEP)
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
    for n in ns:
        _check_arguments(n, budget, restarts)
    limit = analytic_energy(target)
    rows = []
    for n in ns:
        config = minimize(target, n, seed=seed, budget=budget, restarts=restarts)
        rows.append(ConvergenceRow(n=n, energy=config.energy, limit=limit,
                                   gap=limit - config.energy))
    return rows
