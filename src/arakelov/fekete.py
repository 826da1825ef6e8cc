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
data their gradient and Hessian reuse at the same point: the pair angle
differences and their sines on the line, and on the sphere the unit vectors,
the pair differences and their squared distances, so the sphere gradient
and Hessian divide and scatter pairs instead of forming N x N differences.
The gradients sum their scattered rows a block at a time (``_row_sums``),
so no N x N array is held at large N.  The interval gradient returns the
line gradient in sin t for its Hessian.
An accepted step keeps the energy its test computed and the pair data it
left, so an iteration evaluates the gradient once and the energy only at
trial points.

``minimize`` hands ``descend`` all its restarts as one (R, ...) stack, and
every kernel takes such a stack, a 1-D point being the batch of one.  Each
round of the batch evaluates one trial point of every row it moves in one
energy call, and the gradient at the trials that pass their test in one
more.  Rows due a Newton trial wait until they are at least half of the
batch, and then share one stacked Hessian solve.  Each row keeps its own
step, BB history, Newton threshold and counts, and a row that converges,
stalls, ends numerically stationary or spends its budget leaves the
batch.  The kernels sum along C-ordered rows (a batch of another layout
is copied first) and the per-row dot products are ddot calls as ``np.dot``
makes them, so every restart takes the steps of its own one-start descent,
bit for bit.  The restarts go in chunks of at most ``_CHUNK_PAIRS`` point
pairs, those of one descent at ``MAX_POINTS``, so memory does not grow with
the number of restarts.
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
# restarts descend in chunks of at most this many pair elements, those of
# one descent at MAX_POINTS
_CHUNK_PAIRS = MAX_POINTS * (MAX_POINTS - 1) // 2


def _pair_scale(n: int) -> float:
    return 1.0 / (n * (n - 1))


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j), i < j, of the n(n-1)/2 point pairs in row-major order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@functools.lru_cache(maxsize=64)
def _pair_sources(n: int) -> np.ndarray:
    """For each entry of an n x n array, its source in the concatenation of
    upper pair values, lower ones and a zero: entry (i, j) reads pair (i, j)
    for i < j, its mirror for i > j, and the zero on the diagonal."""
    i, j = _pairs(n)
    m = len(i)
    at = np.full((n, n), 2 * m)
    at[i, j] = np.arange(m)
    at[j, i] = np.arange(m, 2 * m)
    at.flags.writeable = False
    return at


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of the trailing (n, n) axes of a C-ordered ``a``."""
    n = a.shape[-1]
    return a.reshape(a.shape[:-2] + (n * n,))[..., ::n + 1]


def _evaluate(target: TargetSet, params: np.ndarray) -> tuple:
    """Discrete energy from the n(n-1)/2 pair distances (+inf at coincident
    points), and the pair data its gradient reuses at the same params.

    Like every kernel here it takes one point (1-D ``params``) or a batch of
    them, one per row, and then returns one energy per row.  Its sums run
    along C-ordered rows, however the batch is laid out, so each row rounds
    as its own 1-D call does."""
    params = np.ascontiguousarray(params)
    if isinstance(target, RealLine):
        n = params.shape[-1]
        i, j = _pairs(n)
        d = params.take(i, axis=-1)
        d -= params.take(j, axis=-1)
        s = np.sin(d)
        logs = np.abs(s)
        np.log(logs, out=logs)
        return -2.0 * np.add.reduce(logs, axis=-1) * _pair_scale(n) + 0.0, (d, s)
    if isinstance(target, Sphere):
        x = params.reshape(params.shape[:-1] + (3, -1))
        norms = np.sqrt(np.add.reduce(x * x, axis=-2))
        u = x / norms[..., None, :]
        n = norms.shape[-1]
        i, j = _pairs(n)
        diff = u.take(i, axis=-1)
        diff -= u.take(j, axis=-1)
        d2 = np.add.reduce(diff * diff, axis=-2)
        # -2 log(|u_i - u_j| / 2) = -log(|u_i - u_j|^2 / 4)
        # d2 / 4 rounds above 1 for pairs that are antipodal up to rounding
        logs = d2 / 4.0
        np.minimum(logs, 1.0, out=logs)
        np.log(logs, out=logs)
        return -np.add.reduce(logs, axis=-1) * _pair_scale(n) + 0.0, (u, norms, diff, d2)
    if isinstance(target, Interval):
        return _evaluate(RealLine(), math.atan(target.r) * np.sin(params))
    raise TypeError(f"not a target set: {target!r}")


def _energy(target: TargetSet, params: np.ndarray) -> float | np.ndarray:
    """Discrete energy of the descent parameters."""
    return _evaluate(target, params)[0]


def _pair_values(like: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A buffer for ``_scatter`` shaped after the pair array ``like``, with its
    upper and lower parts (to be filled) and its zero set."""
    m = like.shape[-1]
    values = np.empty(like.shape[:-1] + (2 * m + 1,))
    values[..., 2 * m] = 0.0
    return values, values[..., :m], values[..., m:2 * m]


def _scatter(n: int, values: np.ndarray) -> np.ndarray:
    """The n x n arrays holding the upper values of a ``_pair_values`` buffer
    at the pairs (i, j), i < j, of ``_pairs``, its lower ones at their mirrors
    (j, i), and zeros on the diagonal."""
    return values.take(_pair_sources(n), axis=-1)


# _row_sums gathers at most this many elements of its n x n arrays at a time
_SUM_BLOCK = 1 << 18


def _row_sums(n: int, values: np.ndarray) -> np.ndarray:
    """Row sums of the n x n arrays ``_scatter(n, values)`` builds, gathered
    a block of rows at a time, so that no whole n x n array is held at large
    n; each row sums as it does in the whole array."""
    sources = _pair_sources(n)
    rows = max(1, _SUM_BLOCK // (values.size // values.shape[-1] * n))
    sums = [np.add.reduce(values.take(sources[first:first + rows], axis=-1), axis=-1)
            for first in range(0, n, rows)]
    return sums[0] if len(sums) == 1 else np.concatenate(sums, axis=-1)


def _gradient_parts(target: TargetSet, params: np.ndarray,
                    pairs: tuple | None = None) -> tuple[np.ndarray, tuple]:
    """Gradient of ``_energy`` with respect to ``params``, from the pair data
    ``_evaluate`` returned at ``params`` (computed here if not given), and the
    arrays ``_hessian`` reuses at the same point: the squared distances (1 on
    the diagonal) on the sphere, the line gradient in sin t on an interval."""
    params = np.ascontiguousarray(params)
    if pairs is None:
        pairs = _evaluate(target, params)[1]
    if isinstance(target, RealLine):
        n = params.shape[-1]
        d, s = pairs
        values, c, mirror = _pair_values(d)
        np.cos(d, out=c)
        c /= s
        # cos is even and sin odd, so cot(p_j - p_i) is exactly -cot(p_i - p_j)
        np.negative(c, out=mirror)
        return -2.0 * _pair_scale(n) * _row_sums(n, values), ()
    if isinstance(target, Sphere):
        u, norms, diff, d2 = pairs
        n = norms.shape[-1]
        # dE/du_i = -2s * sum_j (u_i - u_j)/|u_i - u_j|^2, summed along the rows of
        # the n x n form; u_j - u_i is exactly -(u_i - u_j), with the same square
        values, q, mirror = _pair_values(diff)
        np.divide(diff, d2[..., None, :], out=q)
        np.negative(q, out=mirror)
        f = -2.0 * _pair_scale(n) * _row_sums(n, values)
        # the energy sees only x/|x|: project onto the tangent plane at u, scale by 1/|x|.
        # The first projection leaves a radial rounding of about eps |f|, large
        # against a small tangent part; the second leaves about eps |g|.
        f = f - np.add.reduce(u * f, axis=-2)[..., None, :] * u
        f = f - np.add.reduce(u * f, axis=-2)[..., None, :] * u
        return (f / norms[..., None, :]).reshape(params.shape), ()
    if isinstance(target, Interval):
        # the line kernel on sines divided by alpha = atan(r) differentiates in sin t:
        # dE/dt_i = -2s cos t_i sum_j cos(theta_i - theta_j) / (sin(theta_i - theta_j) / alpha)
        d, s = pairs
        line = _gradient(RealLine(), params, (d, s / math.atan(target.r)))
        return line * np.cos(params), (line,)
    raise TypeError(f"not a target set: {target!r}")


def _gradient(target: TargetSet, params: np.ndarray, pairs: tuple | None = None) -> np.ndarray:
    """Gradient of ``_energy`` with respect to ``params`` (``_gradient_parts``
    without the Hessian's arrays)."""
    return _gradient_parts(target, params, pairs)[0]


def _hessian(target: TargetSet, params: np.ndarray, pairs: tuple | None = None,
             basis: np.ndarray | None = None, parts: tuple | None = None) -> np.ndarray:
    """Dense Hessian of ``_energy`` in the Newton coordinates: ``params`` on the
    line and intervals, on the sphere the 2N coordinates (all e1, then all e2)
    of each point's ``_tangent_basis``.  It takes the pair data ``_evaluate``
    returned at ``params``, on an interval the arrays ``_gradient_parts``
    returned there, and on the sphere the tangent basis at the unit vectors;
    each is computed here if not given."""
    params = np.ascontiguousarray(params)
    if pairs is None:
        pairs = _evaluate(target, params)[1]
    if isinstance(target, RealLine):
        n = params.shape[-1]
        _, s = pairs
        # d^2/dp_i dp_j of -2 log|sin(p_i - p_j)| is -2 csc^2(p_i - p_j), and
        # every row sums to zero: rotations are a null direction
        values, off, mirror = _pair_values(s)
        np.multiply(s, s, out=off)
        np.divide(-2.0 * _pair_scale(n), off, out=off)
        mirror[...] = off
        h = _scatter(n, values)
        _diagonal(h)[...] = -np.add.reduce(h, axis=-1)
        return h
    if isinstance(target, Sphere):
        u, norms, _, d2 = pairs
        n = norms.shape[-1]
        values, w, mirror = _pair_values(d2)
        np.divide(1.0, d2, out=w)
        mirror[...] = w
        w = _scatter(n, values)
        rowsum = np.add.reduce(w, axis=-1)
        w = w[..., None, None, :, :]
        w2 = w * w
        if basis is None:
            basis = _tangent_basis(u)
        et = np.swapaxes(basis, -1, -2)
        dots = et @ u[..., None, :, :]  # dots[..., a, i, j] = e_a(u_i) . u_j
        # h[..., a, b, :, :] is the (e_a, e_b) block.  In units of 2/(n(n-1)): the
        # Euclidean Hessian of the pair sum has, for i != j, the 3 x 3 blocks
        # I/d2 - 2 (u_i - u_j)(u_i - u_j)^T/d2^2, and minus their row sums on
        # the diagonal; e_a(u_i) . (u_i - u_j) is -e_a(u_i) . u_j.  The
        # sphere's curvature adds -u_i . g_i = (n - 1)/2 on the diagonal, g the
        # Euclidean gradient, as u_i . (u_i - u_j) = d2/2.
        h = (et[..., :, None, :, :] @ basis[..., None, :, :, :]) * w
        h += 2.0 * dots[..., :, None, :, :] * np.swapaxes(dots, -1, -2)[..., None, :, :, :] * w2
        diag = 2.0 * np.add.reduce(dots[..., :, None, :, :] * dots[..., None, :, :, :] * w2,
                                   axis=-1)
        diag[..., [0, 1], [0, 1], :] -= (rowsum - 0.5 * (n - 1))[..., None, :]
        _diagonal(h)[...] += diag
        # the energy sees x/|x|: a tangent step dx moves u by dx/|x|
        scale = 1.0 / norms
        h *= 2.0 * _pair_scale(n)
        h *= scale[..., None, None, :, None]
        h *= scale[..., None, None, None, :]
        return np.swapaxes(h, -3, -2).reshape(h.shape[:-4] + (2 * n, 2 * n))
    if isinstance(target, Interval):
        # as in _gradient, then the chain rule through sin t: J H J with J = cos t,
        # plus (sin t)'' = -sin t times the gradient in sin t on the diagonal
        if parts is None:
            parts = _gradient_parts(target, params, pairs)[1]
        d, s = pairs
        jac = np.cos(params)
        h = (_hessian(RealLine(), params, (d, s / math.atan(target.r)))
             * jac[..., :, None] * jac[..., None, :])
        _diagonal(h)[...] -= parts[0] * np.sin(params)
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
    u, (3, N) or a (R, 3, N) batch, as one (2, 3, N) array per batch row: e1
    is e_k x u normalised, e_k the axis of u's smallest component."""
    n = u.shape[-1]
    flat = u.reshape(-1, 3, n)
    k = np.argmin(np.abs(flat), axis=1)
    basis = np.empty((len(flat), 2, 3, n))
    e1 = basis[:, 0]
    # (3, R, N) gathers, written through a transposed view of e1
    rows = _CROSS_ROW[:, k]
    np.multiply(_CROSS_SIGN[:, k], flat[np.arange(len(flat))[:, None], rows, np.arange(n)],
                out=e1.transpose(1, 0, 2))
    e1 /= np.sqrt(np.add.reduce(e1 * e1, axis=1))[:, None]
    np.subtract(flat[:, _NEXT] * e1[:, _PREV], flat[:, _PREV] * e1[:, _NEXT], out=basis[:, 1])
    return basis.reshape(u.shape[:-2] + (2, 3, n))


def _newton_trial(target: TargetSet, params: np.ndarray, pairs: tuple,
                  grad: np.ndarray, parts: tuple) -> np.ndarray:
    """The retracted Newton points from a (R, ...) batch of ``params``, given
    the pair data, gradients and gradient arrays there.

    Rotations leave the real-line and sphere energies unchanged, so their
    Hessians are singular along them.  A rank-one 11^T term on the line, and
    the outer products of the three rotation generators on the sphere, lift
    that null space, scaled so that its nonzero eigenvalues sit near the mean
    diagonal; the gradient is orthogonal to it, so the step does not turn
    the configuration.  On an interval the rotation is no symmetry, and the
    Hessian is taken as it is.  The rows share one stacked solve; a row
    whose Hessian is singular keeps its point.
    """
    rows = len(params)
    if isinstance(target, Sphere):
        basis = _tangent_basis(pairs[0])
        h = _hessian(target, params, pairs, basis, parts)
        rhs = np.add.reduce(basis * grad.reshape(rows, 1, 3, -1), axis=-2).reshape(rows, -1)
        # e_k x u_i in tangent coordinates: (e_k . e2_i, -e_k . e1_i)
        null = np.concatenate([basis[:, 1], -basis[:, 0]], axis=-1)
        # its squares summed column by column: the order fixes the rounding
        squares = np.add.reduce((null * null).swapaxes(1, 2).reshape(rows, -1), axis=-1)
        lift = np.add.reduce(_diagonal(h), axis=-1) * 3 / (h.shape[-1] * squares)
        h += lift[:, None, None] * (null.swapaxes(1, 2) @ null)
    else:
        h = _hessian(target, params, pairs, parts=parts)
        rhs = grad
        if isinstance(target, RealLine):  # 11^T, scaled as on the sphere: trace(h) / (n |1|^2)
            h += (np.add.reduce(_diagonal(h), axis=-1) / (h.shape[-1] * h.shape[-1]))[:, None, None]
    singular = []
    try:
        step = np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # no step for a singular row: the gradient test refuses it
        step = np.zeros_like(rhs)
        for k in range(rows):
            try:
                step[k] = np.linalg.solve(h[k], rhs[k])
            except np.linalg.LinAlgError:
                singular.append(k)
    if isinstance(target, Sphere):
        n = step.shape[-1] // 2
        step = (basis[:, 0] * step[:, None, :n] + basis[:, 1] * step[:, None, n:]).reshape(rows, -1)
    trial = _retract(target, params - step)
    if singular:
        trial[singular] = params[singular]
    return trial


def _retract(target: TargetSet, params: np.ndarray) -> np.ndarray:
    """Map descent points back onto their chart: unit rows on the sphere."""
    if isinstance(target, Sphere):
        params = np.ascontiguousarray(params)
        x = params.reshape(params.shape[:-1] + (3, -1))
        return (x / np.sqrt(np.add.reduce(x * x, axis=-2))[..., None, :]).reshape(params.shape)
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


def _take(data, rows: np.ndarray | None):
    """The batch rows ``rows`` (an index array, None for all of them) of an
    array or of a tuple of arrays."""
    if rows is None:
        return data
    if isinstance(data, tuple):
        return tuple([a.take(rows, axis=0) for a in data])
    return data.take(rows, axis=0)


def _newton_data(rows: list) -> tuple[tuple, tuple]:
    """The pair data and gradient arrays at the points of ``rows``, stacked.
    Each row holds them as ``data``: the arrays of the batch that evaluated
    its point, and its index in them."""
    return tuple(tuple(np.stack([row.data[f][a][row.data[2]] for row in rows])
                       for a in range(len(rows[0].data[f]))) for f in (0, 1))


def _row_dots(a: np.ndarray, b: np.ndarray) -> list[float]:
    """a_k . b_k for each row k of two (R, P) batches, with the bits of
    ``np.dot`` on the 1-D rows: a stack of (1, P) @ (P, 1) products calls
    the same BLAS ddot row by row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0].tolist()


# what a row does next: form a Newton trial, take a fresh BB step, or
# evaluate its backtracked BB step
_NEWTON, _BB, _BACK = range(3)


class _Row:
    """The scalars of one descending row, Python floats as a one-start
    descent keeps them; ``sy`` and ``ss`` are s.y and s.s of its last step,
    and ``data`` locates the pair data at its point while it is due a
    Newton trial."""

    __slots__ = ("start", "energy", "gnorm2", "slack", "step", "newton_below", "stalls",
                 "iterations", "evaluations", "todo", "trace", "sy", "ss", "data")

    def __init__(self, start, energy, gnorm2, newton_below, trace):
        self.start, self.energy, self.gnorm2, self.trace = start, energy, gnorm2, trace
        self.newton_below = newton_below
        self.step, self.stalls, self.iterations, self.evaluations = 1.0, 0, 0, 2
        self.data = None

    def begin(self, budget: int, grad_tol: float) -> bool | None:
        """Start an iteration: ``converged`` if the row ends here, else None."""
        if self.stalls >= 8:
            return True
        if self.iterations >= budget:
            return False
        gnorm = math.sqrt(self.gnorm2)
        if gnorm <= grad_tol:
            return True
        # double precision can no longer resolve a change this small
        self.slack = 4e-16 * (1.0 + abs(self.energy))
        self.todo = _NEWTON if gnorm < self.newton_below else _BB
        return None

    def bb_step(self) -> float:
        """The step of the row's next trial: a fresh Barzilai-Borwein step
        (doubled after a first step or a curvature that is not positive),
        or its backtracked one."""
        if self.todo == _BB:
            step = self.ss / self.sy if self.iterations and self.sy > 0 else self.step * 2.0
            self.step = min(max(step, 1e-18), 1e6)
        return self.step

    def refuse(self) -> None:
        """A refused Newton step: BB steps until the gradient norm falls tenfold."""
        self.newton_below = 0.1 * math.sqrt(self.gnorm2)
        self.todo = _BB


def descend(target: TargetSet, params: np.ndarray, budget: int,
            grad_tol: float = 1e-10, trace: list | None = None) -> tuple:
    """Gradient descent with Newton steps near a minimum, from one start
    (1-D ``params``) or a stack of them (one per row): ``(params, energy,
    iterations, converged, evaluations)``, each per row for a stack, the last
    counting every energy, gradient and Hessian evaluation.

    Each iteration takes one step.  Below a gradient norm of
    ``_NEWTON_SWITCH`` (dimension at most ``_NEWTON_MAX_DIM``) it tries a
    Newton step, kept if the energy rises at most by the stall rule's slack
    and the gradient norm at least halves; otherwise, and after a refused
    Newton step until the gradient norm falls tenfold, the step is
    Barzilai-Borwein with Armijo backtracking, which lowers the energy.
    Each trial point is retracted onto the chart before its energy is taken,
    and the gradient at the accepted trial reuses that energy's pair data.

    A stack descends as one batch, and a start is the batch of one.  Each
    round takes the energy at one trial point of every row it moves in one
    kernel call, and the gradient at every trial that passes its test in
    another.  A round moves the rows that take BB steps (the first trial of
    an iteration or a backtracked one); rows due a Newton trial wait until
    they are at least half of the batch, and then take their trials in the
    same round, with one stacked solve.
    Each row keeps its own step, BB history, Newton threshold, stall,
    iteration and evaluation counts and budget, and leaves the batch once it
    converges, stalls, ends numerically stationary or spends the budget.
    The kernels sum along C-ordered rows and a row's dot products have the
    bits of its own ``np.dot``, so every row takes the steps of its
    one-start call, bit for bit.  ``trace`` receives the energies of a
    one-start descent, or one list of them per row of a stack.
    """
    one = np.ndim(params) == 1
    x = _retract(target, np.array(params, dtype=float, order="C", ndmin=2))
    energy, pairs = _evaluate(target, x)
    grad, parts = _gradient_parts(target, x, pairs)
    bad = ~(np.isfinite(energy) & np.isfinite(grad).all(axis=1))
    if bad.any():  # NaN fails Armijo until "stationary"
        raise FloatingPointError(f"descent start is not finite: energy {float(energy[bad][0])!r}")
    count = len(x)
    dim = x.shape[1] // 3 * 2 if isinstance(target, Sphere) else x.shape[1]
    newton = dim <= _NEWTON_MAX_DIM
    traces = [None] * count
    if trace is not None:
        traces = [trace] if one else [[] for _ in range(count)]
        if not one:
            trace.extend(traces)
    live = [_Row(k, e, g2, _NEWTON_SWITCH if newton else 0.0, traces[k])
            for k, (e, g2) in enumerate(zip(energy.tolist(), _row_dots(grad, grad)))]
    result = (np.empty_like(x), np.empty(count), np.zeros(count, dtype=int),
              np.zeros(count, dtype=bool), np.zeros(count, dtype=int))
    ended = []  # (position, converged) of the rows that leave the batch this round
    for i, row in enumerate(live):
        if row.trace is not None:
            row.trace.append(row.energy)
        converged = row.begin(budget, grad_tol)
        if converged is not None:
            ended.append((i, converged))
        elif row.todo == _NEWTON:
            row.data = (pairs, parts, i)
    while live:
        # the rows due a Newton trial hold the pair data they need: drop the
        # rest before this round's energy call (tens of MB at MAX_POINTS)
        pairs = parts = trial_pairs = new_pairs = new_parts = None
        if ended:
            for i, converged in ended:
                row = live[i]
                for out, value in zip(result, (x[i], row.energy, row.iterations,
                                               converged, row.evaluations)):
                    out[row.start] = value
            stay = np.delete(np.arange(len(live)), [i for i, _ in ended])
            live = [live[i] for i in stay]
            x, grad = _take(x, stay), _take(grad, stay)
            ended = []
            continue
        # the rows this round moves: Newton trials wait until half the rows are due one
        due = [i for i, row in enumerate(live) if row.todo == _NEWTON]
        if 2 * len(due) < len(live):
            go = [i for i, row in enumerate(live) if row.todo != _NEWTON]
            due = []
        else:
            go = range(len(live))
        at = None if len(go) == len(live) else np.array(go)
        xs, gs = _take(x, at), _take(grad, at)
        if len(due) == len(live):
            pairs, parts = _newton_data(live)
            trial = _newton_trial(target, x, pairs, grad, parts)
        else:  # BB trials, a row due a Newton trial taking its own in their place
            step = np.array([live[i].bb_step() for i in go])
            trial = _retract(target, xs - step[:, None] * gs)
            if due:
                at = np.array(due)
                pairs, parts = _newton_data([live[i] for i in due])
                trial[at] = _newton_trial(target, _take(x, at), pairs, _take(grad, at), parts)
        trial_energy, trial_pairs = _evaluate(target, trial)
        values = trial_energy.tolist()
        moved = []  # positions in go
        for j, value in enumerate(values):
            i = go[j]
            row = live[i]
            if row.todo == _NEWTON:
                if value <= row.energy + row.slack:
                    row.evaluations += 3  # the Hessian, the energy and the gradient
                    moved.append(j)
                else:
                    row.evaluations += 2
                    row.refuse()
            elif value <= row.energy - 1e-4 * row.step * row.gnorm2:  # Armijo
                row.evaluations += 2
                moved.append(j)
            else:
                row.evaluations += 1
                row.step *= 0.5
                row.todo = _BACK
                if row.step < 1e-18:  # numerically stationary
                    ended.append((i, True))
        if not moved:
            continue
        at = None if len(moved) == len(go) else np.array(moved)
        new_params, new_pairs = _take(trial, at), _take(trial_pairs, at)
        trial_pairs = None
        new_grad, new_parts = _gradient_parts(target, new_params, new_pairs)
        # the BB history of the step: s = x_new - x, y = g_new - g
        s = new_params - _take(xs, at)
        y = new_grad - _take(gs, at)
        kept = []  # positions in moved
        for q, (j, g2, sy, ss) in enumerate(zip(moved, _row_dots(new_grad, new_grad),
                                                _row_dots(s, y), _row_dots(s, s))):
            row = live[go[j]]
            if row.todo == _NEWTON and not g2 <= 0.25 * row.gnorm2:
                row.refuse()
                continue
            kept.append(q)
            energy = values[j]
            row.stalls = row.stalls + 1 if row.energy - energy <= row.slack else 0
            row.energy, row.gnorm2, row.sy, row.ss = energy, g2, sy, ss
            row.iterations += 1
            if row.trace is not None:
                row.trace.append(energy)
            converged = row.begin(budget, grad_tol)
            if converged is not None:
                ended.append((go[j], converged))
            # the pair data serve only the Newton trial of a row due one next
            row.data = (new_pairs, new_parts, q) if row.todo == _NEWTON else None
        if len(kept) == len(live):
            x, grad = new_params, new_grad
        elif kept:
            rows = np.array([go[moved[q]] for q in kept])
            if len(kept) < len(moved):
                kept = np.array(kept)
                new_params, new_grad = _take(new_params, kept), _take(new_grad, kept)
            x[rows], grad[rows] = new_params, new_grad
    if one:
        params, energy, iterations, converged, evaluations = result
        return (params[0], float(energy[0]), int(iterations[0]), bool(converged[0]),
                int(evaluations[0]))
    return result


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
    The restarts descend as one batch, in chunks of at most ``_CHUNK_PAIRS``
    point pairs.
    """
    _check_arguments(n, budget, restarts)
    require_normal_radius(target)
    chunk = max(1, _CHUNK_PAIRS // (n * (n - 1) // 2))
    best = None
    evaluations = 0
    for first in range(0, restarts, chunk):
        starts = np.stack([_initial_params(target, n, np.random.default_rng([seed, k]))
                           for k in range(first, min(first + chunk, restarts))])
        params, energy, iterations, converged, counts = descend(target, starts, budget, grad_tol)
        evaluations += int(counts.sum())
        for k in range(len(starts)):
            if best is None or energy[k] < best[0]:
                best = (float(energy[k]), params[k], int(iterations[k]), bool(converged[k]))
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
