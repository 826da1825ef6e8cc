"""Self-validating quadrature: adaptive Gauss-Legendre and tanh-sinh rules.

Every rule runs through successive levels until two of them agree within the
target tolerance, reports the last disagreement as the error estimate, and
raises ``QuadratureError`` when its levels run out first.  Integrands must be
vectorized (numpy array in, numpy array out).

tanh-sinh (Takahasi and Mori, Publ. RIMS 9, 1974) has one panel routine,
``tanh_sinh_rows``, for a batch of integrals over one [a, b]: row k is split
at its own cut points, so a singular point only ever appears as a panel
endpoint.  Each row refines on its own and stops at the level it would stop
at alone, and a converged row is no longer evaluated.  ``tanh_sinh`` and
``split_singular`` are batches of one.  tanh-sinh tolerates integrable
endpoint singularities, and every panel of a level has the same number of
nodes: a node whose distance to its endpoint would be absorbed by the
endpoint itself keeps weight 0 and is not counted as an evaluation, so the
rows of a batch fit one array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Refinement stalled before reaching the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    evaluations: int

    def to_json_dict(self) -> dict:
        return {"value": self.value, "est_error": self.est_error,
                "evaluations": self.evaluations}


def _refine(level, levels: int, tol: float, rule: str,
            rows: int = 1) -> list[QuadratureResult]:
    """The results of ``rows`` integrals, each taken at its first level
    within ``tol`` of its level before.

    ``level(k, active)`` returns two lists, the values at level k of the
    rows in the index array ``active`` and their evaluation counts; a row
    leaves ``active`` once it has converged.  ``levels`` is the work budget:
    a row still active after it raises.
    """
    out: list = [None] * rows
    spent = [0] * rows
    active, prev, steps = np.arange(rows), None, []
    for k in range(levels):
        values, counts = level(k, active)
        live, steps = [], []
        for i, row in enumerate(active.tolist()):
            spent[row] += counts[i]
            if prev is not None:
                step = abs(values[i] - prev[i])
                if step <= tol:
                    out[row] = QuadratureResult(values[i], step, spent[row])
                    continue
                steps.append(step)
            live.append(i)
        if not live:
            return out
        if len(live) < len(values):
            active, values = active[live], [values[i] for i in live]
        prev = values
    worst = max(steps, key=lambda step: math.inf if math.isnan(step) else step,
                default=math.nan)
    raise QuadratureError(f"{rule} stalled (last step {worst:.3e})")


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=64)
def _leggauss(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on the three-term recurrence from Tricomi's initial
    guesses (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013), on the
    nonnegative nodes; the others follow from x -> -x.  The arrays are
    shared by every caller and read-only.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise QuadratureError(f"Legendre nodes for n={n} did not converge")
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes = np.concatenate((-x[:n // 2], x[::-1]))
    weights = np.concatenate((w[:n // 2], w[::-1]))
    weights *= 2.0 / np.sum(weights)  # as Hale and Townsend: exact on constants
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def adaptive_gauss_legendre(f, a: float, b: float, tol: float,
                            n0: int = 16, max_doublings: int = 11) -> QuadratureResult:
    """Gauss-Legendre with node-count doubling until two levels agree."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def level(k, _):
        x, w = _leggauss(n0 * 2 ** k)
        return [half * float(np.add.reduce(w * f(mid + half * x)))], [x.size]
    return _refine(level, max_doublings + 1, tol,
                   f"Gauss-Legendre up to n={n0 * 2 ** max_doublings}")[0]


@lru_cache(maxsize=32)
def _tanh_sinh_reference(h: float, t_max: float):
    """One tanh-sinh mesh for a half-width of 1: for each node, whether it
    lies below the centre, the sign (+1 or -1) of its offset from its
    endpoint, that offset (the distance to the nearest endpoint, the centre's
    measured from the upper one) and its weight.  Only copies leave
    ``tanh_sinh_nodes``."""
    t = np.arange(-int(np.ceil(t_max / h)), int(np.ceil(t_max / h)) + 1) * h
    s = 0.5 * np.pi * np.sinh(t)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(s) ** 2
    # distance to the nearest endpoint, computed without cancellation
    em = np.exp(-2.0 * np.abs(s))
    return s < 0, np.where(s < 0, 1.0, -1.0), 2.0 * em / (1.0 + em), w


_FOUR_EPS = 4.0 * np.finfo(float).eps


def _floor(end):
    """The smallest distance from ``end`` that ``end`` itself does not absorb."""
    return np.maximum(_FOUR_EPS * np.abs(end), 5e-305)


def tanh_sinh_nodes(a, b, h: float, t_max: float = 4.5):
    """Nodes, weights and kept-node mask of one tanh-sinh mesh on each panel [a, b].

    ``a`` and ``b`` are floats or arrays of one shape; the results add one
    axis, of the same length for every panel.  The weights absorb the
    half-width, so sum(w * f(x)) over that axis approximates the integral.
    A node whose distance to its endpoint would be absorbed by the endpoint
    itself is dropped: it gets weight 0, and it sits at the smallest distance
    that is not absorbed, on the panel's side of the endpoint (outside an
    empty panel), where an endpoint-singular integrand is finite.
    """
    left, sign, off, w = _tanh_sinh_reference(h, t_max)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    off = half * off
    ends = np.where(left, a, b)
    floor = _floor(ends)
    kept = off >= floor
    return ends + sign * np.maximum(off, floor), np.where(kept, half * w, 0.0), kept


def tanh_sinh_rows(f, a: float, b: float, cuts, tol: float,
                   max_level: int = 10) -> list[QuadratureResult]:
    """tanh-sinh integrals over [a, b], one per row of ``cuts``.

    Row k is split at the points cuts[k], ascending in [a, b], and integrates
    f(rows, x)[i] where rows[i] = k: ``f`` gets the indices of the rows it
    evaluates and their nodes, one row of ``x`` per index.
    """
    cuts = np.asarray(cuts, dtype=float)
    n = len(cuts)
    edges = np.empty((n, cuts.shape[1] + 2))
    edges[:, 0], edges[:, 1:-1], edges[:, -1] = a, cuts, b
    lo, hi = edges[:, :-1], edges[:, 1:]
    if not (lo <= hi).all():
        raise ValueError("need a <= b and cut points ascending within [a, b]")
    if a == b:
        return [QuadratureResult(0.0, 0.0, 0)] * n
    # the dropped nodes of an empty panel at a or b would sit outside [a, b]
    inside = (a + _floor(a), b - _floor(b))
    clip = cuts.size > 0 and ((cuts[:, 0] == a).any() or (cuts[:, -1] == b).any())

    def level(k, rows):
        bounds = (lo, hi) if rows.size == n else (lo[rows], hi[rows])
        x, w, kept = tanh_sinh_nodes(*bounds, 2.0 ** -k)
        x, w = x.reshape(rows.size, -1), w.reshape(rows.size, -1)
        if clip:
            x = np.minimum(np.maximum(x, inside[0]), inside[1])
        return (np.add.reduce(w * f(rows, x), axis=1).tolist(),
                np.add.reduce(kept, axis=(1, 2)).tolist())
    return _refine(level, max_level + 1, tol, f"tanh-sinh down to h={2.0 ** -max_level:g}", n)


def _alone(f):
    """A vectorized integrand as the integrand of a batch of one row."""
    return lambda rows, x: f(x[0])[None]


def tanh_sinh(f, a: float, b: float, tol: float,
              max_level: int = 10) -> QuadratureResult:
    """Double-exponential rule on [a, b]; robust to endpoint singularities."""
    return tanh_sinh_rows(_alone(f), a, b, [[]], tol, max_level)[0]


def split_singular(f, a: float, b: float, cuts, tol: float) -> QuadratureResult:
    """Integrate f over [a, b] with interior singularities at ``cuts``.

    ``cuts`` is one point or several.  tanh-sinh runs on every panel between
    them, so a singular point only ever appears as a panel endpoint.
    """
    points = sorted(set(np.atleast_1d(cuts).tolist()))
    return tanh_sinh_rows(_alone(f), a, b, [points], tol)[0]
