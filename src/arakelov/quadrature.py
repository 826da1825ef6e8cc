"""Self-validating quadrature: one Gauss-Legendre family, plain and graded.

Every rule runs through successive levels until two of them agree within the
target tolerance, reports the last disagreement plus the level's rounding
bound n eps sum |w_i f_i| as the error estimate, and raises
``QuadratureError`` when its levels run out first.  Integrands must be
vectorized (numpy array in, numpy array out).

All nodes come from ``_leggauss``.  Smooth integrands take them plainly,
16 * 2^k at level k.  Singular integrands take them through
Kress's grading (Numer. Math. 57, 1990), 12 * 2^k per panel at level k, in
one panel routine, ``split_rows``, for a batch of integrals over one [a, b]:
row k is split at its own cut points, so a singular point only ever appears
as a panel endpoint.  Each row refines on its own and stops at the level it
would stop at alone, and a converged row is no longer evaluated.
``split_singular`` is a batch of one, and every singular integral of the
package is a row of ``split_rows``.  Every panel of a level has the same
number of nodes: a node whose distance to its endpoint would be absorbed by
the endpoint itself keeps weight 0, is not counted as an evaluation and is
evaluated in the middle of its row's widest panel, away from every cut, so
the rows of a batch fit one array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_EPS = float(np.finfo(float).eps)


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

    ``level(k, active)`` returns three lists for the rows in the index array
    ``active``: their values at level k, their evaluation counts n and their
    sums of |w_i f_i|; a row leaves ``active`` once it has converged, and
    its estimate adds n eps sum |w_i f_i| to the last step.  ``levels`` is
    the work budget: a row still active after it raises.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    out: list = [None] * rows
    spent = [0] * rows
    active, prev, steps = np.arange(rows), None, []
    for k in range(levels):
        values, counts, sums = level(k, active)
        live, steps = [], []
        for i, row in enumerate(active.tolist()):
            spent[row] += counts[i]
            if prev is not None:
                step = abs(values[i] - prev[i])
                if step <= tol:
                    out[row] = QuadratureResult(
                        values[i], step + counts[i] * _EPS * sums[i], spent[row])
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
                            max_doublings: int = 11) -> QuadratureResult:
    """Gauss-Legendre from 16 nodes, doubling until two levels agree."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def level(k, _):
        x, w = _leggauss(16 * 2 ** k)
        terms = w * f(mid + half * x)
        return ([half * float(np.add.reduce(terms))], [x.size],
                [abs(half) * float(np.add.reduce(np.abs(terms)))])
    return _refine(level, max_doublings + 1, tol,
                   f"Gauss-Legendre up to n={16 * 2 ** max_doublings}")[0]


@lru_cache(maxsize=32)
def _graded_reference(n: int):
    """n Gauss-Legendre nodes x under Kress's grading s -> s^4 / (s^4 + (1 - s)^4),
    s = (1 + x)/2, whose Jacobian vanishes to third order at both ends: for
    each node, whether it lies below the centre, the sign (+1 or -1) of its
    offset from its endpoint, that offset (the distance to the nearest end of
    [-1, 1]) and its weight.  Only copies leave ``_graded_nodes``."""
    x, w = _leggauss(n)
    s, c = 0.5 * (1.0 + x), 0.5 * (1.0 - x)  # s and 1 - s, each exact near its end
    s4, c4 = s ** 4, c ** 4
    left = x < 0
    return (left, np.where(left, 1.0, -1.0), 2.0 * np.where(left, s4, c4) / (s4 + c4),
            w * 4.0 * (s * c) ** 3 / (s4 + c4) ** 2)


_FOUR_EPS = 4.0 * _EPS


def _floor(end):
    """The smallest distance from ``end`` that ``end`` itself does not absorb."""
    return np.maximum(_FOUR_EPS * np.abs(end), 5e-305)


def _graded_nodes(a, b, k: int):
    """Nodes, weights and kept-node mask of level k (12 * 2^k graded nodes) on each panel [a, b].

    ``a`` and ``b`` are floats or arrays of one shape; the results add one
    axis, of the same length for every panel.  The weights absorb the
    half-width, so sum(w * f(x)) over that axis approximates the integral.
    A node whose distance to its endpoint would be absorbed by the endpoint
    itself is dropped: it gets weight 0 and may sit on its end, so the
    caller moves it before evaluating an integrand singular there.
    """
    left, sign, off, w = _graded_reference(12 * 2 ** k)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    off = half * off
    ends = np.where(left, a, b)
    kept = off >= _floor(ends)
    return ends + sign * off, np.where(kept, half * w, 0.0), kept


def split_rows(f, a: float, b: float, cuts, tol: float,
               max_level: int = 10) -> list[QuadratureResult]:
    """Integrals over [a, b], one per row of ``cuts``, by graded panels.

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
    # a dropped node sits in the middle of its row's widest panel, where the
    # integrand is finite: at its own end, or past it, it may meet a cut
    widest = np.argmax(hi - lo, axis=1)
    middle = (0.5 * (lo + hi))[np.arange(n), widest][:, None, None]

    def level(k, rows):
        bounds = (lo, hi) if rows.size == n else (lo[rows], hi[rows])
        x, w, kept = _graded_nodes(*bounds, k)
        x = np.where(kept, x, middle[rows]).reshape(rows.size, -1)
        w = w.reshape(rows.size, -1)
        terms = w * f(rows, x)
        return (np.add.reduce(terms, axis=1).tolist(),
                np.add.reduce(kept, axis=(1, 2)).tolist(),
                np.add.reduce(np.abs(terms), axis=1).tolist())
    return _refine(level, max_level + 1, tol, f"graded panels up to n={12 * 2 ** max_level}", n)


def _alone(f):
    """A vectorized integrand as the integrand of a batch of one row."""
    return lambda rows, x: f(x[0])[None]


def split_singular(f, a: float, b: float, cuts, tol: float) -> QuadratureResult:
    """Integrate f over [a, b] with interior singularities at ``cuts``.

    ``cuts`` is none, one point or several.  Graded panels run between them,
    so a singular point only ever appears as a panel endpoint.
    """
    points = sorted(set(np.atleast_1d(cuts).tolist()))
    return split_rows(_alone(f), a, b, [points], tol)[0]
