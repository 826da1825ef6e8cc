"""Self-validating quadrature: adaptive Gauss-Legendre and tanh-sinh rules.

Every rule runs through successive levels until two of them agree within the
target tolerance, reports the last disagreement as the error estimate, and
raises ``QuadratureError`` when its levels run out first.  Integrands must be
vectorized (numpy array in, numpy array out).  tanh-sinh tolerates
integrable endpoint singularities; nodes whose distance to an endpoint would
underflow are dropped, which is harmless for such integrands.
"""
from __future__ import annotations

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


def _refine(levels, tol: float, rule: str) -> QuadratureResult:
    """The first level of ``levels`` within ``tol`` of the level before it.

    ``levels`` yields ``(value, evaluations)`` from coarse to fine; it is
    finite, which is the work budget, and running out of it raises.
    """
    prev, err, evals = None, float("nan"), 0
    for value, n in levels:
        evals += n
        if prev is not None:
            err = abs(value - prev)
            if err <= tol:
                return QuadratureResult(float(value), float(err), evals)
        prev = value
    raise QuadratureError(f"{rule} stalled (last step {err:.3e})")


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

    def levels():
        for n in (n0 * 2 ** k for k in range(max_doublings + 1)):
            x, w = _leggauss(n)
            yield half * float(np.sum(w * f(mid + half * x))), n
    return _refine(levels(), tol, f"Gauss-Legendre up to n={n0 * 2 ** max_doublings}")


@lru_cache(maxsize=32)
def _tanh_sinh_reference(h: float, t_max: float):
    """One tanh-sinh mesh for a half-width of 1: the sign of each node's
    abscissa, its distance to the nearest endpoint and its weight.  Only
    copies leave ``tanh_sinh_nodes``."""
    t = np.arange(-int(np.ceil(t_max / h)), int(np.ceil(t_max / h)) + 1) * h
    s = 0.5 * np.pi * np.sinh(t)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(s) ** 2
    # distance to the nearest endpoint, computed without cancellation
    em = np.exp(-2.0 * np.abs(s))
    return s, 2.0 * em / (1.0 + em), w


def tanh_sinh_nodes(a: float, b: float, h: float, t_max: float = 4.5):
    """Nodes and weights of one tanh-sinh mesh, endpoint-safe.

    Returned weights absorb the interval half-width, so sum(w * f(x))
    approximates the integral directly.
    """
    s, off, w = _tanh_sinh_reference(h, t_max)
    half = 0.5 * (b - a)
    off = half * off
    # drop only nodes whose offset would be absorbed by the endpoint itself
    eps = np.finfo(float).eps
    floor_a = max(4.0 * eps * abs(a), 5e-305)
    floor_b = max(4.0 * eps * abs(b), 5e-305)
    keep = np.where(s < 0, off >= floor_a, off >= floor_b)
    s, w, off = s[keep], w[keep], off[keep]
    x = np.where(s < 0, a + off, b - off)
    x[s == 0] = 0.5 * (a + b)
    return x, half * w


def tanh_sinh(f, a: float, b: float, tol: float,
              max_level: int = 10) -> QuadratureResult:
    """Double-exponential rule on [a, b]; robust to endpoint singularities."""
    if not a <= b:
        raise ValueError("need a <= b")
    return _tanh_sinh_panels(f, [(a, b)], tol, max_level)


def _tanh_sinh_panels(f, panels, tol: float, max_level: int = 10) -> QuadratureResult:
    """tanh-sinh on all panels at once: one f call per level; empty panels add nothing."""
    def levels():
        for level in range(max_level + 1):
            meshes = [tanh_sinh_nodes(lo, hi, 2.0 ** -level) for lo, hi in panels]
            x, w = (np.concatenate(m) for m in zip(*meshes))
            yield float(np.sum(w * f(x))), x.size
    return _refine(levels(), tol, f"tanh-sinh down to h={2.0 ** -max_level:g}")


def split_singular(f, a: float, b: float, cuts, tol: float) -> QuadratureResult:
    """Integrate f over [a, b] with interior singularities at ``cuts``.

    ``cuts`` is one point or several.  tanh-sinh runs on every panel between
    them, so a singular point only ever appears as a panel endpoint.
    """
    points = sorted(set(np.atleast_1d(cuts).tolist()))
    if not all(a <= c <= b for c in points):
        raise ValueError("split point outside the interval")
    edges = [a, *points, b]
    return _tanh_sinh_panels(f, list(zip(edges, edges[1:])), tol)
