"""Reproduction checks behind the CLI ``verify`` command.

Each check re-derives one of the package's headline numbers (smallest height
value, energy constants, worked bound examples, prime censuses, discrete
optima) and compares at a pinned tolerance.  Checks are deterministic in the
seed, and their detail strings are formatted reproducibly so repeated runs
are byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import equilibrium as eq
from . import fekete
from .arith import euler_phi
from .heights import HALF_LOG2, height_report
from .polynomials import (NotSquarefreeError, PrimitivePolynomial,
                          cyclotomic_polynomial, normalize_coefficients)
from .quadrature import split_singular


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_primitive_corpus(seed: int, count: int) -> list[PrimitivePolynomial]:
    """Random primitive squarefree polynomials, degree 1-8, coefficients in [-50, 50].

    Draws with a zero constant term are rejected: their root multiset would
    contain the point 0, which the height lower bound explicitly excludes.
    """
    rng = np.random.default_rng(seed)
    out: list[PrimitivePolynomial] = []
    while len(out) < count:
        d = int(rng.integers(1, 9))
        raw = rng.integers(-50, 51, size=d + 1)
        if raw[-1] == 0 or raw[0] == 0:
            continue
        try:
            coeffs, _ = normalize_coefficients([int(c) for c in raw])
            out.append(PrimitivePolynomial(coeffs))
        except (ValueError, NotSquarefreeError):
            continue
    return out


# ---------------------------------------------------------------------------
# heights suite
# ---------------------------------------------------------------------------


def check_cyclotomic_equality() -> CheckResult:
    ns = [n for n in range(1, 1000) if euler_phi(n) <= 20]
    worst = 0.0
    for n in ns:
        h = height_report(cyclotomic_polynomial(n)).h_arakelov
        worst = max(worst, abs(h - HALF_LOG2))
    return CheckResult(
        "heights.cyclotomic-equality", worst <= 1e-9,
        f"{len(ns)} cyclotomic polynomials, max |h - log(2)/2| = {worst:.3e}")


_corpus_cache: dict[tuple[int, int], tuple[list, list]] = {}


def _corpus_reports(seed: int, count: int):
    key = (seed, count)
    if key not in _corpus_cache:
        corpus = random_primitive_corpus(seed, count)
        reports = [height_report(f, itemize_finite=False) for f in corpus]
        _corpus_cache.clear()  # hold at most one corpus
        _corpus_cache[key] = (corpus, reports)
    return _corpus_cache[key]


def check_lower_bound_corpus(seed: int = 0, count: int = 10000) -> CheckResult:
    corpus, reports = _corpus_reports(seed, count)
    min_h = min(r.h_arakelov for r in reports)
    violations = sum(1 for r in reports if r.h_arakelov < HALF_LOG2 - 1e-9)
    near_not_cyclo = sum(1 for r in reports
                         if abs(r.h_arakelov - HALF_LOG2) <= 1e-6
                         and "root-of-unity" not in r.flags)
    passed = violations == 0 and near_not_cyclo == 0
    return CheckResult(
        "heights.lower-bound-corpus", passed,
        f"{count} polynomials, min h = {min_h:.10f}, "
        f"{violations} below bound, {near_not_cyclo} non-cyclotomic near equality")


# corpus inputs of degree >= 2 that also get a full itemized report
_ITEMIZED_SAMPLE = 500


def check_decomposition_identity(seed: int = 0, count: int = 10000) -> CheckResult:
    corpus, reports = _corpus_reports(seed, count)
    worst = 0.0
    checked = 0
    for r in reports:
        if r.crosscheck_residual is not None:
            worst = max(worst, r.crosscheck_residual)
            checked += 1
    worst_itemized = 0.0
    sampled = 0
    for f in corpus:
        if f.degree < 2:
            continue
        worst_itemized = max(worst_itemized,
                             height_report(f).crosscheck_residual)
        sampled += 1
        if sampled >= _ITEMIZED_SAMPLE:
            break
    passed = worst <= 1e-9 and worst_itemized <= 1e-9
    return CheckResult(
        "heights.decomposition-identity", passed,
        f"{checked} aggregate residuals (max {worst:.3e}), "
        f"{sampled} itemized (max {worst_itemized:.3e})")


# ---------------------------------------------------------------------------
# measures suite
# ---------------------------------------------------------------------------


def _sphere_sample_points(count: int = 20) -> list[complex]:
    pts = []
    for k in range(count):
        rho = math.tan(0.5 * math.pi * (k + 0.5) / count)
        angle = 2.399963229728653 * k  # irrational turn spreads the angles
        pts.append(rho * complex(math.cos(angle), math.sin(angle)))
    return pts


def check_sphere_measure() -> CheckResult:
    e = eq.energy(eq.Sphere(), tol=1e-8)
    values = [eq.potential(eq.Sphere(), z, tol=1e-7).value
              for z in _sphere_sample_points(20)]
    spread = max(values) - min(values)
    passed = abs(e.value - 0.5) <= 1e-6 and spread <= 1e-4
    return CheckResult(
        "measures.sphere", passed,
        f"energy = {e.value:.10f} (target 0.5), "
        f"potential spread over 20 points = {spread:.3e}")


def poisson_identity_gap(x: float, tol: float = 1e-8) -> float:
    """|(1/2)log(1+x^2) - mean of log|x-t| against the real-line measure|."""
    phi = math.atan(x)

    def f(theta):
        return np.log(np.abs(x - np.tan(theta))) / np.pi
    rhs = split_singular(f, -np.pi / 2, np.pi / 2, phi, tol)
    return abs(rhs.value - 0.5 * math.log1p(x * x))


def check_real_line_measure() -> CheckResult:
    e = eq.energy(eq.RealLine(), tol=1e-8)
    gaps = [poisson_identity_gap(x) for x in (0.0, 0.5, -0.5, 1.0, -1.0,
                                              3.0, -3.0, 10.0, -10.0)]
    passed = abs(e.value - math.log(2.0)) <= 1e-6 and max(gaps) <= 1e-6
    return CheckResult(
        "measures.real-line", passed,
        f"energy = {e.value:.10f} (target log 2), "
        f"max Poisson identity gap over 9 points = {max(gaps):.3e}")


def check_interval_measures() -> CheckResult:
    lines = []
    passed = True
    for r in (0.5, 1.0, 2.0, 5.0, 600.0, 1e6):
        target = eq.analytic_energy(eq.Interval(r))
        e = eq.energy(eq.Interval(r), tol=1e-8)
        m = eq.mass(eq.Interval(r), tol=1e-9)
        b = eq.energy_via_balayage(r, tol=1e-8)
        ok = (abs(e.value - target) <= 1e-5 and abs(m.value - 1.0) <= 1e-7
              and abs(b.value - target) <= 1e-5)
        passed &= ok
        lines.append(f"r={r:g}: energy gap {abs(e.value - target):.2e}, "
                     f"mass gap {abs(m.value - 1.0):.2e}, "
                     f"balayage gap {abs(b.value - target):.2e}")
    return CheckResult("measures.interval", passed, "; ".join(lines))


# ---------------------------------------------------------------------------
# bounds suite
# ---------------------------------------------------------------------------


def check_worked_examples() -> CheckResult:
    b1 = bounds_mod.lower_bound(bounds_mod.PlaceSet(True, (2,)))
    b2 = bounds_mod.lower_bound_interval(bounds_mod.PlaceSet(True, (2,)), 2.0)
    b3 = bounds_mod.lower_bound_interval(bounds_mod.PlaceSet(True, ()), 2.0)
    cheb = bounds_mod.chebyshev_limit_integral(tol=1e-9)
    printed = (f"{b1.value:.6f}", f"{b2.value:.6f}", f"{b3.value:.6f}")
    expected = ("0.577623", "0.633409", "0.402359")
    cheb_ok = abs(cheb.value - 0.481212) <= 2e-6 and cheb.est_error <= 1e-6
    passed = printed == expected and cheb_ok and cheb.value > b3.value
    return CheckResult(
        "bounds.worked-examples", passed,
        f"bounds print as {'/'.join(printed)} (want {'/'.join(expected)}), "
        f"equidistribution integral = {cheb.value:.6f}")


def check_prime_censuses() -> CheckResult:
    beaters = bounds_mod.single_place_beaters()
    census = bounds_mod.count_beating_pairs()
    passed = beaters == (2, 3, 5, 7, 11, 13) and census.count == 82
    return CheckResult(
        "bounds.prime-censuses", passed,
        f"single-place beaters {{{','.join(map(str, beaters))}}}, "
        f"{census.count} beating pairs up to cutoff prime {census.cutoff_prime}")


# ---------------------------------------------------------------------------
# fekete suite
# ---------------------------------------------------------------------------


def check_real_line_optima(seed: int = 0) -> CheckResult:
    worst = 0.0
    for n in (2, 4, 8, 16, 32):
        config = fekete.minimize(eq.RealLine(), n, seed=seed)
        worst = max(worst, abs(config.energy - fekete.equally_spaced_energy(n)))
    worst_grad = 0.0
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        params = np.pi * (rng.random(n) - 0.5)
        worst_grad = max(worst_grad,
                         fekete.gradient_relative_error(eq.RealLine(), params))
    passed = worst <= 1e-6 and worst_grad <= 1e-6
    return CheckResult(
        "fekete.real-line-optima", passed,
        f"max gap to closed form over N in {{2,4,8,16,32}} = {worst:.3e}, "
        f"max gradient FD error over 10 configs = {worst_grad:.3e}")


def check_energy_limits(seed: int = 0) -> CheckResult:
    sphere_grid = [fekete.minimize(eq.Sphere(), n, seed=seed).energy
                   for n in (4, 8, 16, 32)]
    interval_grid = [fekete.minimize(eq.Interval(1.0), n, seed=seed).energy
                     for n in (4, 8, 16, 32)]
    upper = math.log(2.0 * math.sqrt(2.0))
    sphere_ok = 0.40 <= sphere_grid[-1] <= 0.50
    interval_ok = upper - 0.15 <= interval_grid[-1] <= upper
    mono = (all(b >= a - 1e-9 for a, b in zip(sphere_grid, sphere_grid[1:]))
            and all(b >= a - 1e-9 for a, b in zip(interval_grid, interval_grid[1:])))
    passed = sphere_ok and interval_ok and mono
    return CheckResult(
        "fekete.energy-limits", passed,
        f"sphere N=32 energy {sphere_grid[-1]:.6f} in [0.40, 0.50]; "
        f"interval(1) N=32 energy {interval_grid[-1]:.6f} in "
        f"[{upper - 0.15:.6f}, {upper:.6f}]; weakly increasing: {mono}")


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _unseeded(check):
    return lambda seed, corpus_size: check()


def _seed_only(check):
    return lambda seed, corpus_size: check(seed)


# suite name -> its checks in run order, each called as check(seed, corpus_size)
SUITES = {
    "heights": (_unseeded(check_cyclotomic_equality), check_lower_bound_corpus,
                check_decomposition_identity),
    "measures": (_unseeded(check_sphere_measure), _unseeded(check_real_line_measure),
                 _unseeded(check_interval_measures)),
    "bounds": (_unseeded(check_worked_examples), _unseeded(check_prime_censuses)),
    "fekete": (_seed_only(check_real_line_optima), _seed_only(check_energy_limits)),
}


def run_suite(suite: str, seed: int = 0, corpus_size: int = 10000) -> list[CheckResult]:
    """Run one named suite (or ``all``) and return its check results in order."""
    names = list(SUITES) if suite == "all" else [suite]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; "
                         f"choose from all, {', '.join(SUITES)}")
    return [check(seed, corpus_size) for name in names for check in SUITES[name]]
