import math
import subprocess
import sys

import numpy as np
import pytest

from arakelov.quadrature import (QuadratureError, _leggauss,
                                 adaptive_gauss_legendre, split_rows,
                                 split_singular)


@pytest.mark.parametrize("n", [16, 32])
def test_nodes_integrate_polynomials_exactly(n):
    x, w = _leggauss(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(np.sum(w * x ** k)) == pytest.approx(exact, abs=1e-14)


def test_nodes_symmetric_and_weights_sum_to_two():
    x, w = _leggauss(512)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)


def test_nodes_match_numpy_at_small_n():
    for n in range(1, 65):
        x, w = _leggauss(n)
        nx, nw = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - nx)) <= 1e-15, n
        assert np.max(np.abs(w - nw)) <= 1e-14, n


def test_gauss_legendre_polynomial_exactness():
    result = adaptive_gauss_legendre(lambda x: x**6 - 2 * x + 1, -1.0, 2.0, 1e-12)
    exact = (2.0**7 - (-1.0) ** 7) / 7 - (2.0**2 - 1.0) + 3.0
    assert result.value == pytest.approx(exact, abs=1e-12)
    assert result.est_error <= 1e-12


def test_gauss_legendre_smooth():
    result = adaptive_gauss_legendre(np.sin, 0.0, math.pi, 1e-12)
    assert result.value == pytest.approx(2.0, abs=1e-11)


def test_graded_log_endpoint():
    result = split_singular(np.log, 0.0, 1.0, (), 1e-12)
    assert result.value == pytest.approx(-1.0, abs=1e-11)


def test_graded_inverse_sqrt():
    result = split_singular(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, (), 1e-11)
    assert result.value == pytest.approx(2.0, abs=1e-10)


def test_graded_both_endpoints_singular():
    # the x=1 endpoint cannot be approached closer than ~eps, which caps the
    # reachable accuracy for algebraic singularities there near sqrt(eps)
    result = split_singular(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0, (), 1e-6)
    assert result.value == pytest.approx(math.pi, abs=3e-6)


def test_split_singular_interior_log():
    result = split_singular(lambda x: np.log(np.abs(x - 0.3)), 0.0, 1.0, 0.3, 1e-11)
    exact = 0.3 * math.log(0.3) + 0.7 * math.log(0.7) - 1.0
    assert result.value == pytest.approx(exact, abs=1e-10)


def test_split_singular_several_cuts():
    def f(x):
        return np.log(np.abs(x - 0.3)) + np.log(np.abs(x - 0.7))
    result = split_singular(f, 0.0, 1.0, (0.7, 0.3), 1e-11)
    one = 0.3 * math.log(0.3) + 0.7 * math.log(0.7) - 1.0
    assert result.value == pytest.approx(2.0 * one, abs=1e-10)


class TestRows:
    """One panel routine: row k of a batch is the lone integral split at its cuts."""

    # an empty panel at either end and between equal cuts
    CUTS = [[0.3, 0.7], [0.0, 0.5], [0.5, 1.0], [0.2, 0.2], [0.0, 1.0], [0.1, 0.9]]

    @staticmethod
    def _family(k, x):
        """Row k's integrand: log|x - c| at its first cut, plus sqrt(x) on odd rows."""
        c = np.array(TestRows.CUTS)[k, :1]
        return np.log(np.abs(x - c)) + (k[:, None] % 2) * np.sqrt(x)

    @staticmethod
    def _log_integral(c):
        """Integral of log|x - c| over [0, 1]."""
        left = c * math.log(c) if c > 0 else 0.0
        right = (1 - c) * math.log(1 - c) if c < 1 else 0.0
        return left + right - 1.0

    def test_rows_are_batches_of_one(self):
        cuts = np.array(self.CUTS)
        rows = split_rows(self._family, 0.0, 1.0, cuts, 1e-11)
        for k, row in enumerate(rows):
            alone = split_rows(lambda _, x, k=k: self._family(np.array([k]), x),
                                   0.0, 1.0, cuts[k:k + 1], 1e-11)
            assert row == alone[0]
            exact = self._log_integral(cuts[k][0]) + (k % 2) * 2.0 / 3.0
            assert row.value == pytest.approx(exact, abs=1e-10)

    def test_distinct_cuts_match_split_singular(self):
        cuts = np.array(self.CUTS)
        rows = split_rows(self._family, 0.0, 1.0, cuts, 1e-11)
        for k in (0, 5):
            lone = split_singular(lambda x, k=k: self._family(np.array([k]), x[None])[0],
                                  0.0, 1.0, cuts[k], 1e-11)
            assert rows[k] == lone

    def test_converged_rows_are_not_evaluated(self):
        seen = []

        def f(rows, x):
            seen.append(rows.tolist())
            # row 0 vanishes, so it converges at the first comparison
            return np.where(rows[:, None] == 0, 0.0, np.log(x))
        rows = split_rows(f, 0.0, 1.0, np.empty((2, 0)), 1e-12)
        assert rows[0] == split_singular(np.zeros_like, 0.0, 1.0, (), 1e-12)
        assert rows[1] == split_singular(np.log, 0.0, 1.0, (), 1e-12)
        assert seen[:2] == [[0, 1], [0, 1]]
        assert len(seen) > 2 and all(active == [1] for active in seen[2:])

    def test_cuts_must_ascend_within_the_interval(self):
        with pytest.raises(ValueError):
            split_rows(lambda rows, x: x, 0.0, 1.0, [[0.7, 0.3]], 1e-8)
        with pytest.raises(ValueError):
            split_rows(lambda rows, x: x, 0.0, 1.0, [[1.5]], 1e-8)
        with pytest.raises(ValueError):
            split_singular(np.exp, 0.0, 1.0, 2.0, 1e-8)

    def test_stalled_row_raises(self):
        rng = np.random.default_rng(5)

        def f(rows, x):
            return np.where(rows[:, None] == 0, 0.0, rng.random(x.shape))
        with pytest.raises(QuadratureError, match="graded panels up to n=48 stalled"):
            split_rows(f, 0.0, 1.0, np.empty((2, 0)), 1e-12, max_level=2)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("integrate", [
    lambda f, tol: adaptive_gauss_legendre(f, 0.0, 1.0, tol),
    lambda f, tol: split_singular(f, 0.0, 1.0, 0.5, tol),
    lambda f, tol: split_rows(lambda rows, x: f(x), 0.0, 1.0, [[0.5]], tol),
], ids=["gauss-legendre", "split-singular", "split-rows"])
def test_tol_must_be_positive(integrate, tol):
    def never(x):
        raise AssertionError("integrand evaluated")
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate(never, tol)


def test_exact_levels_still_state_rounding():
    # a constant agrees exactly between levels, and the estimate is the
    # rounding bound n eps sum |w_i f_i| of the converged level, n = 32
    result = adaptive_gauss_legendre(np.ones_like, 0.0, 3.0, 1e-12)
    assert result.value == pytest.approx(3.0, abs=1e-15)
    assert result.est_error == pytest.approx(32 * np.finfo(float).eps * 3.0, rel=1e-12)


def test_degenerate_interval():
    assert split_singular(np.exp, 2.0, 2.0, (), 1e-10).value == 0.0


def test_error_estimate_is_refinement_gap():
    result = adaptive_gauss_legendre(lambda x: np.exp(-x * x), -3.0, 3.0, 1e-10)
    assert result.value == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), abs=1e-9)
    assert result.est_error >= 0.0
    assert result.evaluations > 0


def test_stall_raises():
    rng = np.random.default_rng(5)

    def noisy(x):
        return rng.random(np.shape(x))  # non-convergent by construction
    with pytest.raises(QuadratureError):
        adaptive_gauss_legendre(noisy, 0.0, 1.0, 1e-12, max_doublings=3)


def test_no_entry_point_imports_scipy():
    script = """
import sys
import arakelov as a
for t in (a.Sphere(), a.RealLine(), a.Interval(2.0)):
    a.mass(t), a.potential(t, 0.5), a.energy(t)
a.energy_via_balayage(2.0)
a.harmonic_measure_interval(2.0, -1.0, 1.0)
a.lower_bound_interval(a.PlaceSet(True, (2,)), 2.0)
a.chebyshev_limit_integral()
assert "scipy" not in sys.modules, "scipy was imported"
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
