import math
import subprocess
import sys

import numpy as np
import pytest

from arakelov.quadrature import (QuadratureError, _leggauss,
                                 adaptive_gauss_legendre, split_singular,
                                 tanh_sinh)


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


def test_tanh_sinh_log_endpoint():
    result = tanh_sinh(np.log, 0.0, 1.0, 1e-12)
    assert result.value == pytest.approx(-1.0, abs=1e-11)


def test_tanh_sinh_inverse_sqrt():
    result = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-11)
    assert result.value == pytest.approx(2.0, abs=1e-10)


def test_tanh_sinh_both_endpoints_singular():
    # the x=1 endpoint cannot be approached closer than ~eps, which caps the
    # reachable accuracy for algebraic singularities there near sqrt(eps)
    result = tanh_sinh(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0, 1e-6)
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


def test_degenerate_interval():
    assert tanh_sinh(np.exp, 2.0, 2.0, 1e-10).value == 0.0


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
