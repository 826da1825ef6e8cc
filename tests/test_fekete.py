import math

import numpy as np
import pytest

from arakelov.equilibrium import Interval, RealLine, Sphere, analytic_energy
from arakelov.fekete import (PointConfiguration, _angles_to_vectors, _energy,
                             _gradient, _pair_scale, convergence_table, descend,
                             discrete_energy, equally_spaced_energy,
                             gradient_relative_error, minimize)

TARGETS = [RealLine(), Sphere(), Interval(2.0)]


def config(target, params):
    params = np.asarray(params, dtype=float)
    return PointConfiguration(set=target, params=params, energy=math.nan,
                              iterations=0)


class TestDiscreteEnergy:
    def test_zero_and_infinity_on_the_line(self):
        # x = tan(theta): theta = 0 is the point 0, theta = pi/2 is infinity
        assert discrete_energy(config(RealLine(), [0.0, math.pi / 2])) == 0.0

    def test_antipodal_pair_on_the_sphere(self):
        # azimuths then polar angles: poles are phi = 0 and phi = pi
        assert discrete_energy(config(Sphere(), [0.0, 0.0, 0.0, math.pi])) == 0.0

    def test_equally_spaced_four_points(self):
        thetas = [k * math.pi / 4 for k in range(4)]
        value = discrete_energy(config(RealLine(), thetas))
        assert value == pytest.approx(math.log(2) - math.log(4) / 3, abs=1e-13)

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError):
            discrete_energy(config(RealLine(), [0.3, 0.3]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        thetas = rng.random(6) * math.pi
        a = discrete_energy(config(RealLine(), thetas))
        b = discrete_energy(config(RealLine(), thetas[::-1]))
        assert a == pytest.approx(b, abs=1e-13)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        thetas = rng.random(6) * math.pi
        a = discrete_energy(config(RealLine(), thetas))
        b = discrete_energy(config(RealLine(), thetas + 0.7331))
        assert abs(a - b) < 1e-12
        az, pol = rng.random(5) * 2 * math.pi, rng.random(5) * math.pi
        a = discrete_energy(config(Sphere(), np.concatenate([az, pol])))
        b = discrete_energy(config(Sphere(), np.concatenate([az + 1.234, pol])))
        assert abs(a - b) < 1e-12

    def test_rejects_coincident_points_on_the_sphere(self):
        # two points at the north pole, whatever their azimuths
        with pytest.raises(ValueError):
            discrete_energy(config(Sphere(), [0.4, 1.9, 0.0, 0.0]))
        with pytest.raises(ValueError):
            discrete_energy(config(Sphere(), [1.0, 1.0, 0.7, 0.7]))


class TestEquallySpaced:
    def test_two_points(self):
        assert equally_spaced_energy(2) == 0.0

    def test_closed_form_matches_brute_force(self):
        for n in (3, 4, 7, 12):
            thetas = [k * math.pi / n for k in range(n)]
            brute = discrete_energy(config(RealLine(), thetas))
            assert equally_spaced_energy(n) == pytest.approx(brute, abs=1e-12)

    def test_n64(self):
        assert equally_spaced_energy(64) == pytest.approx(
            math.log(2) - math.log(64) / 63, abs=1e-15)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            equally_spaced_energy(1)


def _full_matrix_energy(target, params):
    """The n x n reference the pair kernels must reproduce bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(target, RealLine):
            n = len(params)
            d = params[:, None] - params[None, :]
            s = np.abs(np.sin(d))
            iu = np.triu_indices(n, 1)
            return float(-2.0 * np.sum(np.log(s[iu])) * _pair_scale(n)) + 0.0
        if isinstance(target, Sphere):
            u, _ = _full_matrix_unit_vectors(params)
            n = u.shape[1]
            d2 = _full_matrix_squared_distances(u)
            iu = np.triu_indices(n, 1)
            return float(-np.sum(np.log(d2[iu] / 4.0)) * _pair_scale(n)) + 0.0
    # an interval is the arc theta = atan(r)*sin(t) of the real projective line
    return _full_matrix_energy(RealLine(), math.atan(target.r) * np.sin(params))


def _full_matrix_unit_vectors(params):
    """Rows x, y, z of the 3N sphere parameters, normalised, and their norms."""
    x = params.reshape(3, -1)
    norms = np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    return x / norms, norms


def _full_matrix_squared_distances(u):
    diff = u[:, :, None] - u[:, None, :]
    return diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]


def _full_matrix_gradient(target, params):
    if isinstance(target, RealLine):
        n = len(params)
        d = params[:, None] - params[None, :]
        np.fill_diagonal(d, np.pi / 2)  # placeholder; diagonal excluded below
        cot = np.cos(d) / np.sin(d)
        np.fill_diagonal(cot, 0.0)
        return -2.0 * _pair_scale(n) * np.sum(cot, axis=1)
    if isinstance(target, Sphere):
        # gradient of E(x/|x|): the Euclidean pair gradient at u = x/|x|,
        # projected onto the tangent plane at u and divided by |x|
        u, norms = _full_matrix_unit_vectors(params)
        n = u.shape[1]
        d2 = _full_matrix_squared_distances(u)
        np.fill_diagonal(d2, 1.0)
        du = np.stack([-2.0 * _pair_scale(n) * np.sum((u[c][:, None] - u[c][None, :]) / d2, axis=1)
                       for c in range(3)])
        for _ in range(2):  # the second pass removes the first one's radial rounding
            du = du - (du[0] * u[0] + du[1] * u[1] + du[2] * u[2]) * u
        return (du / norms).ravel()
    alpha = math.atan(target.r)
    return (_full_matrix_gradient(RealLine(), alpha * np.sin(params))
            * (alpha * np.cos(params)))


class TestKernels:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 32, 64])
    def test_equal_to_the_full_matrix_reference(self, target, n):
        rng = np.random.default_rng(n)
        size = 3 * n if isinstance(target, Sphere) else n
        for _ in range(50):
            params = rng.uniform(-3.0, 3.0, size)
            assert _energy(target, params) == _full_matrix_energy(target, params)
            assert np.array_equal(_gradient(target, params),
                                  _full_matrix_gradient(target, params))

    def test_non_target_raises(self):
        with pytest.raises(TypeError):
            _energy(object(), np.zeros(4))
        with pytest.raises(TypeError):
            _gradient(object(), np.zeros(4))


class TestGradients:
    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_finite_differences(self, target):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            size = 3 * n if isinstance(target, Sphere) else n
            params = rng.random(size) * 2.0 + 0.1
            assert gradient_relative_error(target, params) <= 1e-6

    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_finite_differences_at_24_points(self, target):
        # a few descent steps keep the points apart, where central differences
        # resolve the gradient; uniform random angles put some pairs too close
        start = minimize(target, 24, seed=3, budget=5, restarts=1).params
        if isinstance(target, Sphere):  # reported angles back to descent vectors
            start = _angles_to_vectors(start)
        jitter = 0.01 * np.random.default_rng(24).standard_normal(len(start))
        for params in (start, start + jitter):
            assert gradient_relative_error(target, params) <= 1e-6


class TestSphereChart:
    """Sphere descent runs on unit vectors of R^3, 3N numbers (x, y, z rows)."""

    def test_gradient_is_tangent(self):
        rng = np.random.default_rng(31)
        for n in (3, 8, 17, 32):
            for _ in range(20):
                x = rng.standard_normal((3, n))  # any nonzero vectors: the energy normalises
                u = x / np.linalg.norm(x, axis=0)
                g = _gradient(Sphere(), x.ravel()).reshape(3, n)
                radial = np.abs(np.sum(u * g, axis=0))
                assert np.all(radial <= 1e-15 * np.linalg.norm(g, axis=0))

    def test_matches_finite_differences_on_and_off_the_sphere(self):
        rng = np.random.default_rng(12)
        for n in (4, 9, 16):
            x = rng.standard_normal((3, n))
            u = (x / np.linalg.norm(x, axis=0)).ravel()
            assert gradient_relative_error(Sphere(), u) <= 1e-6
            assert gradient_relative_error(Sphere(), x.ravel()) <= 1e-6

    def test_descent_retracts_onto_unit_vectors(self):
        x = 3.0 * np.random.default_rng(2).standard_normal(3 * 7)
        params, energy, _, _ = descend(Sphere(), x, budget=20)
        assert np.allclose(np.linalg.norm(params.reshape(3, 7), axis=0), 1.0, rtol=0, atol=4e-16)
        assert energy == _energy(Sphere(), params)

    @pytest.mark.parametrize("n, optimum", [(4, -0.5 * math.log(2 / 3)),  # tetrahedron
                                            (6, 0.4 * math.log(2))])  # octahedron
    def test_platonic_optima(self, n, optimum):
        for seed in range(3):
            result = minimize(Sphere(), n, seed=seed)
            assert result.converged
            assert abs(result.energy - optimum) <= 1e-14

    def test_reported_angles_reproduce_the_energy(self):
        # the angles are a rounding away from the descent's vectors; each energy
        # evaluation carries about 4 eps of relative rounding, up to 7 ulps at
        # N = 4, whose energy sits just above 2^-3
        for n in (4, 6, 16, 32):
            for seed in range(3):
                result = minimize(Sphere(), n, seed=seed)
                gap = abs(discrete_energy(result) - result.energy)
                assert gap <= 8 * math.ulp(result.energy)


class TestMinimize:
    def test_real_line_recovers_equally_spaced(self):
        result = minimize(RealLine(), 8, seed=1)
        assert result.energy == pytest.approx(equally_spaced_energy(8), abs=1e-6)
        assert result.converged

    def test_sphere_pair_is_antipodal(self):
        result = minimize(Sphere(), 2, seed=0)
        assert result.energy <= 1e-9

    def test_interval_sixteen_points(self):
        result = minimize(Interval(2.0), 16, seed=7)
        # the true N=16 optimum sits 0.211 below the continuum limit
        assert result.energy >= 0.5 * math.log(5) - 0.25
        # no tested random start beats the optimizer
        rng = np.random.default_rng(123)
        for _ in range(5):
            start = np.arcsin(rng.random(16) * 2 - 1)
            try:
                rand_energy = discrete_energy(config(Interval(2.0), start))
            except ValueError:
                continue
            assert result.energy <= rand_energy
        bigger = minimize(Interval(2.0), 32, seed=7)
        assert bigger.energy >= result.energy - 1e-9
        assert bigger.energy <= analytic_energy(Interval(2.0))

    @pytest.mark.parametrize("r", [10.0, 1e3, 1e6, 1e10, 1e15, 1e16])
    def test_wide_interval_recovers_equal_spacing(self, r):
        # from r = tan(7 pi/16) the arc holds the 8 equally spaced angles
        result = minimize(Interval(r), 8, seed=0)
        assert result.converged
        assert abs(result.energy - equally_spaced_energy(8)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_two_points_reach_zero_exactly(self, seed):
        # the two points end antipodal up to rounding, where |u - v|^2 / 4
        # can round above 1; the energy kernel clamps it there
        assert minimize(Sphere(), 2, seed=seed).energy == 0.0

    def test_non_finite_start_raises(self):
        with pytest.raises(FloatingPointError):
            descend(RealLine(), np.array([0.1, math.nan, 0.5]), budget=10)

    def test_descent_is_monotone(self):
        rng = np.random.default_rng(17)
        trace: list[float] = []
        descend(RealLine(), rng.random(9) * math.pi, budget=300, trace=trace)
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_deterministic_in_seed(self):
        a = minimize(Sphere(), 6, seed=42)
        b = minimize(Sphere(), 6, seed=42)
        assert a.energy == b.energy
        assert np.array_equal(a.params, b.params)

    def test_params_in_fundamental_domain(self):
        result = minimize(RealLine(), 7, seed=3)
        assert np.all((result.params >= 0) & (result.params < math.pi))
        sphere = minimize(Sphere(), 5, seed=3)
        az, pol = sphere.params[:5], sphere.params[5:]
        assert np.all((az >= 0) & (az < 2 * math.pi))
        assert np.all((pol >= 0) & (pol <= math.pi))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            minimize(RealLine(), 1)
        with pytest.raises(ValueError):
            minimize(RealLine(), 4, budget=0)


class TestConvergenceTable:
    def test_real_line_gaps_are_the_closed_form(self):
        rows = convergence_table(RealLine(), [2, 4, 8, 16, 32], seed=0)
        for row in rows:
            assert row.limit == pytest.approx(math.log(2), abs=1e-15)
            assert row.gap == pytest.approx(math.log(row.n) / (row.n - 1), abs=1e-6)

    def test_sphere_energies_increase_toward_half(self):
        rows = convergence_table(Sphere(), [2, 4, 8, 16], seed=0)
        energies = [row.energy for row in rows]
        assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))
        assert all(e <= 0.5 for e in energies)
        gaps = [row.gap for row in rows]
        assert all(b <= a + 1e-4 for a, b in zip(gaps, gaps[1:]))

    def test_interval_energies_below_limit_and_increasing(self):
        rows = convergence_table(Interval(1.0), [4, 8, 16], seed=0)
        energies = [row.energy for row in rows]
        assert all(e <= math.log(2 * math.sqrt(2)) for e in energies)
        assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            convergence_table(RealLine(), [4, 2])
