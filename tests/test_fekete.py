import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from arakelov import fekete
from arakelov.equilibrium import Interval, RealLine, Sphere, analytic_energy
from arakelov.fekete import (MAX_POINTS, PointConfiguration, _angles_to_vectors,
                             _energy, _evaluate, _gradient, _hessian, _initial_params,
                             _pair_scale, _retract, _tangent_basis, convergence_table,
                             descend, discrete_energy, equally_spaced_energy,
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


def _full_matrix_gradient(target, params, alpha=1.0):
    """On the line with ``alpha`` != 1: the gradient in sin t of the arc
    theta = alpha sin t, from the sines divided by alpha."""
    if isinstance(target, RealLine):
        n = len(params)
        d = params[:, None] - params[None, :]
        np.fill_diagonal(d, np.pi / 2)  # placeholder; diagonal excluded below
        cot = np.cos(d) / (np.sin(d) / alpha)
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
    # in the t chart: each term is cos(theta_i - theta_j) alpha / sin(theta_i - theta_j),
    # times cos t_i, so that it stays finite at tiny radii
    alpha = math.atan(target.r)
    return _full_matrix_gradient(RealLine(), alpha * np.sin(params), alpha) * np.cos(params)


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


def _newton_directions(target, params):
    """Unit vectors of the Newton coordinates in descent parameters: on the
    sphere each point's two tangent directions, as 3N vectors."""
    if not isinstance(target, Sphere):
        return np.eye(len(params))
    x = params.reshape(3, -1)
    n = x.shape[1]
    rows = []
    for e in _tangent_basis(x / np.linalg.norm(x, axis=0)):
        for i in range(n):
            d = np.zeros((3, n))
            d[:, i] = e[:, i]
            rows.append(d.ravel())
    return np.array(rows)


def hessian_relative_error(target, params, h=1e-6):
    """Relative gap between the analytic Hessian and central differences of
    the analytic gradient along the Newton coordinates."""
    dirs = _newton_directions(target, params)
    fd = np.array([dirs @ (_gradient(target, params + h * d) - _gradient(target, params - h * d))
                   for d in dirs]).T / (2 * h)
    hess = _hessian(target, params)
    return float(np.linalg.norm(fd - hess) / np.linalg.norm(hess))


class TestHessians:
    @pytest.mark.parametrize("target", TARGETS + [Interval(1e10), Interval(1e-300)])
    @pytest.mark.parametrize("n", [3, 8, 24])
    def test_matches_central_differences_of_the_gradient(self, target, n):
        # a few descent steps keep the points apart, as for the gradient test
        start = minimize(target, n, seed=3, budget=5, restarts=1).params
        if isinstance(target, Sphere):
            start = _angles_to_vectors(start)
        rng = np.random.default_rng(n)
        for params in (start, start + 0.01 * rng.standard_normal(len(start))):
            assert hessian_relative_error(target, params) <= 1e-6
        if isinstance(target, Sphere):  # off the unit vectors too
            off = (start.reshape(3, n) * rng.uniform(0.5, 2.0, n)).ravel()
            assert hessian_relative_error(Sphere(), off) <= 1e-6

    @pytest.mark.parametrize("target", TARGETS)
    def test_symmetric(self, target):
        start = minimize(target, 12, seed=1, budget=5, restarts=1).params
        if isinstance(target, Sphere):
            start = _angles_to_vectors(start)
        hess = _hessian(target, start)
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-14 * np.abs(hess).max())

    def test_rotations_are_null_directions_at_a_minimum(self):
        line = minimize(RealLine(), 9, seed=0).params
        assert np.abs(_hessian(RealLine(), line) @ np.ones(9)).max() <= 1e-14
        u = _angles_to_vectors(minimize(Sphere(), 9, seed=0).params)
        x = u.reshape(3, 9)
        e1, e2 = _tangent_basis(x)
        hess = _hessian(Sphere(), u)
        for axis in np.eye(3):
            turn = np.cross(axis[:, None], x, axis=0)  # d/dt of exp(t [axis]x) u
            coords = np.concatenate([(e1 * turn).sum(axis=0), (e2 * turn).sum(axis=0)])
            assert np.abs(hess @ coords).max() <= 1e-9

    @pytest.mark.parametrize("target", TARGETS + [Interval(1e10), Interval(1e-300)])
    def test_newton_steps_converge_quadratically(self, target):
        # near a minimum: from a gradient norm <= 1e-3 to <= 1e-10 in <= 4 steps
        best = minimize(target, 16, seed=0).params
        if isinstance(target, Sphere):
            best = _angles_to_vectors(best)
        noise = np.random.default_rng(16).standard_normal(len(best))
        scale = 1e-3
        while True:
            start = _retract(target, best + scale * noise)
            gnorm = np.linalg.norm(_gradient(target, start))
            if gnorm <= 1e-3:
                break
            scale /= 2
        assert gnorm >= 1e-5
        params, _, iterations, _, _ = descend(target, start, budget=5)
        assert iterations <= 4
        assert np.linalg.norm(_gradient(target, params)) <= 1e-10

    def test_refuses_newton_steps_back_onto_a_saddle(self):
        # four points on the equator, alternately lifted: a Newton step goes
        # back to the square, a critical point above the tetrahedron's energy
        az = np.arange(4) * math.pi / 2
        z = 1e-3 * np.array([1.0, -1.0, 1.0, -1.0])
        rho = np.sqrt(1.0 - z * z)
        start = np.concatenate([rho * np.cos(az), rho * np.sin(az), z])
        assert np.linalg.norm(_gradient(Sphere(), start)) < 1e-2
        trace: list[float] = []
        _, energy, _, converged, _ = descend(Sphere(), start, budget=4000, trace=trace)
        assert converged
        assert abs(energy - (-0.5 * math.log(2 / 3))) <= 1e-14
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def _cross_basis(u):
    """The tangent basis built with np.cross: e_k x u normalised, e_k the axis
    of u's smallest component, and u x e1."""
    axis = np.zeros_like(u)
    axis[np.argmin(np.abs(u), axis=0), np.arange(u.shape[1])] = 1.0
    e1 = np.cross(axis, u, axis=0)
    e1 /= np.sqrt((e1 * e1).sum(axis=0))
    return e1, np.cross(u, e1, axis=0)


class TestTangentBasis:
    """The closed-form basis: e_k x u is a signed permutation of u's rows."""

    @staticmethod
    def unit_columns():
        a = 1 / math.sqrt(2)
        special = [(0, 0, 1), (0, 0, -1),  # the poles
                   (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),  # the other axes
                   (a, a, 0), (a, -a, 0), (-a, a, 0), (0.6, 0.6, math.sqrt(0.28)),  # |x| = |y|
                   (0.6, -0.6, -math.sqrt(0.28)), (0, a, a), (a, 0, -a),  # ties with zeros
                   (1 / math.sqrt(3),) * 3]  # a three-way tie
        x = np.random.default_rng(41).standard_normal((3, 200))
        return np.concatenate([np.array(special, dtype=float).T, x / np.linalg.norm(x, axis=0)],
                              axis=1)

    def test_equal_to_the_cross_products(self):
        u = self.unit_columns()
        e1, e2 = _tangent_basis(u)
        want1, want2 = _cross_basis(u)
        assert np.array_equal(e1, want1)
        assert np.array_equal(e2, want2)

    def test_orthonormal_tangent_and_right_handed(self):
        u = self.unit_columns()
        e1, e2 = _tangent_basis(u)
        for a, b, want in ((e1, e1, 1.0), (e2, e2, 1.0), (e1, e2, 0.0), (e1, u, 0.0), (e2, u, 0.0)):
            assert np.abs(np.sum(a * b, axis=0) - want).max() <= 4 * np.finfo(float).eps
        assert np.array_equal(e2, np.cross(u, e1, axis=0))


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
        params, energy, _, _, _ = descend(Sphere(), x, budget=20)
        assert np.allclose(np.linalg.norm(params.reshape(3, 7), axis=0), 1.0, rtol=0, atol=4e-16)
        assert energy == _energy(Sphere(), params)

    @pytest.mark.parametrize("n, optimum", [(4, -0.5 * math.log(2 / 3)),  # tetrahedron
                                            (6, 0.4 * math.log(2)),  # octahedron
                                            (12, 5 / 22 * math.log(5))])  # icosahedron
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

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_tiny_radii_keep_newton_steps(self, n):
        # E(r) + log r tends to the energy of [-1, 1], as theta = atan(r) sin t;
        # the gradient and Hessian terms stay finite, so Newton steps are kept
        small = minimize(Interval(1e-100), n, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tiny = minimize(Interval(1e-305), n, seed=0)
        assert small.converged and tiny.converged
        assert abs((tiny.energy + math.log(1e-305)) - (small.energy + math.log(1e-100))) <= 1e-12
        assert abs(tiny.evaluations - small.evaluations) <= 0.1 * small.evaluations

    @pytest.mark.parametrize("seed", range(5))
    def test_two_points_reach_zero_exactly(self, seed):
        # the two points end antipodal up to rounding, where |u - v|^2 / 4
        # can round above 1; the energy kernel clamps it there
        assert minimize(Sphere(), 2, seed=seed).energy == 0.0

    def test_non_finite_start_raises(self):
        with pytest.raises(FloatingPointError):
            descend(RealLine(), np.array([0.1, math.nan, 0.5]), budget=10)

    def test_descent_is_monotone(self):
        # Newton steps may rise by the stall rule's slack, 4e-16 (1 + |E|) < 1e-15 here
        for target in TARGETS:
            rng = np.random.default_rng(17)
            trace: list[float] = []
            descend(target, _initial_params(target, 9, rng), budget=300, trace=trace)
            assert len(trace) > 2
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
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="restarts must be positive"):
                minimize(RealLine(), 4, restarts=restarts)
            with pytest.raises(ValueError, match="restarts must be positive"):
                convergence_table(RealLine(), [2, 3], restarts=restarts)

    def test_refuses_more_points_than_the_bound_before_allocating(self):
        tracemalloc.start()
        try:
            for target in (RealLine(), Sphere(), Interval(2.0)):
                with pytest.raises(ArithmeticError, match=f"{MAX_POINTS}-point bound"):
                    minimize(target, MAX_POINTS + 1)
            with pytest.raises(ArithmeticError, match=f"{MAX_POINTS}-point bound"):
                convergence_table(RealLine(), [4, MAX_POINTS + 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (N, N) float array would take 130 KiB
        assert peak < 64 * 1024

    @pytest.mark.parametrize("target", [RealLine(), Sphere(), Interval(2.0)],
                             ids=["real-line", "sphere", "interval-2"])
    def test_the_bound_itself_is_accepted(self, target):
        config = minimize(target, MAX_POINTS, budget=1, restarts=1)
        assert config.n == MAX_POINTS

    def test_evaluations_count_every_kernel_call_over_every_restart(self, monkeypatch):
        # the restarts descend as one batch: a kernel call evaluates one point per row
        calls = []
        for name in ("_evaluate", "_gradient_parts", "_hessian"):
            kernel = getattr(fekete, name)
            monkeypatch.setattr(fekete, name, lambda target, params, *a, kernel=kernel, **k:
                                calls.append(len(np.atleast_2d(params)))
                                or kernel(target, params, *a, **k))
        config = minimize(RealLine(), 12, seed=2, restarts=3)
        assert config.evaluations == sum(calls) > 3 * config.iterations
        assert config.to_json_dict()["evaluations"] == config.evaluations
        json.dumps(config.to_json_dict())


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


# (target, n, seed, iterations, evaluations, converged, energy) of minimize:
# a change to the descent kernels that keeps their arithmetic keeps these
# exactly.  Taken with numpy 2.4 and OpenBLAS 0.3 on x86-64; another BLAS
# may round a Newton solve differently
TRAJECTORIES = [
    ("sphere", 2, 0, 1, 32, True, 0.0),
    ("sphere", 2, 1, 1, 32, True, 0.0),
    ("sphere", 2, 2, 1, 32, True, 0.0),
    ("sphere", 3, 0, 5, 112, True, 0.14384103622589034),
    ("sphere", 3, 1, 5, 115, True, 0.14384103622589034),
    ("sphere", 3, 2, 5, 113, True, 0.1438410362258903),
    ("sphere", 4, 0, 8, 209, True, 0.20273255405408208),
    ("sphere", 4, 1, 10, 181, True, 0.20273255405408208),
    ("sphere", 4, 2, 12, 187, True, 0.20273255405408208),
    ("sphere", 6, 0, 11, 286, True, 0.27725887222397805),
    ("sphere", 6, 1, 14, 265, True, 0.27725887222397805),
    ("sphere", 6, 2, 13, 277, True, 0.277258872223978),
    ("sphere", 8, 0, 33, 936, True, 0.3207179740792238),
    ("sphere", 8, 1, 25, 703, True, 0.3207179740792238),
    ("sphere", 8, 2, 38, 545, True, 0.32071797407922387),
    ("sphere", 12, 0, 27, 514, True, 0.36578134373502275),
    ("sphere", 12, 1, 31, 535, True, 0.36578134373502275),
    ("sphere", 12, 2, 23, 513, True, 0.3657813437350227),
    ("sphere", 16, 0, 96, 1267, True, 0.3922625792103568),
    ("sphere", 16, 1, 51, 1448, True, 0.39226257921035684),
    ("sphere", 16, 2, 55, 1477, True, 0.3922625792103568),
    ("sphere", 32, 0, 43, 1384, True, 0.4363349474656302),
    ("sphere", 32, 1, 47, 1482, True, 0.43633494746563023),
    ("sphere", 32, 2, 46, 1516, True, 0.4363349474656302),
    ("line", 2, 0, 4, 116, True, 0.0),
    ("line", 2, 1, 3, 114, True, 0.0),
    ("line", 2, 2, 4, 109, True, 0.0),
    ("line", 8, 0, 11, 207, True, 0.39608410317711146),
    ("line", 8, 1, 8, 201, True, 0.3960841031771115),
    ("line", 8, 2, 9, 192, True, 0.39608410317711146),
    ("line", 16, 0, 11, 262, True, 0.5083079324106266),
    ("line", 16, 1, 14, 251, True, 0.5083079324106264),
    ("line", 16, 2, 11, 242, True, 0.5083079324106266),
    ("line", 32, 0, 13, 298, True, 0.581349248211567),
    ("line", 32, 1, 20, 303, True, 0.581349248211567),
    ("line", 32, 2, 13, 291, True, 0.581349248211567),
    ("line", 64, 0, 18, 338, True, 0.6271331633637599),
    ("line", 64, 1, 15, 354, True, 0.6271331633637599),
    ("line", 64, 2, 20, 369, True, 0.6271331633637599),
]


@pytest.mark.parametrize("name, n, seed, iterations, evaluations, converged, energy",
                         TRAJECTORIES, ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in TRAJECTORIES])
def test_trajectory_is_pinned(name, n, seed, iterations, evaluations, converged, energy):
    # the Newton trial's kernels changed their cost, not their arithmetic:
    # every descent takes the same steps
    config = minimize(Sphere() if name == "sphere" else RealLine(), n, seed=seed)
    assert (config.iterations, config.evaluations, config.converged) == (
        iterations, evaluations, converged)
    assert abs(config.energy - energy) <= 2 * math.ulp(energy)


def _bb_descend(target, params, budget, grad_tol=1e-10):
    """Reference: Armijo-backtracked Barzilai-Borwein descent alone, the
    descent before Newton steps, as ``(energy, converged)``."""
    params = _retract(target, np.asarray(params, dtype=float).copy())
    energy, pairs = _evaluate(target, params)
    grad = _gradient(target, params, pairs)
    step = 1.0
    prev_params = prev_grad = None
    stalls = 0
    for _ in range(budget):
        gnorm2 = float(np.dot(grad, grad))
        if math.sqrt(gnorm2) <= grad_tol:
            return energy, True
        if prev_grad is not None:
            s, y = params - prev_params, grad - prev_grad
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
                return energy, True
        prev_params, prev_grad = params, grad
        params, grad = trial, _gradient(target, trial, pairs)
        stalls = stalls + 1 if energy - trial_energy <= 4e-16 * (1.0 + abs(energy)) else 0
        energy = trial_energy
        if stalls >= 8:
            return energy, True
    return energy, False


class TestAgainstBarzilaiBorweinAlone:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16, 32, 64])
    @pytest.mark.parametrize("target", [RealLine(), Sphere(), Interval(1.0), Interval(1e10)],
                             ids=["real-line", "sphere", "interval-1", "interval-1e10"])
    def test_same_minimum(self, target, n, seed):
        config = minimize(target, n, seed=seed)
        runs = [_bb_descend(target, _initial_params(target, n, np.random.default_rng([seed, k])),
                            4000) for k in range(8)]
        energy, converged = min(runs, key=lambda run: run[0])
        assert config.converged == converged
        # Newton steps may end below the BB stall point, never above it
        assert -1e-15 <= energy - config.energy <= 1e-14



def _starts(target, n, seed, rows):
    return np.stack([_initial_params(target, n, np.random.default_rng([seed, k]))
                     for k in range(rows)])


class TestBatchEqualsSerial:
    """A stack of starts descends as one batch; each row takes, bit for bit,
    the steps of its own one-start descent."""

    @staticmethod
    def assert_rows_equal_serial(target, starts, budget, grad_tol=1e-10):
        trace: list = []
        params, energy, iterations, converged, evaluations = descend(
            target, starts, budget, grad_tol, trace=trace)
        assert params.shape == starts.shape and len(trace) == len(starts)
        for k, start in enumerate(starts):
            one: list[float] = []
            p, e, it, c, ev = descend(target, start, budget, grad_tol, trace=one)
            assert p.tobytes() == params[k].tobytes()
            assert np.float64(e).tobytes() == energy[k].tobytes()
            assert (it, c, ev) == (iterations[k], converged[k], evaluations[k])
            assert one == trace[k]
        return iterations, converged, evaluations

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
    @pytest.mark.parametrize("target", [Sphere(), RealLine(), Interval(1.0), Interval(1e10)],
                             ids=["sphere", "real-line", "interval-1", "interval-1e10"])
    def test_rows_finish_at_different_iterations(self, target, n):
        rows = 3 if isinstance(target, Sphere) and n == 64 else 8  # 64 sphere points descend slowly
        iterations, converged, _ = self.assert_rows_equal_serial(
            target, _starts(target, n, 1, rows), 4000)
        assert converged.all()
        if n > 2:
            assert len(set(iterations.tolist())) > 1

    @pytest.mark.parametrize("target", [Sphere(), RealLine(), Interval(1.0), Interval(1e10)],
                             ids=["sphere", "real-line", "interval-1", "interval-1e10"])
    def test_a_small_budget_is_spent_row_by_row(self, target):
        iterations, converged, _ = self.assert_rows_equal_serial(
            target, _starts(target, 16, 2, 6), 9)
        assert not converged.all() and (iterations == 9).any()
        assert (iterations < 9).any() or not converged.any()

    def test_a_numerically_stationary_row_leaves_the_batch(self):
        # grad_tol 0 on two points: some rows reach an exact antipode (gradient
        # 0), others stop where no step size below 1e6 lowers the energy and
        # backtracking halves the step below 1e-18, some 60 evaluations on
        iterations, converged, evaluations = self.assert_rows_equal_serial(
            Sphere(), _starts(Sphere(), 2, 0, 8), 4000, grad_tol=0.0)
        assert converged.all()
        stationary = evaluations - 2 * iterations >= 50
        assert stationary.any() and not stationary.all()

    def test_one_start_is_the_batch_of_one(self):
        start = _initial_params(RealLine(), 12, np.random.default_rng(4))
        p, e, it, c, ev = descend(RealLine(), start, 4000)
        batch = descend(RealLine(), start[None], 4000)
        assert p.tobytes() == batch[0][0].tobytes() and isinstance(e, float)
        assert (e, it, c, ev) == (batch[1][0], batch[2][0], batch[3][0], batch[4][0])

    def test_newton_trials_share_a_stacked_solve(self, monkeypatch):
        # rows due a Newton trial wait until every live row is due one, so the
        # batch takes the trials of its one-start descents in fewer calls
        rows = []
        trial = fekete._newton_trial
        monkeypatch.setattr(fekete, "_newton_trial", lambda target, params, *a:
                            rows.append(len(params)) or trial(target, params, *a))
        starts = _starts(Sphere(), 8, 1, 8)
        for start in starts:
            descend(Sphere(), start, 4000)
        alone = len(rows)
        rows.clear()
        descend(Sphere(), starts, 4000)
        assert sum(rows) == alone and len(rows) < alone / 2 and max(rows) >= 4

    def test_a_newton_round_takes_the_whole_batch(self, monkeypatch):
        # the energy call after a Newton trial evaluates exactly its rows: no
        # BB trial shares a round with Newton trials
        calls = []
        trial, evaluate = fekete._newton_trial, fekete._evaluate
        monkeypatch.setattr(fekete, "_newton_trial", lambda target, params, *a:
                            calls.append(("newton", len(params))) or trial(target, params, *a))
        monkeypatch.setattr(fekete, "_evaluate", lambda target, params:
                            calls.append(("energy", len(params))) or evaluate(target, params))
        descend(Sphere(), _starts(Sphere(), 8, 1, 8), 4000)
        newton = [k for k, (kind, _) in enumerate(calls) if kind == "newton"]
        assert newton
        for k in newton:
            assert calls[k + 1] == ("energy", calls[k][1])

    def test_minimize_equals_serial_restarts(self):
        # the winner rule over restarts, evaluations summed over all of them
        for target, n in ((Sphere(), 8), (RealLine(), 16), (Interval(2.0), 8)):
            runs = [descend(target, start, 4000) for start in _starts(target, n, 5, 8)]
            best = min(range(8), key=lambda k: (runs[k][1], k))
            config = minimize(target, n, seed=5)
            assert config.energy == runs[best][1]
            assert (config.iterations, config.converged) == runs[best][2:4]
            assert config.evaluations == sum(run[4] for run in runs)
            assert np.array_equal(config.params, fekete._canonicalize(target, runs[best][0]))


class TestLayoutGuard:
    """Kernels sum along C-ordered rows whatever the layout of their batch: a
    Fortran-ordered or strided batch gives the bits of the C-ordered one and
    of one 1-D call per row."""

    @staticmethod
    def layouts(batch):
        wide = np.zeros((2 * len(batch), 2 * batch.shape[1]))
        wide[::2, ::2] = batch
        return [np.asfortranarray(batch), wide[::2, ::2], batch[::-1][::-1]]

    @staticmethod
    def same(a, b):
        if isinstance(a, tuple):
            return all(TestLayoutGuard.same(x, y) for x, y in zip(a, b))
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("n", [3, 16, 64])
    @pytest.mark.parametrize("target", [Sphere(), RealLine(), Interval(1.0)],
                             ids=["sphere", "real-line", "interval-1"])
    def test_kernels_ignore_the_layout(self, target, n):
        batch = _retract(target, _starts(target, n, 7, 5))
        kernels = (lambda p: _evaluate(target, p)[0],
                   lambda p: _gradient(target, p),
                   lambda p: _hessian(target, p),
                   lambda p: _retract(target, p))
        for kernel in kernels:
            want = kernel(batch)
            for k, row in enumerate(batch):
                assert self.same(kernel(row.copy()), want[k])
            for other in self.layouts(batch):
                assert self.same(kernel(other), want)

    def test_tangent_basis_ignores_the_layout(self):
        u = _retract(Sphere(), _starts(Sphere(), 9, 2, 4)).reshape(4, 3, 9)
        want = _tangent_basis(u)
        for k in range(4):
            assert self.same(_tangent_basis(u[k].copy()), want[k])
        assert self.same(_tangent_basis(np.asfortranarray(u)), want)

    def test_row_dots_are_the_one_dimensional_dots(self):
        rng = np.random.default_rng(9)
        for p in (1, 7, 16, 33, 64, 96, 1000):
            a, b = rng.standard_normal((2, 5, p))
            dots = fekete._row_dots(a, b)
            assert dots == [float(np.dot(a[k].copy(), b[k].copy())) for k in range(5)]


class TestChunks:
    def test_restarts_split_into_chunks_of_bounded_pairs(self, monkeypatch):
        rows = []
        descend_ = fekete.descend
        monkeypatch.setattr(fekete, "descend", lambda target, starts, *a, **k:
                            rows.append(len(starts)) or descend_(target, starts, *a, **k))
        monkeypatch.setattr(fekete, "_CHUNK_PAIRS", 3 * 28)  # three rows of 8 points
        config = minimize(RealLine(), 8, seed=1, restarts=8)
        assert rows == [3, 3, 2]
        assert config.to_json_dict() == minimize(RealLine(), 8, seed=1).to_json_dict()


def test_a_singular_hessian_keeps_its_row_in_place(monkeypatch):
    # the stacked solve fails for the whole stack; each row is then solved
    # alone, and the row whose Hessian is singular keeps its point
    target = RealLine()
    params = _starts(target, 6, 0, 3)
    energy, pairs = _evaluate(target, params)
    grad, parts = fekete._gradient_parts(target, params, pairs)
    want = fekete._newton_trial(target, params, pairs, grad, parts)
    solve = np.linalg.solve

    def failing(h, rhs):
        if h.ndim == 3 or np.array_equal(h, fekete._hessian(target, params[1]) + np.trace(
                fekete._hessian(target, params[1])) / 36):
            raise np.linalg.LinAlgError("singular")
        return solve(h, rhs)
    monkeypatch.setattr(np.linalg, "solve", failing)
    trial = fekete._newton_trial(target, params, pairs, grad, parts)
    assert trial[[0, 2]].tobytes() == want[[0, 2]].tobytes()
    assert trial[1].tobytes() == params[1].tobytes()
