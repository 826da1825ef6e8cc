import dataclasses
import math

import mpmath
import numpy as np
import pytest

from arakelov import equilibrium
from arakelov.bounds import chebyshev_limit_integral
from arakelov.fekete import minimize
from arakelov.equilibrium import (INF, Interval, RealLine, Sphere,
                                  analytic_energy, conformal_map, density,
                                  energy, energy_via_balayage, exterior_map,
                                  green_interval, harmonic_measure_interval,
                                  mass, potential)
from arakelov.quadrature import (QuadratureError, QuadratureResult,
                                 adaptive_gauss_legendre, split_singular)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestDensity:
    def test_sphere_center(self):
        assert density(Sphere(), 0) == pytest.approx(1 / math.pi, abs=1e-15)

    def test_real_line_at_one(self):
        assert density(RealLine(), 1.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)

    def test_interval_center_value(self):
        # two-term closed form at r=2, x=0 with s = sqrt(5)+1; the same number
        # must come out of the conformal-map boundary derivative below
        s = math.sqrt(5) + 1
        expected = (s / (math.pi * 2 * (s - 2) ** 2)
                    + s / (math.pi * 2 * (s + 2) ** 2))
        assert density(Interval(2.0), 0.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.3558812717, abs=1e-9)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_interval_radius_must_be_positive_and_finite(self, r):
        with pytest.raises(ValueError):
            Interval(r)

    def test_interval_density_refuses_overflow(self):
        # r*r overflows here, and the density never forms it: no refusal is needed
        assert density(Interval(1e200), 0.5) == pytest.approx(1 / (1.25 * math.pi),
                                                              rel=0, abs=1e-15)

    @pytest.mark.parametrize("x", [1e77, 1e78, 1e80, 1e300, 1e78j,
                                   complex(1.5e308, 1.5e308)])
    def test_sphere_far_out(self, x):
        # pi (1 + |x|^2)^2 overflows from |x| of about 8.7e76; the density is
        # 1/(pi |x|^4) there, subnormal up to about 1e81 and then 0, also
        # where |x| itself leaves the double range
        assert density(Sphere(), x) == float(1 / (mpmath.pi * abs(mpmath.mpc(x)) ** 4))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            density(Interval(2.0), 2.0)  # endpoint diverges
        with pytest.raises(ValueError):
            density(Interval(2.0), 3.0)
        with pytest.raises(ValueError):
            density(RealLine(), 1j)
        with pytest.raises(ValueError):
            density(Sphere(), INF)

    def test_density_matches_boundary_derivative_of_map(self):
        # |Phi'+-(x)| from numerically differentiated boundary values; their
        # sum over 2 pi must reproduce the closed-form density
        r = 2.0
        w0 = 1j * (math.sqrt(r * r + 1) + 1) / r

        def phi_boundary(psi, side):
            # boundary values of the exterior map: w = sin(psi) +- i cos(psi)
            w = complex(math.sin(psi), side * math.cos(psi))
            return (w0.conjugate() * w - 1) / (w - w0)

        h = 1e-5
        for x in (-1.5, -0.4, 0.0, 0.9, 1.7):
            psi = math.asin(x / r)
            total = 0.0
            for side in (+1, -1):
                dphi = (phi_boundary(psi + h, side) - phi_boundary(psi - h, side)) / (2 * h)
                dx = r * math.cos(psi)
                total += abs(dphi) / dx
            assert total / (2 * math.pi) == pytest.approx(
                density(Interval(r), x), abs=1e-6)


class TestMass:
    @pytest.mark.parametrize("target,tol", [(Sphere(), 1e-8), (RealLine(), 1e-8),
                                            (Interval(0.5), 1e-7),
                                            # the arc chart keeps the endpoint
                                            # factor free of cancellation
                                            (Interval(0.01), 1e-15),
                                            (Interval(1.0), 1e-15)])
    def test_unit_mass(self, target, tol):
        result = mass(target)
        assert result.value == pytest.approx(1.0, abs=tol)
        assert result.est_error >= 0.0


class TestPotential:
    def test_sphere_at_infinity(self):
        assert potential(Sphere(), INF).value == pytest.approx(0.5, abs=1e-6)

    def test_real_line_at_zero(self):
        assert potential(RealLine(), 0.0).value == pytest.approx(math.log(2), abs=1e-6)

    def test_interval_interior(self):
        result = potential(Interval(2.0), 0.3, tol=1e-8)
        assert result.value == pytest.approx(0.5 * math.log(5), abs=1e-4)

    def test_support_kernel_is_the_chordal_mean_over_plus_minus_t(self):
        # sin(theta_x - theta) sin(theta_x + theta) = k^2 sin(t_x - t) sin(t_x + t),
        # with sin(theta) = k sin(t): the support rows take -log|k sin(t_x - t)|
        rng = np.random.default_rng(8)
        for r in (1e-3, 0.5, 2.0, 1e6):
            k = equilibrium._arc(Interval(r))[0]
            t_x, t = np.pi * (rng.random((2, 50)) - 0.5)
            th_x, th = np.arcsin(k * np.sin(t_x)), np.arcsin(k * np.sin(t))
            chordal = np.log(np.abs(np.sin(th_x - th) * np.sin(th_x + th)))
            arc = np.log(np.abs(k * np.sin(t_x - t) * k * np.sin(t_x + t)))
            assert np.max(np.abs(chordal - arc)) <= 1e-12

    @pytest.mark.parametrize("r, x", [(0.5, 0.2), (2.0, -1.9), (1e6, 0.999e6)])
    def test_support_row_against_the_chordal_kernel(self, r, x):
        # mpmath integrates -log|sin(theta_x - theta)| itself, split at t_x
        got = potential(Interval(r), x, 1e-10)
        with mpmath.workdps(30):
            rr = mpmath.mpf(r)
            k, th_x = rr / mpmath.sqrt(1 + rr * rr), mpmath.atan(x)
            t_x = mpmath.asin(mpmath.sin(th_x) / k)
            exact = mpmath.quad(lambda t: -mpmath.log(abs(mpmath.sin(
                th_x - mpmath.asin(k * mpmath.sin(t))))) / mpmath.pi,
                [-mpmath.pi / 2, t_x, mpmath.pi / 2])
        assert abs(got.value - float(exact)) <= got.est_error

    def test_constancy_on_supports(self):
        rng = np.random.default_rng(3)
        sphere_values = [potential(Sphere(), complex(z), tol=1e-7).value
                         for z in rng.standard_normal(25) * 2]
        sphere_values += [potential(Sphere(), complex(0, z), tol=1e-7).value
                          for z in rng.standard_normal(25) * 5]
        assert max(sphere_values) - min(sphere_values) <= 1e-4

        line_values = [potential(RealLine(), float(x), tol=1e-7).value
                       for x in np.tan(np.pi * (rng.random(50) - 0.5))]
        line_values.append(potential(RealLine(), INF, tol=1e-7).value)
        assert max(line_values) - min(line_values) <= 1e-4
        assert abs(np.median(line_values) - analytic_energy(RealLine())) <= 1e-4

        r = 2.0
        xs = (rng.random(50) * 2 - 1) * (r - 0.05 * r)
        interval_values = [potential(Interval(r), float(x), tol=1e-7).value for x in xs]
        assert max(interval_values) - min(interval_values) <= 1e-3
        assert abs(np.median(interval_values) - analytic_energy(Interval(r))) <= 1e-3

    def test_interval_endpoint_and_off_support(self):
        # the potential extends continuously to the endpoints with the energy value
        for x in (2.0, -2.0):
            result = potential(Interval(2.0), x, tol=1e-7)
            assert result.value == pytest.approx(analytic_energy(Interval(2.0)),
                                                 abs=1e-5)
        off = potential(Interval(1.0), 0.5 + 0.5j, tol=1e-8)
        assert math.isfinite(off.value)

    @pytest.mark.parametrize("r, z", [(1.0, 0.5 + 1e-9j), (2.0, -1.9 + 1e-12j),
                                      (1.0, 0.999999 + 1e-9j)])
    def test_interval_just_off_the_cut(self, r, z):
        # the kernel is nearly singular at Re z; the potential is continuous
        # there, moving off the cut by about the Green function
        result = potential(Interval(r), z, tol=1e-8)
        assert result.est_error <= 1e-8
        on_cut = potential(Interval(r), z.real, tol=1e-8).value
        assert abs(result.value - on_cut) <= 2.0 * green_interval(z, r) + 2e-8

    def test_tiny_interval(self):
        for r in (0.01, 1e-3):
            result = energy(Interval(r), tol=1e-8)
            assert result.value == pytest.approx(analytic_energy(Interval(r)), abs=1e-5)

    def test_sphere_rotational_invariance(self):
        for z in (0.7 + 0.2j, 2.5j, -1.3 + 0.8j):
            a = potential(Sphere(), z, tol=1e-9).value
            b = potential(Sphere(), 1 / z.conjugate(), tol=1e-9).value
            assert a == pytest.approx(b, abs=1e-8)

    @pytest.mark.parametrize("a, rho", [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0), (3.0, 3.0)])
    def test_jensen_mean_over_the_angle(self, a, rho):
        # the sphere potential rests on mean over phi of -log|a - rho e^(i phi)|
        # being -log max(a, rho); the kernel is even in phi
        result = split_singular(
            lambda phi: -np.log(np.hypot(a - rho * np.cos(phi), rho * np.sin(phi))) / np.pi,
            0.0, np.pi, (), 1e-12)
        assert abs(result.value + math.log(max(a, rho))) <= result.est_error

    def test_sphere_at_huge_argument(self):
        # (1/2) log(1 + x^2) overflows x^2 here; the potential is 1/2 on all of P^1
        assert potential(Sphere(), 1e200).value == pytest.approx(0.5, abs=1e-8)
        far = potential(Sphere(), complex(1.5e308, 1.5e308))  # |x| beyond the double range
        assert abs(far.value - 0.5) <= far.est_error

    @pytest.mark.parametrize("r", [0.5, 1.0, 4.0])
    def test_interval_at_huge_argument_matches_infinity(self, r):
        assert potential(Interval(r), 1e200).value == pytest.approx(
            potential(Interval(r), INF).value, abs=1e-12)

    @pytest.mark.parametrize("z", [1j, 0.3 + 0.2j, -2 + 1e-9j])
    def test_real_line_off_the_line(self, z):
        # the line's measure is the harmonic measure at i, so off the line its
        # potential is log 2 + (1/2) log(1 + |z|^2) - log|z + i sgn(Im z)|
        w = mpmath.mpc(z)
        exact = (mpmath.log(2) + mpmath.log(1 + abs(w) ** 2) / 2
                 - mpmath.log(abs(w + 1j * mpmath.sign(w.imag))))
        result = potential(RealLine(), z)
        assert abs(result.value - float(exact)) <= result.est_error

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target, x", [
        (RealLine(), 717617525570084.4), (RealLine(), -717617525570084.4),
        (Interval(1e12), 0.999999e12), (Interval(1e9), (1 - 1e-12) * 1e9)])
    def test_chart_angle_next_to_the_end(self, target, x):
        # the chart angle lies 6 ulps inside +-pi/2, as far from the end as a
        # node too close to it would sit
        result = potential(target, x)
        assert abs(result.value - analytic_energy(target)) <= result.est_error

    @pytest.mark.parametrize("target", [Interval(2.0), RealLine()], ids=["interval", "line"])
    def test_past_the_double_range(self, target):
        # |z| overflows; the potential there is the potential at infinity
        assert potential(target, complex(1.5e308, 1.5e308)) == potential(target, INF)

    def test_widest_interval_is_the_line(self):
        # [-1e300, 1e300] is the arc (k, k') = (1, 1e-300): the line to double precision
        wide, line = Interval(1e300), RealLine()
        pairs = [(energy(wide), energy(line)), (mass(wide), mass(line))]
        pairs += [(potential(wide, x), potential(line, x)) for x in (0.0, 0.3, -1.7, INF)]
        for a, b in pairs:
            assert abs(a.value - b.value) <= max(a.est_error, b.est_error)

    @pytest.mark.parametrize("r", [64.0, 100.0, 1e6])
    @pytest.mark.parametrize("psi", [-1.5, -1.45, 1.45, 1.5])
    def test_wide_interval_near_the_ends(self, r, psi):
        # the measure is uniform in the arc chart and the kernel singularity
        # is a panel endpoint, so these converge at any r
        result = potential(Interval(r), r * math.sin(psi), tol=1e-8)
        assert result.est_error <= 1e-8
        assert result.value == pytest.approx(analytic_energy(Interval(r)), abs=1e-7)


class TestRefusals:
    @pytest.mark.parametrize("target", [Sphere(), RealLine(), Interval(2.0)],
                             ids=["sphere", "line", "interval"])
    @pytest.mark.parametrize("x", [math.nan, complex(1.0, math.nan), complex(math.inf, math.nan)],
                             ids=["nan", "1+nanj", "inf+nanj"])
    def test_nan_point_refused_before_quadrature(self, monkeypatch, target, x):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature started")
        for name in ("split_rows", "split_singular"):
            monkeypatch.setattr(equilibrium, name, no_quadrature)
        with pytest.raises(ValueError, match="is not a point of P\\^1"):
            potential(target, x)


class TestStatedErrors:
    """Every closed-form quantity lies within its stated ``est_error``: masses
    on all three sets, and potentials on the supports, where they equal the
    minimal energy, at three tolerances."""

    RADII = np.geomspace(1e-3, 1e12, 31).tolist()

    @classmethod
    def _cases(cls, tol):
        yield mass(Sphere(), tol), 1.0
        yield mass(RealLine(), tol), 1.0
        for r in cls.RADII:
            target = Interval(r)
            yield mass(target, tol), 1.0
            for u in np.linspace(-2 / 3, 2 / 3, 5).tolist():
                yield potential(target, r * u, tol), analytic_energy(target)
        for x in (0.0, 0.5, -3.0, 1e3, INF):
            yield potential(RealLine(), x, tol), math.log(2)
        for z in (0.0, 0.3 + 0.4j, 2j, INF, 1e-300, 1e-8, 1e8, 1e200):
            yield potential(Sphere(), z, tol), 0.5

    def test_no_estimate_is_understated(self):
        seen, understated = 0, []
        for tol in (1e-6, 1e-8, 1e-10):
            for result, exact in self._cases(tol):
                seen += 1
                if abs(result.value - exact) > result.est_error:
                    understated.append((tol, result, exact))
        assert seen == 603
        assert understated == []


class TestEnergy:
    def test_sphere(self):
        result = energy(Sphere(), tol=1e-8)
        assert result.value == pytest.approx(0.5, abs=1e-6)

    def test_real_line(self):
        result = energy(RealLine(), tol=1e-8)
        assert result.value == pytest.approx(math.log(2), abs=1e-6)

    def test_intervals(self):
        for r in (0.5, 1.0, 2.0):
            result = energy(Interval(r), tol=1e-8)
            assert result.value == pytest.approx(analytic_energy(Interval(r)), abs=1e-5)

    def test_monotone_in_r_and_above_log2(self):
        values = [analytic_energy(Interval(r))
                  for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > math.log(2) for v in values)
        # quadrature agrees with the closed form on the same grid
        for r in (0.25, 4.0):
            assert energy(Interval(r), tol=1e-8).value == pytest.approx(
                analytic_energy(Interval(r)), abs=1e-5)

    def test_closed_form_past_the_overflow_of_r_squared(self):
        assert analytic_energy(Interval(1e200)) == math.log(2)
        # up to the overflow the value is log 2 already
        assert analytic_energy(Interval(1e150)) == math.log(2)
        # and below the overflow of 2/r it is log 2 - log r
        assert analytic_energy(Interval(1e-310)) == pytest.approx(714.494526008714,
                                                                  rel=1e-15)

    @pytest.mark.parametrize("r", [16.0, 25.4, 32.0, 64.0, 100.0, 600.0, 1e4, 1e6, 1e16])
    def test_wide_intervals(self, r):
        result = energy(Interval(r), tol=1e-8)
        assert result.value == pytest.approx(analytic_energy(Interval(r)), abs=1e-5)

    def test_cross_check_refusal_prints_plain_floats(self, monkeypatch):
        single = equilibrium._energy_single

        def off_by_1e3(target, tol):
            result = single(target, tol)
            return dataclasses.replace(result, value=result.value + 1e-3)
        monkeypatch.setattr(equilibrium, "_energy_single", off_by_1e3)
        with pytest.raises(QuadratureError,
                           match=r"^energy cross-check failed: single 0\.69\d* vs double 0\.69\d*$"):
            energy(Interval(16.0), tol=1e-8)

    def test_unconverged_outer_rule_refuses(self):
        # the outer integrand is the potential on the support, constant up to
        # the inner rule's error; at r = 8 that error keeps the outer levels
        # apart, and none up to n = 128 can agree to 1e-300
        with pytest.raises(QuadratureError, match="Gauss-Legendre up to n=128 stalled"):
            energy(Interval(8.0), tol=1e-8, cross_tol=1e-300)


def _energy_double_per_node(target, tol, cross_tol):
    """The cross-check as one potential call per outer node: the oracle of
    the batched ``_energy_double``."""
    evals = 0

    def potentials(xs):
        nonlocal evals
        inner = [potential(target, x, tol / 4) for x in xs]
        evals += sum(p.evaluations for p in inner)
        return np.array([p.value for p in inner])

    if isinstance(target, Sphere):
        outer = adaptive_gauss_legendre(lambda u: potentials(np.sqrt(1.0 / u - 1.0)),
                                        0.0, 1.0, cross_tol / 4, max_doublings=3)
    else:
        def f(t):
            return potentials(equilibrium._arc_x(*equilibrium._arc(target)[:2], t)) / np.pi
        outer = adaptive_gauss_legendre(f, -np.pi / 2, np.pi / 2, cross_tol / 4,
                                        max_doublings=3)
    return QuadratureResult(outer.value, outer.est_error, evals)


class TestBatchedPotentials:
    """The potentials of a batch are the batches of one at each point."""

    @staticmethod
    def _angles(rng):
        # panel ends at +-pi/2 (empty panels), the centre, and a spread in between
        return np.concatenate(([-np.pi / 2, np.pi / 2, 0.0, 1e-300],
                               np.pi * (rng.random(12) - 0.5)))

    def test_sphere_rows_are_batches_of_one(self):
        # c = 0 is the point at infinity and c = 1 the origin, both panel ends
        rng = np.random.default_rng(10)
        c = np.concatenate(([0.0, 1.0, 0.5, 1e-300], rng.random(12)))
        rows = equilibrium._sphere_potentials(c, 1e-9)
        for k, row in enumerate(rows):
            assert row == equilibrium._sphere_potentials(c[k:k + 1], 1e-9)[0]
            assert abs(row.value - 0.5) <= row.est_error
        a = math.hypot(0.3, 0.4)
        assert potential(Sphere(), 0.3 + 0.4j, 1e-9) == equilibrium._sphere_potentials(
            np.array([1 / (1 + a * a)]), 1e-9)[0]
        assert potential(Sphere(), INF, 1e-9) == rows[0]

    def test_real_line_rows_are_batches_of_one(self):
        # the line is the arc (k, k', r) = (1, 0, inf), its chart angle theta = atan(x)
        assert equilibrium._arc(RealLine()) == (1.0, 0.0, math.inf)
        phi = self._angles(np.random.default_rng(11))
        rows = equilibrium._arc_support_potentials(1.0, phi, 1e-9)
        for k, row in enumerate(rows):
            assert row == equilibrium._arc_support_potentials(1.0, phi[k:k + 1], 1e-9)[0]
            assert abs(row.value - math.log(2)) <= row.est_error
        x = math.tan(phi[-1])
        assert equilibrium._arc_t(math.inf, x) == math.atan(x)
        assert potential(RealLine(), x, 1e-9) == equilibrium._arc_support_potentials(
            1.0, np.array([math.atan(x)]), 1e-9)[0]

    @pytest.mark.parametrize("r", [1e-3, 1.0, 1e6])
    def test_interval_rows_are_batches_of_one(self, r):
        k, _, r_arc = equilibrium._arc(Interval(r))
        assert r_arc == r
        t = self._angles(np.random.default_rng(12))
        rows = equilibrium._arc_support_potentials(k, t, 1e-9)
        for i, row in enumerate(rows):
            assert row == equilibrium._arc_support_potentials(k, t[i:i + 1], 1e-9)[0]
            assert row.est_error <= 1e-9
            assert abs(row.value - analytic_energy(Interval(r))) <= 1e-8
        x = r * 0.3
        assert potential(Interval(r), x, 1e-9) == equilibrium._arc_support_potentials(
            k, np.array([equilibrium._arc_t(r_arc, x)]), 1e-9)[0]

    @pytest.mark.parametrize("target", [Sphere(), RealLine(), Interval(1e-3),
                                        Interval(1.0), Interval(1e6)],
                             ids=["sphere", "line", "r=1e-3", "r=1", "r=1e6"])
    def test_energy_double_matches_the_per_node_loop(self, target):
        # the batch takes the chart coordinate of each outer node; the loop
        # maps it to x and back, which may move the last bit of a node
        batched = equilibrium._energy_double(target, 1e-8, 1e-6)
        oracle = _energy_double_per_node(target, 1e-8, 1e-6)
        assert batched.evaluations == oracle.evaluations
        assert abs(batched.value - oracle.value) <= 4e-16
        assert abs(batched.est_error - oracle.est_error) <= 4e-16


class TestSubnormalRadius:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("compute", [
        lambda t: energy(t), lambda t: mass(t), lambda t: potential(t, 0.0),
        lambda t: density(t, 0.0), lambda t: energy_via_balayage(t.r),
        lambda t: minimize(t, 4),
    ], ids=["energy", "mass", "potential", "density", "balayage", "fekete"])
    def test_refused_before_numpy_work(self, compute):
        with pytest.raises(FloatingPointError, match="subnormal"):
            compute(Interval(1e-310))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_smallest_normal_radius_is_accepted(self):
        r = 2.2250738585072014e-308
        assert density(Interval(r), 0.0) == pytest.approx(1 / (math.pi * r), rel=1e-14)
        # k |sin(theta_x - theta)| and the density near +-r leave the double
        # range here; the mass, energy and potentials do not
        result = mass(Interval(r))
        assert abs(result.value - 1.0) <= result.est_error
        for result in (energy(Interval(r)), potential(Interval(r), 0.999 * r),
                       potential(Interval(r), r)):
            assert abs(result.value - analytic_energy(Interval(r))) <= result.est_error


@pytest.mark.parametrize("compute", [
    lambda: mass(Sphere()), lambda: mass(RealLine()), lambda: mass(Interval(2.0)),
    lambda: potential(Sphere(), 0.5), lambda: potential(RealLine(), 0.5),
    lambda: potential(Interval(2.0), 0.5),
    lambda: energy(Sphere()), lambda: energy(RealLine()), lambda: energy(Interval(8.0)),
    lambda: energy_via_balayage(2.0), lambda: harmonic_measure_interval(2.0, -1.0, 1.5),
    chebyshev_limit_integral,
], ids=["mass-sphere", "mass-line", "mass-interval", "potential-sphere",
        "potential-line", "potential-interval", "energy-sphere", "energy-line",
        "energy-interval", "balayage", "harmonic-measure", "chebyshev"])
def test_results_hold_plain_floats(compute):
    result = compute()
    assert type(result.value) is float
    assert type(result.est_error) is float


class TestConformalMap:
    def test_pole_at_i(self):
        image = conformal_map(1j, 2.0)
        assert math.isinf(abs(image))

    def test_exterior_value_at_i(self):
        assert abs(exterior_map(1j, 2.0)) == pytest.approx(GOLDEN, rel=1e-14)

    def test_modulus_exceeds_one_off_cut(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = complex(*rng.standard_normal(2) * 3)
            if abs(z.imag) < 1e-9:
                continue
            assert abs(exterior_map(z, 2.0)) > 1.0

    def test_asymptotics(self):
        # Phi_1(z) ~ 2z/r far away
        for z in (1e6 + 1e6j, -3e7 + 1j):
            assert abs(exterior_map(z, 2.0)) == pytest.approx(abs(2 * z / 2.0), rel=1e-5)

    def test_rejects_cut(self):
        with pytest.raises(ValueError):
            exterior_map(0.5, 2.0)
        with pytest.raises(ValueError):
            conformal_map(-2.0, 2.0)


class TestGreen:
    def test_closed_forms(self):
        assert green_interval(1j, 2.0) == pytest.approx(math.log(GOLDEN), rel=1e-14)
        assert green_interval(1j, 1.0) == pytest.approx(math.log(1 + math.sqrt(2)), rel=1e-14)

    def test_vanishes_at_the_cut(self):
        assert green_interval(2.0 + 1e-9, 2.0) <= 1e-3
        assert green_interval(2.0 + 1e-9, 2.0) >= 0.0


class TestHarmonicMeasure:
    def test_full_mass(self):
        assert harmonic_measure_interval(2.0, -2.0, 2.0).value == pytest.approx(
            1.0, abs=1e-7)

    def test_symmetry_half(self):
        assert harmonic_measure_interval(2.0, -2.0, 0.0).value == pytest.approx(
            0.5, abs=1e-7)

    def test_two_schemes_agree(self):
        first = harmonic_measure_interval(2.0, -1.0, 1.0).value
        # independent route: graded panels directly against the x-space density
        second = split_singular(lambda x: np.array([density(Interval(2.0), float(v))
                                                    for v in np.atleast_1d(x)]),
                                -1.0, 1.0, (), 1e-10).value
        assert 0.0 < first < 1.0
        assert first == pytest.approx(second, abs=1e-7)

    @pytest.mark.parametrize("r", [0.5, 2.0, 100.0, 1e6, 1e9, 1e12])
    def test_chart_angle_against_mpmath(self, r):
        # tan t = x sqrt(1 + r^2) / sqrt(r^2 - x^2), exact near the ends too:
        # [0.9r, r] at r = 1e9 is 1.54e-10, which an asin chart rounds to 0
        def t(x):
            x, rr = mpmath.mpf(x), mpmath.mpf(r)
            return mpmath.atan2(x * mpmath.sqrt(1 + rr * rr), mpmath.sqrt(rr * rr - x * x))
        with mpmath.workdps(60):
            for a, b in [(-r / 3, r / 2), (-r, 0.999 * r), (0.9 * r, r), (-r, r)]:
                exact = (t(b) - t(a)) / mpmath.pi
                got = harmonic_measure_interval(r, a, b)
                assert abs(got.value - exact) <= 4e-16
                assert abs(got.value - exact) <= got.est_error

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            harmonic_measure_interval(2.0, 1.0, -1.0)

    @pytest.mark.parametrize("r, error", [(math.inf, ValueError), (math.nan, ValueError),
                                          (0.0, ValueError), (-1.0, ValueError),
                                          (1e-310, FloatingPointError)])
    def test_rejects_bad_radius(self, r, error):
        # the radius is refused before [a, b] is compared with it
        with pytest.raises(error, match="interval radius"):
            harmonic_measure_interval(r, -1.0, 1.0)


class TestBalayage:
    def test_r_two(self):
        result = energy_via_balayage(2.0)
        assert result.value == pytest.approx(analytic_energy(Interval(2.0)), abs=1e-5)
        moment = result.value - green_interval(1j, 2.0)
        assert moment == pytest.approx(math.log(2 * math.sqrt(5) / (1 + math.sqrt(5))),
                                       abs=1e-5)

    def test_r_one(self):
        assert energy_via_balayage(1.0).value == pytest.approx(
            math.log(2 * math.sqrt(2)), abs=1e-5)

    def test_large_r_tends_to_log2_from_above(self):
        values = [energy_via_balayage(r).value for r in (10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > math.log(2) for v in values)
        assert values[-1] == pytest.approx(math.log(2), abs=1e-3)

    @pytest.mark.parametrize("r", [1e160, 1e200])
    def test_slits_past_the_overflow_of_r_squared(self, r):
        # z^2 - r^2 overflows from r of about 1.3e154; the factored root does not
        assert math.isfinite(green_interval(1j, r))
        image = conformal_map(1 + 1j, r)
        assert math.isfinite(image.real) and math.isfinite(image.imag)
        result = energy_via_balayage(r)
        assert abs(result.value - math.log(2)) <= result.est_error + 1e-12
