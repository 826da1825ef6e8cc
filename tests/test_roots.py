import ast
import math
import pathlib
import time
from fractions import Fraction

import pytest

from arakelov import roots
from arakelov.polynomials import PrimitivePolynomial, cyclotomic_polynomial, parse_polynomial
from arakelov.roots import RootFindingError, _starts, complex_roots
from arakelov.verification import random_primitive_corpus

from test_polynomials import random_polys


def close_to_set(z, targets, tol):
    return min(abs(z - t) for t in targets) <= tol


class TestExamples:
    def test_sqrt2(self):
        certified = complex_roots(parse_polynomial("x^2 - 2"), tol=1e-12)
        targets = (math.sqrt(2), -math.sqrt(2))
        assert all(close_to_set(z, targets, 1e-12) for z in certified.roots)
        assert certified.max_radius() <= 1e-12

    def test_gaussian_units(self):
        certified = complex_roots(parse_polynomial("x^2 + 1"))
        assert all(close_to_set(z, (1j, -1j), 1e-12) for z in certified.roots)

    def test_golden_ratio_quadratic_formula_oracle(self):
        phi = (1 + math.sqrt(5)) / 2
        psi = (1 - math.sqrt(5)) / 2
        certified = complex_roots(parse_polynomial("x^2 - x - 1"))
        assert all(close_to_set(z, (phi, psi), 1e-12) for z in certified.roots)


class TestCertificates:
    def test_disjoint_disks_and_radius(self):
        for f in random_polys(seed=41, count=30):
            certified = complex_roots(f, tol=1e-12)
            n = certified.degree
            assert n == f.degree
            assert certified.max_radius() <= 1e-12
            for i in range(n):
                for j in range(i + 1, n):
                    sep = abs(certified.roots[i] - certified.roots[j])
                    assert sep > certified.radii[i] + certified.radii[j]

    def test_residual_consistent_with_radius(self):
        # |f(z)| <= radius * max |f'| over the disk
        for f in random_polys(seed=43, count=20):
            certified = complex_roots(f)
            for z, rad in zip(certified.roots, certified.radii):
                value = abs(f(z))
                bound = sum(k * abs(c) * (abs(z) + rad) ** (k - 1)
                            for k, c in enumerate(f.coeffs) if k >= 1)
                assert value <= rad * bound * (1 + 1e-9) + 1e-300

    def test_vieta_product(self):
        for f in random_polys(seed=47, count=30):
            certified = complex_roots(f)
            prod = 1.0
            for z in certified.roots:
                prod *= abs(z)
            assert prod * f.leading == pytest.approx(abs(f.coeffs[0]), rel=1e-9)

    def test_high_degree_cyclotomic(self):
        certified = complex_roots(cyclotomic_polynomial(64), tol=1e-12)
        assert certified.degree == 32
        assert all(abs(abs(z) - 1) <= 1e-13 for z in certified.roots)

    def test_deterministic_and_sorted(self):
        f = parse_polynomial("x^5 - 4x^3 + x - 3")
        a = complex_roots(f)
        b = complex_roots(f)
        assert a == b
        keys = [(z.real, z.imag) for z in a.roots]
        assert keys == sorted(keys)

    def test_degree_one(self):
        certified = complex_roots(parse_polynomial("3x - 2"))
        assert certified.roots[0] == pytest.approx(2 / 3, abs=1e-15)
        assert certified.max_radius() <= 1e-12

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            complex_roots(parse_polynomial("x^2 - 2"), tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_rejects_negative_and_nan_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            complex_roots(parse_polynomial("x^2 - 2"), tol=tol)

    def test_tight_cluster_still_certifies(self):
        # roots 0, 1e-6, 1: (x)(10^6 x - 1)(x - 1) scaled to integers
        f = PrimitivePolynomial.from_coeffs([0, 1, -1000001, 1000000])
        certified = complex_roots(f, tol=1e-12)
        assert certified.max_radius() <= 1e-12
        assert close_to_set(0.0, certified.roots, 1e-12)
        assert close_to_set(1e-6, certified.roots, 1e-12)


class TestExtremeMagnitudes:
    def test_roots_near_zero_certify(self):
        # roots +-1e-20: the rounding slack of a center must be relative to it
        f = parse_polynomial("10000000000000000000000000000000000000000x^2 - 1")
        certified = complex_roots(f, tol=1e-12)
        assert certified.max_radius() <= 1e-12
        for z, target in zip(certified.roots, (-1e-20, 1e-20)):
            assert abs(z - target) <= certified.max_radius()
        gap = abs(certified.roots[0] - certified.roots[1])
        assert gap > certified.radii[0] + certified.radii[1]

    def test_refusal_names_the_modulus(self):
        # roots +-1e150: no double-precision center is within 1e-12 of them
        f = parse_polynomial(f"x^2 - {10**300 + 3}")
        with pytest.raises(RootFindingError, match=r"modulus at least 1e\+150"):
            complex_roots(f, tol=1e-12)

    def test_roots_that_are_doubles_certify_at_any_modulus(self):
        # the centres +-2^150 are the roots themselves: the exact rung needs no
        # centre-rounding slack, which alone would exceed tol at this modulus
        certified = complex_roots(parse_polynomial(f"x^2 - {2 ** 300}"), tol=1e-12)
        assert certified.roots == (complex(-2.0 ** 150), complex(2.0 ** 150))
        assert certified.max_radius() <= 1e-12

    def test_refusal_of_a_coefficient_too_long_to_print(self):
        # 4401 digits: str(f) would raise ValueError past the int-to-str limit
        f = PrimitivePolynomial.from_coeffs([-(10 ** 4400 + 3), 0, 1])
        with pytest.raises(RootFindingError, match="degree-2 polynomial"):
            complex_roots(f)


def _mignotte(d, a):
    """x^d - 2 (a x - 1)^2: two real roots within about a^(-d/2 - 1) of 1/a."""
    return PrimitivePolynomial.from_coeffs([-2, 4 * a, -2 * a * a] + [0] * (d - 3) + [1])


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# the (d, a) pairs of the Mignotte family whose roots certify at tol 1e-12
MIGNOTTE_CERTIFIED = [(3, 10), (3, 100), (4, 10), (4, 100), (4, 1000), (5, 10), (5, 100),
                      (5, 1000), (5, 10 ** 4), (6, 10), (6, 100), (6, 1000), (6, 10 ** 4),
                      (6, 10 ** 5), (8, 10), (8, 100), (8, 1000), (10, 10), (10, 100),
                      (10, 1000), (12, 10), (12, 100), (16, 10), (20, 10)]

# (b x - a)(N b x - N a - b) r(x): real roots a/b and a/b + 1/N, r's roots apart;
# the last two pairs are 1.9 and 1.1 ulp apart
CLOSE_PAIRS = [(1, 3, 10 ** 3, [1]), (-7, 2, 10 ** 6 + 17, [5, -3, 0, 2]),
               (11, 5, 10 ** 9 + 7, [-1, 0, 1, 0, 3]), (2, 13, 10 ** 12 + 39, [7, 1, 1]),
               (-5, 1, 10 ** 14, [1]), (3, 29, 10 ** 14 + 3, [-2, 4, 0, 0, 0, 1]),
               (-12, 1, 3 * 10 ** 14, [1, 0, 1]), (-12, 5, 2 * 10 ** 15, [1])]


class TestHardInputs:
    """Clustered roots and huge coefficients, certified by the exact rung."""

    def test_all_certify_within_three_seconds(self):
        start = time.perf_counter()
        for d, a in MIGNOTTE_CERTIFIED:
            assert complex_roots(_mignotte(d, a)).max_radius() <= 1e-12, (d, a)
        for a, b, n, r in CLOSE_PAIRS:
            f = PrimitivePolynomial.from_coeffs(_times(_times([-a, b], [-n * a - b, n * b]), r))
            certified = complex_roots(f)
            for root in (Fraction(a, b), Fraction(a, b) + Fraction(1, n)):
                # exactly one disk holds each rational root, compared in rationals
                assert sum((Fraction(z.real) - root) ** 2 + Fraction(z.imag) ** 2
                           <= Fraction(rad) ** 2
                           for z, rad in zip(certified.roots, certified.radii)) == 1
        certified = complex_roots(PrimitivePolynomial.from_coeffs(
            [10 ** 400 + 7 * k + 3 for k in range(9)]))
        assert certified.degree == 8 and certified.max_radius() <= 1e-12
        assert time.perf_counter() - start < 3.0


    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 200])
    def test_a_radius_belongs_to_the_centre_it_ends_with(self, monkeypatch, budget):
        # sweeps cut short by the budget leave no radius of an earlier centre,
        # in the double pass and in the exact one
        monkeypatch.setattr(roots, "_SWEEP_BUDGET", budget)
        coeffs = _mignotte(8, 1000).coeffs
        centers, radii = next(roots._passes(coeffs))
        double_step = roots._double_step(coeffs)
        assert all(r == math.inf or r == double_step(z)[0] for z, r in zip(centers, radii))
        centers, radii = roots._start_points(coeffs), [math.inf] * 8
        roots._certify_exact(coeffs, centers, radii, 1e-12)
        assert all(r == math.inf or r == roots._exact_step(coeffs, z)[0]
                   for z, r in zip(centers, radii))


def test_exact_rung_traffic_on_the_seed_0_corpus(monkeypatch):
    # 251 of the 10 000 inputs need an exact evaluation; more would mean that
    # the double pass leaves its centres less polished
    calls = []
    exact_step = roots._exact_step
    monkeypatch.setattr(roots, "_exact_step",
                        lambda coeffs, z: calls.append(z) or exact_step(coeffs, z))
    reached = 0
    for f in random_primitive_corpus(0, 10000):
        calls.clear()
        complex_roots(f)
        reached += bool(calls)
    assert 0 < reached <= 251


def test_no_module_imports_mpmath():
    # sympy imports mpmath, so sys.modules cannot tell; the source can
    for path in pathlib.Path(__file__).parent.parent.joinpath("src", "arakelov").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.split(".")[0] == "mpmath" for name in names), path


class TestNewtonPolygonStarts:
    def test_degree_400_certifies_quickly(self):
        # every start sits on |z| = 2^(1/400), where the roots are; from the
        # Cauchy circle (radius 3) this input ran past 40 s
        start = time.perf_counter()
        certified = complex_roots(parse_polynomial("x^400 - 2"), tol=1e-12)
        assert time.perf_counter() - start < 2.0
        assert certified.degree == 400
        assert certified.max_radius() <= 1e-12
        assert all(abs(abs(z) - 2 ** (1 / 400)) <= 1e-12 for z in certified.roots)

    def test_circles_follow_the_hull(self):
        # x (x - 1000) (1000 x - 1): a start at 0, then circles of radius about
        # 1e-3 and 1e3, one start each
        starts = _starts((0, 1000, -1000001, 1000))
        assert starts[0][0] is None
        assert [math.exp(lr) for lr, _ in starts[1:]] == pytest.approx([1e-3, 1e3], rel=1e-5)

    def test_collinear_hull_vertex_gives_one_circle(self, monkeypatch):
        # (0, log 5), (2, log 15), (4, log 45) are collinear, but the float hull
        # keeps the middle vertex; its two edges are one circle of four distinct
        # starts, not two circles whose starts coincide
        f = parse_polynomial("45x^4 - 7x^3 - 15x^2 - 5")
        starts = roots._start_points(f.coeffs)
        assert len({lr for lr, _ in _starts(f.coeffs)}) == 1
        assert min(abs(a - b) for k, a in enumerate(starts) for b in starts[k + 1:]) > 0.5
        calls = []
        exact_step = roots._exact_step
        monkeypatch.setattr(roots, "_exact_step",
                            lambda coeffs, z: calls.append(z) or exact_step(coeffs, z))
        certified = complex_roots(f)
        assert certified.max_radius() <= 1e-12
        assert len(calls) <= 12  # 124 when the twin starts had to be parted
