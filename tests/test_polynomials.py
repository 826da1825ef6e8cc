import numpy as np
import pytest
import sympy

from arakelov.polynomials import (AlgebraicPoint, NotSquarefreeError,
                                  PolynomialSyntaxError, PrimitivePolynomial,
                                  cyclotomic_polynomial, discriminant,
                                  is_cyclotomic, normalize_coefficients,
                                  parse_polynomial, parse_polynomial_with_notices,
                                  reverse)

X = sympy.Symbol("x")


def random_polys(seed, count, max_degree=8, coeff_bound=50):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.integers(1, max_degree + 1))
        raw = [int(c) for c in rng.integers(-coeff_bound, coeff_bound + 1, size=d + 1)]
        if raw[-1] == 0:
            continue
        try:
            out.append(PrimitivePolynomial(normalize_coefficients(raw)[0]))
        except (ValueError, NotSquarefreeError):
            continue
    return out


class TestParse:
    def test_basic(self):
        assert parse_polynomial("x^2 - 2").coeffs == (-2, 0, 1)

    def test_sign_normalization(self):
        # -x + 1 normalizes to x - 1
        assert parse_polynomial("-x + 1").coeffs == (-1, 1)

    def test_content_divided_with_notice(self):
        poly, notices = parse_polynomial_with_notices("2x^2 - 4")
        assert poly.coeffs == (-2, 0, 1)
        assert any("content 2" in n for n in notices)

    def test_whitespace_and_term_merging(self):
        assert parse_polynomial(" x^2+x^2 - 1 ").coeffs == (-1, 0, 2)

    def test_rejects_garbage(self):
        for bad in ("", "x^", "x**2", "2x^-1", "x+", "y+1", "3 4"):
            with pytest.raises((PolynomialSyntaxError, ValueError)):
                parse_polynomial(bad)

    def test_rejects_zero_and_constants(self):
        with pytest.raises(ValueError):
            parse_polynomial("x - x")
        with pytest.raises(ValueError):
            parse_polynomial("7")

    def test_rejects_repeated_roots(self):
        with pytest.raises(NotSquarefreeError):
            parse_polynomial("x^2 + 2x + 1")

    def test_str_round_trip(self):
        for f in random_polys(seed=101, count=40):
            assert parse_polynomial(str(f)).coeffs == f.coeffs

    @pytest.mark.parametrize("raw", [[1.7, 0, 1], [True, 1], [-2, 0, 1.0], ["1", 1]])
    def test_rejects_non_integer_coefficients(self, raw):
        # truncating 1.7 to 1 would silently report a different polynomial
        with pytest.raises(ValueError, match="is not an integer"):
            normalize_coefficients(raw)

    def test_accepts_integer_types(self):
        raw = [np.int64(-2), 0, np.int32(1)]
        assert normalize_coefficients(raw) == ((-2, 0, 1), [])


class TestDiscriminant:
    def test_quadratic_formula_oracle(self):
        # oracle: b^2 - 4ac
        assert discriminant(parse_polynomial("x^2 - 2")) == 0 * 0 - 4 * 1 * (-2)
        assert discriminant(parse_polynomial("x^2 - x - 1")) == 1 + 4

    def test_degree_one_convention(self):
        assert discriminant(parse_polynomial("x - 1")) == 1

    def test_against_sympy(self):
        for f in random_polys(seed=1746, count=60):
            expr = sum(c * X**k for k, c in enumerate(f.coeffs))
            assert discriminant(f) == int(sympy.discriminant(expr, X))

    def test_root_product_formula(self):
        # disc = a_d^(2d-2) * prod_{i<j} (r_i - r_j)^2, via numpy roots
        for f in random_polys(seed=7, count=25, max_degree=6):
            if f.degree < 2:
                continue
            roots = np.roots(list(reversed(f.coeffs)))
            prod = 1.0
            for i in range(len(roots)):
                for j in range(i + 1, len(roots)):
                    prod *= (roots[i] - roots[j]) ** 2
            expected = f.leading ** (2 * f.degree - 2) * prod
            assert abs(discriminant(f) - expected.real) <= 1e-6 * abs(expected)


class TestReverse:
    def test_examples(self):
        assert reverse(parse_polynomial("x^2 - 2")).coeffs == (-1, 0, 2)
        assert reverse(parse_polynomial("x - 1")).coeffs == (-1, 1)
        # golden ratio maps to the {1/phi, -phi} conjugate set, i.e. x^2 + x - 1
        assert reverse(parse_polynomial("x^2 - x - 1")).coeffs == (-1, 1, 1)

    def test_involution(self):
        for f in random_polys(seed=11, count=40):
            if f.coeffs[0] == 0:
                continue
            assert reverse(reverse(f)) == f

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            reverse(parse_polynomial("x"))


class TestCyclotomic:
    def test_small_values_match_sympy(self):
        for n in (1, 2, 3, 4, 5, 6, 12, 30, 105):
            ours = cyclotomic_polynomial(n)
            theirs = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()
            assert list(ours.coeffs) == list(reversed([int(c) for c in theirs]))

    def test_recognizes_cyclotomics(self):
        assert is_cyclotomic(parse_polynomial("x^2 + x + 1"))
        assert is_cyclotomic(parse_polynomial("x - 1"))
        assert not is_cyclotomic(parse_polynomial("x^2 - 2"))

    def test_reducible_products_of_cyclotomics(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1): no n has phi(n) = 3, the factor
        # peeling must still recognize it
        assert is_cyclotomic(PrimitivePolynomial.from_coeffs([-1, 0, 0, 1]))
        # Phi_3 * Phi_4 = x^4 + x^3 + 2x^2 + x + 1
        assert is_cyclotomic(PrimitivePolynomial.from_coeffs([1, 1, 2, 1, 1]))

    def test_rejects_near_misses(self):
        assert not is_cyclotomic(parse_polynomial("x^2 + x - 1"))
        assert not is_cyclotomic(parse_polynomial("2x - 1"))
        # Lehmer's polynomial: monic, constant term 1, not cyclotomic
        lehmer = PrimitivePolynomial.from_coeffs([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
        assert not is_cyclotomic(lehmer)

    def test_consistency_with_unit_modulus(self):
        from arakelov.roots import complex_roots
        for n in (5, 8, 12, 15):
            certified = complex_roots(cyclotomic_polynomial(n))
            assert all(abs(abs(z) - 1.0) <= 1e-9 for z in certified.roots)


class TestAlgebraicPoint:
    def test_markers(self):
        assert AlgebraicPoint.infinity().is_infinity
        assert AlgebraicPoint.zero().is_zero
        assert not AlgebraicPoint.finite(parse_polynomial("x-2")).is_zero

    def test_zero_point_is_the_polynomial_x(self):
        assert AlgebraicPoint.zero().poly.coeffs == (0, 1)
