import math

import numpy as np
import pytest

from arakelov import arith
from arakelov.heights import (HALF_LOG2, Place, arakelov_height, arch_energy_sum,
                              chordal_distance, height_report, nonarch_energy_sum,
                              weil_height)
from arakelov.padic import valuation
from arakelov.polynomials import (AlgebraicPoint, PrimitivePolynomial,
                                  discriminant, parse_polynomial, reverse)

from test_polynomials import random_polys


class TestChordal:
    def test_zero_and_infinity(self):
        assert chordal_distance((0, 1), (1, 0)) == 1.0

    def test_antipodal_reals(self):
        assert chordal_distance((1, 1), (-1, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_imaginary_unit_to_infinity(self):
        assert chordal_distance((1j, 1), (1, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_scale_invariance(self):
        a = chordal_distance((3 + 1j, 2), (1, 5))
        b = chordal_distance((9 + 3j, 6), (-2j, -10j))
        assert a == pytest.approx(b, rel=1e-14)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            chordal_distance((0, 0), (1, 1))


class TestArchEnergy:
    def test_sqrt2(self):
        # delta(sqrt2, -sqrt2) = 2 sqrt2 / 3 by hand
        entry = arch_energy_sum(parse_polynomial("x^2 - 2"))
        assert entry.value == pytest.approx(-math.log(2 * math.sqrt(2) / 3), abs=1e-12)
        assert entry.place.is_archimedean
        assert entry.method == "numeric-roots"

    def test_antipodal_gaussian(self):
        entry = arch_energy_sum(parse_polynomial("x^2 + 1"))
        assert entry.value == pytest.approx(0.0, abs=1e-12)

    def test_golden(self):
        # (1+phi^2)(1+psi^2) = 5 = (phi - psi)^2, so delta = 1
        entry = arch_energy_sum(parse_polynomial("x^2 - x - 1"))
        assert entry.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            arch_energy_sum(parse_polynomial("x - 1"))


class TestNonarchEnergy:
    def test_sqrt2_at_2(self):
        entry = nonarch_energy_sum(parse_polynomial("x^2 - 2"), 2)
        assert entry.value == pytest.approx(1.5 * math.log(2), abs=1e-15)
        assert entry.method == "exact-valuation"
        assert entry.error_bound == 0.0

    def test_sqrt2_at_5(self):
        assert nonarch_energy_sum(parse_polynomial("x^2 - 2"), 5).value == 0.0

    def test_golden_at_5(self):
        entry = nonarch_energy_sum(parse_polynomial("x^2 - x - 1"), 5)
        assert entry.value == pytest.approx(0.5 * math.log(5), abs=1e-15)

    def test_integer_root_oracle(self):
        # independent oracle: for integer roots the energy sum is the mean of
        # v_p(r_i - r_j) log p over ordered pairs (all log+ terms vanish)
        rng = np.random.default_rng(61)
        for _ in range(25):
            roots = rng.choice(np.arange(-30, 31), size=int(rng.integers(2, 5)),
                               replace=False)
            coeffs = [1]
            for r in roots:
                coeffs = [0] + coeffs
                for k in range(len(coeffs) - 1):
                    coeffs[k] -= int(r) * coeffs[k + 1]
            f = PrimitivePolynomial(tuple(coeffs))
            d = len(roots)
            for p in (2, 3, 5, 7):
                direct = sum(2 * valuation(int(a - b), p)
                             for i, a in enumerate(roots)
                             for b in roots[i + 1:]) * math.log(p) / (d * (d - 1))
                assert nonarch_energy_sum(f, p).value == pytest.approx(direct, abs=1e-13)

    def test_rejects_composite_place(self):
        with pytest.raises(ValueError):
            nonarch_energy_sum(parse_polynomial("x^2 - 2"), 10)


class TestHeights:
    def test_point_one_attains_smallest_positive_value(self):
        assert arakelov_height(parse_polynomial("x - 1")) == pytest.approx(
            HALF_LOG2, abs=1e-15)

    def test_zero_and_infinity(self):
        assert arakelov_height(AlgebraicPoint.zero()) == 0.0
        assert arakelov_height(AlgebraicPoint.infinity()) == 0.0
        assert weil_height(AlgebraicPoint.zero()) == 0.0

    def test_point_two(self):
        assert arakelov_height(parse_polynomial("x - 2")) == pytest.approx(
            0.5 * math.log(5), abs=1e-15)
        assert weil_height(parse_polynomial("x - 2")) == pytest.approx(
            math.log(2), abs=1e-15)

    def test_golden_ratio(self):
        assert arakelov_height(parse_polynomial("x^2 - x - 1")) == pytest.approx(
            0.25 * math.log(5), abs=1e-12)

    def test_weil_examples(self):
        assert weil_height(parse_polynomial("x^2 + x + 1")) == pytest.approx(0.0, abs=1e-12)
        # Mahler measure of x^2 - 2 is 2
        assert weil_height(parse_polynomial("x^2 - 2")) == pytest.approx(
            0.5 * math.log(2), abs=1e-12)


class TestHeightReport:
    def test_sqrt2_decomposition(self):
        report = height_report(parse_polynomial("x^2 - 2"))
        assert report.h_arakelov == pytest.approx(0.5 * math.log(3), abs=1e-12)
        d_inf = report.locals[0]
        d_two = report.locals[1]
        assert d_inf.place.is_archimedean
        assert d_two.place == Place.finite(2)
        assert d_inf.value == pytest.approx(0.0588915178, abs=1e-9)
        assert d_two.value == pytest.approx(1.0397207708, abs=1e-9)
        assert report.crosscheck_residual < 1e-10

    def test_primitive_cube_root(self):
        report = height_report(parse_polynomial("x^2 + x + 1"))
        assert report.h_arakelov == pytest.approx(HALF_LOG2, abs=1e-12)
        assert "root-of-unity" in report.flags
        by_place = {e.place.key: e.value for e in report.locals}
        assert by_place["inf"] == pytest.approx(math.log(2 / math.sqrt(3)), abs=1e-12)
        assert by_place[3] == pytest.approx(0.5 * math.log(3), abs=1e-15)

    def test_degree_one_has_no_locals(self):
        report = height_report(parse_polynomial("x - 1"))
        assert report.h_arakelov == pytest.approx(HALF_LOG2, abs=1e-15)
        assert report.locals == ()
        assert report.crosscheck_residual is None

    def test_zero_point(self):
        report = height_report(AlgebraicPoint.zero())
        assert report.h_arakelov == 0.0 and report.h_weil == 0.0

    def test_json_schema(self):
        payload = height_report(parse_polynomial("x^2 - 2")).to_json_dict()
        assert set(payload) == {"h_arakelov", "h_weil", "locals",
                                "crosscheck_residual", "flags"}
        assert payload["locals"][0]["place"] == "inf"
        assert payload["locals"][1]["place"] == 2
        assert {"place", "value", "method", "error_bound"} == set(payload["locals"][0])


class TestExtremeMagnitudes:
    def test_roots_near_zero(self):
        # 1e40 x^2 - 1: roots +-1e-20, so h_Ar = log(1e40) / 2 = 20 log 10
        report = height_report(
            parse_polynomial("10000000000000000000000000000000000000000x^2 - 1"))
        assert report.h_arakelov == pytest.approx(20 * math.log(10), abs=1e-9)
        assert report.crosscheck_residual <= 1e-9


class TestFactoringBudget:
    def test_unfactored_cofactor_is_one_exact_entry(self, monkeypatch):
        # the discriminant of this degree-30 input is a 317-bit composite
        monkeypatch.setattr(arith, "_ECM_SCHEDULE", ((2, 500),))
        f = parse_polynomial("x^30 + 5x^17 - 13x^11 + 29x^4 - 37x + 47")
        disc = abs(discriminant(f))
        report = height_report(f)
        assert "discriminant-partially-factored" in report.flags
        assert [e.to_json_dict() for e in report.locals[1:]] == [
            {"place": disc, "method": "unfactored-cofactor",
             "value": math.log(disc) / (30 * 29), "error_bound": 0.0}]
        assert report.crosscheck_residual <= 1e-9
        aggregate = height_report(f, itemize_finite=False)
        assert report.crosscheck_residual == pytest.approx(
            aggregate.crosscheck_residual, abs=1e-15)


class TestInvariantsOnRandomCorpus:
    def test_lower_bound_and_equality_cases(self):
        for f in random_polys(seed=67, count=150):
            if f.coeffs[0] == 0:
                continue
            report = height_report(f, itemize_finite=False)
            assert report.h_arakelov >= HALF_LOG2 - 1e-9
            if abs(report.h_arakelov - HALF_LOG2) <= 1e-9:
                assert "root-of-unity" in report.flags

    def test_inversion_symmetry(self):
        for f in random_polys(seed=71, count=60):
            if f.coeffs[0] == 0:
                continue
            assert arakelov_height(f) == pytest.approx(
                arakelov_height(reverse(f)), abs=1e-11)

    def test_negation_symmetry(self):
        for f in random_polys(seed=73, count=60):
            negated = PrimitivePolynomial.from_coeffs(
                [c if k % 2 == 0 else -c for k, c in enumerate(f.coeffs)])
            assert arakelov_height(f) == pytest.approx(
                arakelov_height(negated), abs=1e-11)

    def test_decomposition_residual(self):
        for f in random_polys(seed=79, count=120):
            if f.degree < 2:
                continue
            report = height_report(f)
            assert report.crosscheck_residual <= 1e-9

    def test_residual_within_certified_error(self):
        for f in random_polys(seed=83, count=60):
            if f.degree < 2:
                continue
            report = height_report(f)
            arch = report.locals[0]
            budget = 0.5 * arch.error_bound + 1e-12
            assert report.crosscheck_residual <= budget

    def test_dominance(self):
        for f in random_polys(seed=89, count=100):
            h_ar = arakelov_height(f)
            h_w = weil_height(f)
            assert -1e-12 <= h_w <= h_ar + 1e-12
            assert h_ar - h_w <= HALF_LOG2 + 1e-12

    def test_against_independent_root_finder(self):
        # mpmath's own polyroots, nothing shared with the package's iteration
        import mpmath as mp
        for f in random_polys(seed=103, count=20, max_degree=6):
            with mp.workdps(40):
                roots = mp.polyroots([mp.mpf(c) for c in reversed(f.coeffs)],
                                     maxsteps=200, extraprec=100)
                total = mp.fsum(0.5 * mp.log(1 + abs(z) ** 2) for z in roots)
                expected = float((total + mp.log(f.leading)) / f.degree)
            assert arakelov_height(f) == pytest.approx(expected, abs=1e-11)

    def test_report_is_deterministic(self):
        f = parse_polynomial("x^5 - 4x^3 + x - 3")
        assert height_report(f) == height_report(f)

    def test_finite_support_is_exactly_the_discriminant(self):
        for f in random_polys(seed=97, count=40):
            if f.degree < 2:
                continue
            disc = abs(discriminant(f))
            report = height_report(f)
            for entry in report.locals[1:]:
                p = entry.place.prime
                assert disc % p == 0
                assert entry.value > 0.0
            # any prime missing from the report contributes exactly zero
            for p in (2, 3, 5, 7):
                if disc % p != 0:
                    assert nonarch_energy_sum(f, p).value == 0.0
