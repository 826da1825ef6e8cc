import math

import pytest
import sympy

from arakelov import bounds
from arakelov.bounds import (PlaceSet, chebyshev_limit_integral,
                             count_beating_pairs, lower_bound,
                             lower_bound_interval, nonarch_term,
                             single_place_beaters)
from arakelov.equilibrium import Interval, analytic_energy, energy, green_interval
from arakelov.heights import HALF_LOG2


class TestNonarchTerm:
    def test_two(self):
        assert nonarch_term(2) == pytest.approx(2 * math.log(2) / 3, rel=1e-15)
        # half of it is the 0.231049... of the worked example
        assert f"{0.5 * nonarch_term(2):.6f}" == "0.231049"

    def test_three(self):
        assert nonarch_term(3) == pytest.approx(3 * math.log(3) / 8, rel=1e-15)

    def test_decreasing_tail(self):
        primes = list(sympy.primerange(3, 400))
        values = [nonarch_term(p) for p in primes]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.02

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            nonarch_term(9)


class TestLowerBound:
    def test_empty_set_gives_quarter(self):
        result = lower_bound(PlaceSet.parse(""))
        assert result.value == 0.25
        assert result.base == "quarter"
        assert not result.beats_elementary

    def test_worked_example_one(self):
        result = lower_bound(PlaceSet.parse("inf,2"))
        assert f"{result.value:.6f}" == "0.577623"
        assert result.beats_elementary
        assert result.base == "half_log2"

    def test_seventeen_alone_fails(self):
        result = lower_bound(PlaceSet.parse("17"))
        assert result.value == pytest.approx(0.25 + 0.5 * 17 * math.log(17) / 288,
                                             rel=1e-14)
        assert not result.beats_elementary

    def test_additivity_of_appended_prime(self):
        base = lower_bound(PlaceSet(True, (2, 5)))
        extended = lower_bound(PlaceSet(True, (2, 5, 11)))
        # 11 sorts last, so the sums share a prefix and the identity is exact
        assert extended.value == base.value + 0.5 * nonarch_term(11)

    def test_monotone_under_inclusion(self):
        small = lower_bound(PlaceSet(False, (3,)))
        bigger = lower_bound(PlaceSet(False, (3, 7)))
        biggest = lower_bound(PlaceSet(True, (3, 7)))
        assert small.value < bigger.value < biggest.value

    def test_json_schema(self):
        payload = lower_bound(PlaceSet(True, (2,))).to_json_dict()
        assert set(payload) == {"bound", "base", "r", "terms", "beats_elementary"}
        assert payload["terms"] == {"2": pytest.approx(0.2310490602, abs=1e-9)}


class TestIntervalBound:
    def test_worked_example_two(self):
        result = lower_bound_interval(PlaceSet.parse("inf,2"), 2.0)
        assert f"{result.value:.6f}" == "0.633409"

    def test_worked_example_three(self):
        result = lower_bound_interval(PlaceSet.parse("inf"), 2.0)
        assert f"{result.value:.6f}" == "0.402359"

    def test_requires_archimedean_place(self):
        with pytest.raises(ValueError):
            lower_bound_interval(PlaceSet.parse("2"), 2.0)

    def test_recovers_half_log2_as_r_grows(self):
        for r, tol in ((1e2, 1e-4), (1e4, 1e-8), (1e6, 1e-12)):
            gap = lower_bound_interval(PlaceSet.parse("inf"), r).value - HALF_LOG2
            assert 0.0 < gap <= tol

    def test_huge_radius_is_finite(self):
        # (1/2) log(1 + r^2) is log r here: r^2 would overflow
        result = lower_bound_interval(PlaceSet.parse("inf,2"), 1e200)
        assert result.value == pytest.approx(HALF_LOG2 + 0.5 * nonarch_term(2), abs=1e-15)

    @pytest.mark.parametrize("r", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_radius(self, r):
        with pytest.raises(ValueError):
            lower_bound_interval(PlaceSet.parse("inf"), r)

    def test_strictly_decreasing_in_r(self):
        values = [lower_bound_interval(PlaceSet.parse("inf"), r).value
                  for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_archimedean_term_matches_equilibrium_module(self):
        for r in (0.5, 2.0, 5.0):
            result = lower_bound_interval(PlaceSet.parse("inf"), r)
            assert result.base_value == pytest.approx(
                0.5 * analytic_energy(Interval(r)), abs=1e-9)
        quad = energy(Interval(2.0), tol=1e-8)
        assert lower_bound_interval(PlaceSet.parse("inf"), 2.0).value == pytest.approx(
            0.5 * quad.value, abs=1e-5)


class TestCensuses:
    def test_single_place_beaters(self):
        assert single_place_beaters() == (2, 3, 5, 7, 11, 13)

    def test_pair_count_is_82(self):
        census = count_beating_pairs()
        assert census.count == 82
        assert len(census.pairs) == 82
        assert all(13 < p < q <= census.cutoff_prime for p, q in census.pairs)
        for p, q in census.pairs:
            assert 0.25 + 0.5 * (nonarch_term(p) + nonarch_term(q)) > HALF_LOG2

    def test_walks_stop_inside_their_sieve_ranges(self, monkeypatch):
        # each census walks a fixed sieve range and stops inside it (the pair
        # cutoff at 199); a range cut short of the stop raises, it does not
        # return a short census
        assert count_beating_pairs().cutoff_prime == 199
        sieve = bounds.prime_range
        monkeypatch.setattr(bounds, "prime_range", lambda lo, hi: sieve(lo, min(hi, 200)))
        assert single_place_beaters() == (2, 3, 5, 7, 11, 13)
        with pytest.raises(ArithmeticError):
            count_beating_pairs()
        monkeypatch.setattr(bounds, "prime_range", lambda lo, hi: sieve(lo, min(hi, 17)))
        with pytest.raises(ArithmeticError):
            single_place_beaters()

    def test_census_csv_has_witness_rows(self):
        census = count_beating_pairs()
        lines = census.to_csv().strip().splitlines()
        assert lines[0] == "p,q,bound"
        assert len(lines) == 83

    def test_small_primes_always_beat_in_pairs(self):
        for p in (2, 3, 5, 7, 11, 13):
            for q in (101, 1009, 99991):
                if p == q:
                    continue
                pair = PlaceSet(False, tuple(sorted((p, q))))
                assert lower_bound(pair).beats_elementary

    def test_infinity_plus_any_prime_beats(self):
        for p in (2, 17, 9973):
            assert lower_bound(PlaceSet(True, (p,))).beats_elementary


class TestChebyshevIntegral:
    def test_value(self):
        result = chebyshev_limit_integral()
        assert result.value == pytest.approx(0.481212, abs=1.5e-6)
        assert result.est_error <= 1e-6

    def test_exceeds_interval_bound(self):
        bound = lower_bound_interval(PlaceSet.parse("inf"), 2.0).value
        assert chebyshev_limit_integral().value > bound

    def test_coincides_with_green_value(self):
        # numerical observation, recorded rather than derived here: the
        # equidistribution integral agrees with the Green function of [-2,2] at i
        assert chebyshev_limit_integral().value == pytest.approx(
            green_interval(1j, 2.0), abs=1e-6)
