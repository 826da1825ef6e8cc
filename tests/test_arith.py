"""The exact F_p kernel and prime helpers, checked against sympy and brute force."""
import math
import random
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from arakelov import arith
from arakelov.arith import (_split_roots, euler_phi, factor_positive, fp_gcd,
                            fp_mul, fp_roots, fp_trim, prime_range)
from arakelov.bounds import PlaceSet, nonarch_term
from arakelov.heights import Place
from arakelov.padic import newton_polygon, p_adic_root_count
from arakelov.polynomials import (_RESULTANT_BITS, _SQUAREFREE_PRIME, NotSquarefreeError,
                                  PrimitivePolynomial, _is_squarefree, _resultant_int,
                                  discriminant, parse_polynomial)

from test_polynomials import X, random_polys

P61 = _SQUAREFREE_PRIME


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def _brute_roots(f, p):
    return [x for x in range(p) if sum(c * x**k for k, c in enumerate(f)) % p == 0]


def _sparse_pairs(seed, count):
    # 2-3 nonzero terms of degree 3-14, deg f >= deg g
    rng = random.Random(seed)

    def sparse():
        d = rng.randint(3, 14)
        c = [0] * (d + 1)
        c[d] = rng.choice([1, -1, 2, -3, 5])
        for k in rng.sample(range(d), rng.randint(1, 2)):
            c[k] = rng.randint(-9, 9) or 1
        return tuple(c)

    pairs = []
    while len(pairs) < count:
        f, g = sparse(), sparse()
        pairs.append((f, g) if len(f) >= len(g) else (g, f))
    return pairs


def _skips_a_degree(f, g):
    """True when the remainder sequence of f, g drops two or more degrees after its first step."""
    a, b = _sympy_poly(f).to_field(), _sympy_poly(g).to_field()
    while True:
        r = a.rem(b)
        if r.is_zero:
            return False
        if b.degree() - r.degree() >= 2:
            return True
        a, b = b, r


class TestResultant:
    def test_matches_sympy_exactly(self):
        polys = random_polys(seed=211, count=40)
        pairs = [(f.coeffs, f.derivative_coeffs()) for f in polys]
        # sympy.resultant returns Res(g, f), not the Sylvester determinant
        # Res(f, g), when deg f < deg g; compare with deg f >= deg g only
        pairs += [(f.coeffs, g.coeffs) if f.degree >= g.degree else (g.coeffs, f.coeffs)
                  for f, g in zip(polys, polys[1:])]
        for f, g in pairs:
            expected = int(sympy.resultant(_sympy_poly(f), _sympy_poly(g)))
            assert _resultant_int(f, g) == expected, (f, g)
            # Res(g, f) = (-1)^(deg f deg g) Res(f, g)
            assert _resultant_int(g, f) == (-1) ** ((len(f) - 1) * (len(g) - 1)) * expected

    def test_sequences_that_skip_degrees_match_sympy(self):
        pairs = _sparse_pairs(seed=233, count=1200)
        assert sum(_skips_a_degree(f, g) for f, g in pairs[:200]) >= 40
        for f, g in pairs:
            expected = int(sympy.resultant(_sympy_poly(f), _sympy_poly(g)))
            assert _resultant_int(f, g) == expected, (f, g)

    def test_closed_form_of_x_to_the_n_plus_a(self):
        # disc(x^n + a) = (-1)^(n(n-1)/2) n^n a^(n-1)
        n, a = 400, -2
        f = PrimitivePolynomial((a,) + (0,) * (n - 1) + (1,))
        assert discriminant(f) == (-1) ** (n * (n - 1) // 2) * n**n * a ** (n - 1)

    def test_out_of_reach_refuses_without_work(self):
        # a Hadamard bound beyond the bit budget is refused at once, as an
        # ArithmeticError (exit 3 in the CLI), not a RuntimeError
        f = (1, 0, 10**400, 1)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match=f"beyond the {_RESULTANT_BITS}-bit budget"):
            _resultant_int(f, (10**5000, 1))
        assert time.perf_counter() - start < 0.1

    def test_budget_splits_at_24800_bits(self):
        # Res(x^2 + N, 2x) = 4N; the Hadamard bound is 18(N + 1) + 1
        assert _RESULTANT_BITS == 24800
        below, at = 2**24794, 2**24795
        assert (18 * (below + 1) + 1).bit_length() == 24799
        assert _resultant_int((below, 0, 1), (0, 2)) == 4 * below
        with pytest.raises(ArithmeticError, match="may need 24800 bits"):
            _resultant_int((at, 0, 1), (0, 2))


class TestGcd:
    def test_degree_agrees_with_squarefree_verdict(self):
        inputs = [f.coeffs for f in random_polys(seed=223, count=40, max_degree=6)]
        # plant a repeated factor (x - a)^2 in a copy of each input
        for f, a in zip(list(inputs), range(-20, 20)):
            inputs.append(tuple(_sympy_poly(f).mul(sympy.Poly((X - a) ** 2, X))
                                .all_coeffs()[::-1]))
        squarefree = 0
        for f in inputs:
            if len(f) < 3:
                continue
            fp = [k * c for k, c in enumerate(f) if k >= 1]
            degree = len(fp_gcd(fp_trim(f, P61), fp_trim(fp, P61), P61)) - 1
            assert (degree == 0) == _is_squarefree(f), f
            squarefree += degree == 0
        assert 0 < squarefree < len(inputs) - 20

    @pytest.mark.parametrize("coeffs", [
        (-P61, 0, 1),  # x^2 - p: p divides the discriminant
        (1, 1, P61),  # p x^2 + x + 1: p divides the leading coefficient
        (1, -2 * P61, P61**2),  # (p x - 1)^2
    ])
    def test_fallback_past_the_fixed_prime(self, coeffs):
        # the certificate mod p fails on each, so the exact resultant decides
        fp = [k * c for k, c in enumerate(coeffs) if k >= 1]
        assert coeffs[-1] % P61 == 0 or len(fp_gcd(fp_trim(coeffs, P61),
                                                   fp_trim(fp, P61), P61)) > 1
        squarefree = _sympy_poly(coeffs).gcd(_sympy_poly(fp)).degree() == 0
        assert _is_squarefree(coeffs) == squarefree
        if squarefree:
            PrimitivePolynomial(coeffs)
        else:
            with pytest.raises(NotSquarefreeError):
                PrimitivePolynomial(coeffs)


class TestRoots:
    def test_planted_roots_at_a_large_prime(self):
        p = 1000003
        n = next(n for n in range(2, p) if sympy.legendre_symbol(n, p) == -1)
        rng = random.Random(227)
        for _ in range(10):
            planted = sorted(rng.sample(range(p), rng.randint(1, 6)))
            f = [-n % p, 0, 1]  # x^2 - n has no root mod p
            for r in planted:
                f = fp_mul(f, [-r % p, 1], p)
            assert fp_roots(f, p) == planted

    def test_split_path_matches_brute_force_at_7(self):
        p = 7
        rng = random.Random(229)
        for _ in range(300):
            d = rng.randint(1, 8)
            f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
            assert sorted(_split_roots(fp_trim(f, p), p)) == _brute_roots(f, p), f


class TestPrimes:
    @pytest.mark.parametrize("bad", [-7, 0, 1, 4, 9])
    def test_every_prime_check_gives_one_error(self, bad):
        f = parse_polynomial("x^2 - 2")
        for call in (Place.finite, nonarch_term,
                     lambda p: PlaceSet(False, (p,)),
                     lambda p: newton_polygon(f, p),
                     lambda p: p_adic_root_count(f, p)):
            with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
                call(bad)

    @pytest.mark.parametrize("lo,hi", [(0, 0), (0, 3), (2, 3), (-5, 20), (17, 300),
                                       (9990, 10010), (11001, 20000)])
    def test_prime_range(self, lo, hi):
        assert prime_range(lo, hi) == list(sympy.primerange(lo, hi))

    @pytest.mark.parametrize("n", [1, 2, 720, 9973 * 9967, 10007 * 10009 * 4,
                                   2**61 - 1, (2**31 - 1) * (2**61 - 1)])
    def test_factor_positive(self, n):
        factors, cofactor = factor_positive(n)
        assert cofactor == 1
        assert all(sympy.isprime(p) for p in factors)
        assert factors == {p: e for p, e in sympy.factorint(n).items()}


def _factorint(n):
    return {int(p): e for p, e in sympy.factorint(n).items()}


_prime = st.integers(2**19, 2**50).map(lambda n: int(sympy.nextprime(n)))


class TestFactoring:
    """The in-module splitter against sympy.factorint as the oracle."""

    # the five discriminants among the first 3000 of the itemized pool (pool
    # seed 0) that took sympy.factorint longest, 1.1-2.6 s each; primes whose
    # product is n are, by unique factorization, what factorint returns
    @pytest.mark.parametrize("n", [1241646162374866624250749864996,
                                   116085659972683497648744364,
                                   408369216565833439492681,
                                   310292783510828661615768,
                                   2078311362005814116483140039])
    def test_slowest_pool_discriminants(self, n):
        factors, cofactor = factor_positive(n)
        assert cofactor == 1
        assert all(sympy.isprime(p) for p in factors)
        assert math.prod(p ** e for p, e in factors.items()) == n

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(st.lists(_prime, min_size=2, max_size=3),
           st.sampled_from(["distinct", "p^2 q", "p^3"]))
    def test_products_of_20_to_50_bit_primes(self, primes, shape):
        if shape == "p^2 q":
            primes = [primes[0], primes[0], primes[1]]
        elif shape == "p^3":
            primes = [primes[0]] * 3
        n = math.prod(primes)
        assert factor_positive(n) == (_factorint(n), 1)

    def test_budget_leaves_a_cofactor(self):
        # two 100-bit primes: too large for rho, out of reach of the ECM budget
        p, q = sympy.nextprime(2**99 + 12345), sympy.nextprime(2**100 - 999)
        start = time.perf_counter()
        assert factor_positive(4 * 9973 * p * q) == ({2: 2, 9973: 1}, p * q)
        assert time.perf_counter() - start < 10.0

    def test_large_parts_stay_whole(self):
        # rho and ECM only split parts of at most 256 bits, and a part above
        # 2048 bits, here the Mersenne prime 2^2203 - 1, is not even tested
        p, q = sympy.nextprime(2**150), sympy.nextprime(2**151)
        mersenne = 2**2203 - 1
        start = time.perf_counter()
        assert factor_positive(12 * p * q) == ({2: 2, 3: 1}, p * q)
        assert factor_positive(3 * mersenne) == ({3: 1}, mersenne)
        assert time.perf_counter() - start < 1.0

    def test_euler_phi_refuses_a_cofactor(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_STEPS", 0)
        monkeypatch.setattr(arith, "_ECM_SCHEDULE", ())
        n = 1000003 * 1000033
        with pytest.raises(ArithmeticError, match=f"could not factor {n}"):
            euler_phi(n)
