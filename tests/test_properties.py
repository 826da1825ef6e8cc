"""Invariants of the mathematics, checked on random polynomials.

Inputs are primitive squarefree polynomials of degree 1-20 with coefficients
in [-50, 50] and a nonzero constant term (so no root sits at 0 or infinity).
The profile is derandomized, so every run checks the same examples.
"""
import math

import mpmath
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from arakelov.heights import HALF_LOG2, arakelov_height, height_report
from arakelov.polynomials import (NotSquarefreeError, PrimitivePolynomial,
                                  is_cyclotomic, parse_polynomial, reverse)
from arakelov.roots import complex_roots

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.filter_too_much,
                                          HealthCheck.too_slow])

_coefficients = st.integers(1, 20).flatmap(
    lambda d: st.lists(st.integers(-50, 50), min_size=d + 1, max_size=d + 1))


@st.composite
def polynomials(draw):
    raw = draw(_coefficients)
    assume(raw[0] != 0 and raw[-1] != 0)
    try:
        return PrimitivePolynomial.from_coeffs(raw)
    except NotSquarefreeError:
        assume(False)


@PROFILE
@given(polynomials())
def test_every_root_in_exactly_one_certified_disk(f):
    certified = complex_roots(f)
    with mpmath.workdps(30):
        exact = mpmath.polyroots(f.coeffs[::-1], maxsteps=200, extraprec=60)
        for w in exact:
            inside = sum(abs(w - mpmath.mpc(z)) <= r
                         for z, r in zip(certified.roots, certified.radii))
            assert inside == 1


@PROFILE
@given(polynomials())
def test_height_is_inversion_invariant(f):
    assert math.isclose(arakelov_height(f), arakelov_height(reverse(f)),
                        rel_tol=0.0, abs_tol=1e-12)


@PROFILE
@given(polynomials())
@example(parse_polynomial("x^2 + x + 1"))
@example(parse_polynomial("x^4 + 1"))
@example(parse_polynomial("x^3 + x^2 + x + 1"))  # (x + 1)(x^2 + 1)
def test_lower_bound_with_equality_only_at_roots_of_unity(f):
    h = arakelov_height(f)
    assert h >= HALF_LOG2 - 1e-12
    if abs(h - HALF_LOG2) <= 1e-12:
        assert is_cyclotomic(f)


@PROFILE
@given(polynomials())
def test_crosscheck_residual(f):
    assume(f.degree >= 2)
    assert height_report(f, itemize_finite=False).crosscheck_residual <= 1e-9


@PROFILE
@given(polynomials())
def test_text_round_trip(f):
    assert parse_polynomial(str(f)) == f
