"""Invariants of the mathematics, checked on random polynomials.

Inputs are primitive squarefree polynomials of degree 1-20 with coefficients
in [-50, 50] and a nonzero constant term (so no root sits at 0 or infinity).
The profile is derandomized, so every run checks the same examples.
"""
import math

import mpmath
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from arakelov.heights import HALF_LOG2, arakelov_height, height_report
from arakelov.polynomials import (NotSquarefreeError, PrimitivePolynomial,
                                  is_cyclotomic, parse_polynomial, reverse)
from arakelov import roots
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


def _assert_one_root_per_disk(certified, exact):
    for w in exact:
        inside = sum(abs(w - mpmath.mpc(z)) <= r
                     for z, r in zip(certified.roots, certified.radii))
        assert inside == 1


@PROFILE
@given(polynomials())
def test_every_root_in_exactly_one_certified_disk(f):
    certified = complex_roots(f)
    with mpmath.workdps(30):
        exact = mpmath.polyroots(f.coeffs[::-1], maxsteps=200, extraprec=60)
        _assert_one_root_per_disk(certified, exact)


def _exact_rung_only(f, tol):
    """complex_roots with no double-precision radius: the double kernel still
    steps, so the exact rung starts from double centres, but certifies alone."""
    double_step = roots._double_step

    def uncertified(coeffs):
        step_at = double_step(coeffs)
        return lambda z: (math.inf, step_at(z)[1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "_double_step", uncertified)
        return complex_roots(f, tol)


def _scaled(f, e):
    """The polynomial whose roots are those of f times 10^e."""
    d = f.degree
    if e >= 0:
        return PrimitivePolynomial.from_coeffs(
            [a * 10 ** (e * (d - k)) for k, a in enumerate(f.coeffs)])
    return PrimitivePolynomial.from_coeffs([a * 10 ** (-e * k) for k, a in enumerate(f.coeffs)])


@PROFILE
@given(polynomials(), st.sampled_from([0, 100, -100]))
@example(parse_polynomial(f"{10 ** 40}x^2 - 1"), 0)
def test_exact_rung_alone_is_sound(f, e):
    # roots near 10^e: tol is relative above 1, so the double centres can meet it
    certified = _exact_rung_only(_scaled(f, e), tol=1e-9 * 10.0 ** max(e, 0))
    with mpmath.workdps(40):
        exact = mpmath.polyroots(f.coeffs[::-1], maxsteps=200, extraprec=80)
        _assert_one_root_per_disk(certified, [w * mpmath.mpf(10) ** e for w in exact])


def test_exact_rung_below_the_squared_float_range():
    # roots +-1e-200: |f/f'|^2 at a double centre is below 2^-1074, the
    # smallest subnormal, so it must be scaled before the quotient rounds
    certified = _exact_rung_only(parse_polynomial(f"{10 ** 400}x^2 - 1"), tol=1e-12)
    assert 0.0 < certified.max_radius() < 2 * 2.0 ** -537
    with mpmath.workdps(40):
        _assert_one_root_per_disk(certified, [-mpmath.mpf(10) ** -200, mpmath.mpf(10) ** -200])


def test_exact_radius_covers_its_final_rounding():
    # root 2^60 + 1/3, centre 2^60 (its nearest double): at degree 1 the radius
    # d |f/f'| is the exact distance 1/3, and the rounded quotient and square
    # root land below it, so only the final rounding factor keeps the root inside
    f = parse_polynomial(f"3x - {3 * 2 ** 60 + 1}")
    certified = complex_roots(f, tol=0.5)
    assert certified.roots == (complex(2.0 ** 60),)
    with mpmath.workdps(40):
        _assert_one_root_per_disk(certified, [mpmath.mpf(2) ** 60 + mpmath.mpf(1) / 3])


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
