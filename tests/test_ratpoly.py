from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coulombwf.ratpoly import (
    RatPoly,
    ZeroDenominator,
    factorial,
    pochhammer,
)

F = Fraction


def P(terms):
    return RatPoly.from_terms(terms)


# -- strategies ---------------------------------------------------------------

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
nonzero_rationals = rationals.filter(lambda q: q != 0)


@st.composite
def polys(draw):
    low = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(rationals, min_size=0, max_size=5))
    return RatPoly(low, tuple(coeffs))


# -- basic operations ----------------------------------------------------------

def test_add_additive_inverse():
    assert (P({0: 1, 1: 1}) + P({0: -1, 1: -1})).is_zero()


def test_add_disjoint_supports():
    assert P({0: 2, 1: 1}) + P({2: 3}) == P({0: 2, 1: 1, 2: 3})


def test_add_laurent_union():
    assert P({-1: 1}) + P({1: 1}) == P({-1: 1, 1: 1})


def test_mul_difference_of_squares():
    assert P({0: 1, 1: -1}) * P({0: 1, 1: 1}) == P({0: 1, 2: -1})


def test_mul_identity():
    p = P({-2: F(3, 7), 0: 5, 3: -1})
    assert p * RatPoly.one() == p


def test_mul_laurent_exponents_add():
    assert P({-1: 1}) * P({2: 1}) == P({1: 1})


def test_derivative_power():
    assert P({2: 1}).derivative() == P({1: 2})


def test_derivative_negative_power():
    assert P({-1: 1}).derivative() == P({-2: -1})


def test_derivative_constant():
    assert P({0: 17}).derivative().is_zero()


def test_eval_root():
    assert P({0: 1, 1: -1}).eval_rational(1) == 0


def test_eval_hand_value():
    # 2 + x + x^2 at x = 2
    assert P({0: 2, 1: 1, 2: 1}).eval_rational(2) == 8


def test_eval_negative_power():
    assert P({-1: 1}).eval_rational(F(1, 2)) == 2


def test_eval_zero_with_negative_power_raises():
    with pytest.raises(ZeroDenominator):
        P({-1: 1}).eval_rational(0)


def test_scale_arg_requires_nonzero():
    with pytest.raises(ZeroDenominator):
        P({-1: 1}).scale_arg(0)


def test_normalization_trims_zeros():
    p = RatPoly(-2, (F(0), F(1), F(0), F(0)))
    assert p.low == -1 and p.coeffs == (F(1),)
    assert RatPoly(3, (F(0), F(0))).is_zero()


def test_shift_and_scale_arg():
    p = P({0: 1, 1: 1})          # 1 + x
    assert p.shift(-2) == P({-2: 1, -1: 1})
    assert p.scale_arg(F(2, 3)) == P({0: 1, 1: F(2, 3)})
    assert P({-1: 1}).scale_arg(F(1, 2)) == P({-1: 2})


# -- factorial / pochhammer -----------------------------------------------------

def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000
    with pytest.raises(ValueError):
        factorial(-1)


def test_pochhammer_values():
    assert pochhammer(-3, 2) == 6
    assert pochhammer(7, 0) == 1
    assert pochhammer(-2, 3) == 0
    assert pochhammer(3, 3) == 60
    with pytest.raises(ValueError):
        pochhammer(1, -1)


# -- algebraic properties --------------------------------------------------------

@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(polys(), polys(), nonzero_rationals)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p * q).eval_rational(x) == p.eval_rational(x) * q.eval_rational(x)
    assert (p + q).eval_rational(x) == p.eval_rational(x) + q.eval_rational(x)


@given(polys(), polys())
def test_results_stay_reduced(p, q):
    for poly in (p + q, p * q, p.derivative()):
        for _, c in poly.terms():
            import math
            assert math.gcd(abs(c.numerator), c.denominator) == 1
            assert c.denominator >= 1


@given(polys())
def test_normalized_representation(p):
    if not p.is_zero():
        assert p.coeffs[0] != 0
        assert p.coeffs[-1] != 0
        assert p.degree - p.low + 1 == len(p.coeffs)
    else:
        assert p.low == 0 and p.coeffs == ()
