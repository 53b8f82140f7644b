import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coulombwf.numeval import horner, laurent_run
from coulombwf.ratpoly import RatPoly, ZeroDenominator
from refvals import (
    float_horner,
    fraction_mul,
    fraction_scale_arg,
    laurent_mul as mul,
    poly_add as add,
    poly_from_terms as P,
    poly_sub as sub,
)

F = Fraction


def exact(p, x):
    """p at the rational x, in exact arithmetic."""
    return horner(laurent_run(p, F), F(x))


# -- strategies ---------------------------------------------------------------

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
nonzero_rationals = rationals.filter(lambda q: q != 0)


@st.composite
def polys(draw):
    low = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(rationals, min_size=0, max_size=5))
    return RatPoly(low, tuple(coeffs))


# numerators and denominators far beyond one machine word, with zeros inside
big_rationals = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**25)))


@st.composite
def big_polys(draw):
    low = draw(st.integers(-6, 6))
    coeffs = draw(st.lists(big_rationals, min_size=0, max_size=8))
    return RatPoly(low, tuple(coeffs))


# -- basic operations ----------------------------------------------------------

# the package adds no polynomials and multiplies them only by scalars; the
# sums and products below are the tests' reference sum and convolution

def test_mul_identity():
    p = P({-2: F(3, 7), 0: 5, 3: -1})
    assert mul(p, RatPoly(0, (1,))) == p
    assert p * 1 == 1 * p == p * F(1) == p


def test_derivative_power():
    assert P({2: 1}).derivative() == P({1: 2})


def test_derivative_negative_power():
    assert P({-1: 1}).derivative() == P({-2: -1})


def test_derivative_constant():
    assert P({0: 17}).derivative().is_zero()


def test_eval_root():
    assert exact(P({0: 1, 1: -1}), 1) == 0


def test_eval_hand_value():
    # 2 + x + x^2 at x = 2
    assert exact(P({0: 2, 1: 1, 2: 1}), 2) == 8


def test_eval_negative_power():
    assert exact(P({-1: 1}), F(1, 2)) == 2


def test_eval_zero_with_negative_power_raises():
    with pytest.raises(ZeroDenominator):
        exact(P({-1: 1}), 0)


def test_ratio_terms_requires_a_nonzero_scale():
    for p in (P({-1: 1}), P({1: 1})):
        with pytest.raises(ZeroDenominator):
            list(p.ratio_terms(0))


def test_normalization_trims_zeros():
    p = RatPoly(-2, (F(0), F(1), F(0), F(0)))
    assert p.low == -1 and p.coeffs == (F(1),)
    assert RatPoly(3, (F(0), F(0))).is_zero()


def test_shift_and_ratio_terms():
    p = P({0: 1, 1: 1})          # 1 + x
    assert p.shift(-2) == P({-2: 1, -1: 1})
    assert list(p.ratio_terms(F(2, 3))) == [(0, 1, 1), (1, 2, 3)]
    assert list(P({-1: 1}).ratio_terms(F(1, 2))) == [(-1, 2, 1)]


# -- algebraic properties --------------------------------------------------------

@given(polys(), polys())
def test_derivative_product_rule(p, q):
    lhs = mul(p, q).derivative()
    rhs = add(mul(p.derivative(), q), mul(p, q.derivative()))
    assert lhs == rhs


@given(polys(), polys(), nonzero_rationals)
def test_eval_is_ring_homomorphism(p, q, x):
    assert exact(mul(p, q), x) == exact(p, x) * exact(q, x)
    assert exact(add(p, q), x) == exact(p, x) + exact(q, x)


@given(polys(), polys())
def test_results_stay_reduced(p, q):
    for poly in (add(p, q), mul(p, q), p.derivative()):
        for _, c in poly.terms():
            assert math.gcd(abs(c.numerator), c.denominator) == 1
            assert c.denominator >= 1


@given(big_polys())
def test_ratio_terms_are_the_reduced_nonzero_coefficients(p):
    expected = [(p.low + i, c.numerator, c.denominator) for i, c in enumerate(p.coeffs) if c]
    assert list(p.ratio_terms()) == expected
    assert list(p.terms()) == [(k, F(num, den)) for k, num, den in expected]
    assert all(math.gcd(num, den) == 1 and den > 0 for _, num, den in p.ratio_terms())


@given(big_polys(), st.integers(1, 10**30))
def test_from_nums_is_the_canonical_polynomial(p, den):
    # numerators with a common factor and zeros at both ends
    q = RatPoly.from_nums(p.low - 1, [0] + [x * 6 for x in p.nums] + [0, 0], p.den * den * 6)
    assert q == RatPoly(p.low, tuple(c / den for c in p.coeffs))
    assert math.gcd(q.den, *q.nums) == 1


def test_from_nums_rejects_inexact_or_nonpositive_denominators():
    with pytest.raises(TypeError):
        RatPoly.from_nums(0, [1, 0.5])
    with pytest.raises(TypeError):
        RatPoly.from_nums(0, [1, 2], F(1, 2))
    with pytest.raises(ValueError):
        RatPoly.from_nums(0, [1, 2], 0)
    with pytest.raises(ValueError):
        RatPoly.from_nums(0, [1, 2], -3)


@given(polys())
def test_normalized_representation(p):
    if not p.is_zero():
        assert p.coeffs[0] != 0
        assert p.coeffs[-1] != 0
        assert p.degree - p.low + 1 == len(p.coeffs)
    else:
        assert p.low == 0 and p.coeffs == ()


# -- the common-denominator representation ----------------------------------------

def _assert_canonical(p):
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(x, int) for x in p.nums)
    if p.is_zero():
        assert (p.low, p.nums, p.den) == (0, (), 1)
    else:
        assert p.nums[0] != 0 and p.nums[-1] != 0
        assert math.gcd(p.den, *p.nums) == 1


def test_representation_example():
    p = RatPoly(-1, (F(1, 2), F(0), F(3)))
    assert (p.low, p.nums, p.den) == (-1, (1, 0, 6), 2)
    assert p.coeffs == (F(1, 2), F(0), F(3))


@given(big_polys(), big_polys(), nonzero_rationals)
def test_every_result_is_canonical(p, q, c):
    for poly in (p, q, add(p, q), sub(p, q), p * -1, mul(p, q), p * c, p.derivative(), p.shift(-3),
                 add(p, RatPoly(0, (c,))), sub(RatPoly(0, (c,)), p), sub(p, p), p * 0):
        _assert_canonical(poly)


@given(big_polys(), big_polys())
def test_equal_polynomials_compare_and_hash_equal(p, q):
    pq = mul(p, q)
    built = [pq, mul(q, p), fraction_mul(p, q),
             P(dict(pq.terms())),
             RatPoly(pq.low, pq.coeffs),
             sub(add(pq, p), p)]
    assert all(b == built[0] for b in built)
    assert len({hash(b) for b in built}) == 1
    assert len(set(built)) == 1


def test_zero_is_unique():
    zeros = [RatPoly.zero(), RatPoly(5, (F(0), 0)), RatPoly(-2, ()), P({}),
             P({3: F(0)}), RatPoly(4, (0,)), RatPoly(0, (7,)).derivative(),
             sub(P({1: F(1, 3)}), P({1: F(2, 6)})), P({-1: 5}) * 0]
    for z in zeros:
        assert (z.low, z.nums, z.den) == (0, (), 1)
    assert len(set(zeros)) == 1


@given(big_polys(), st.one_of(nonzero_rationals, big_rationals.filter(lambda c: c != 0)))
def test_ratio_terms_match_fraction_reference(p, c):
    for scale in (c, -c):
        want = fraction_scale_arg(p, scale)
        # ratio_terms(c) yields the reduced terms of p(c x) straight from p
        assert list(p.ratio_terms(scale)) == [(k, a.numerator, a.denominator) for k, a in want.terms()]


def test_ratio_terms_negative_c_and_negative_powers():
    p = P({-3: F(2, 5), -1: -7, 0: F(1, 3), 2: F(9, 4)})
    for c in (F(-2, 3), F(-5), F(3, -7), F(1, 2), -1):
        want = fraction_scale_arg(p, F(c))
        assert list(p.ratio_terms(c)) == list(want.ratio_terms())
    assert list(P({-1: 1}).ratio_terms(F(-1, 2))) == [(-1, -2, 1)]


@given(big_polys(), st.floats(-60.0, 60.0, allow_nan=False).filter(lambda x: x != 0.0))
def test_horner_of_laurent_run_bit_identical_to_fraction_horner(p, x):
    assert repr(horner(laurent_run(p), x)) == repr(float_horner(p, x))


@given(big_polys())
def test_pickle_and_copy_round_trip(p):
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert type(clone) is RatPoly
        assert clone == p and hash(clone) == hash(p)
        assert (clone.low, clone.nums, clone.den) == (p.low, p.nums, p.den)


def test_instances_are_immutable():
    p = P({0: 1, 2: F(1, 3)})
    with pytest.raises(AttributeError):
        p.den = 1
    with pytest.raises(AttributeError):
        del p.nums
    assert p == P({0: 1, 2: F(1, 3)})


def test_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        RatPoly(0, (0.5,))
    with pytest.raises(TypeError):
        P({0: 1}) * 0.5
    with pytest.raises(TypeError):
        P({0: 1}) * P({1: 1})


def test_sum_and_difference_take_only_polynomials():
    # the package never adds two polynomials, so RatPoly has no sum,
    # difference or negation at all
    for operands in ((P({0: 1}), 1), (F(1, 2), P({0: 1})), (P({0: 1}), P({1: 1}))):
        with pytest.raises(TypeError):
            operands[0] + operands[1]
        with pytest.raises(TypeError):
            operands[0] - operands[1]
    with pytest.raises(TypeError):
        -P({0: 1})
