import functools
import math
import operator
import random
import struct
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from coulombwf.closedform import QuantumNumbers, Radial, assemble_R1, assemble_R2, derivative
from coulombwf.ratpoly import RatPoly, ZeroDenominator
from coulombwf.numeval import (
    EULER_GAMMA,
    DomainError,
    OverflowSignal,
    _EPS,
    _asymptotic_sum,
    _ei_series,
    ei_with_error,
    eval_form_extended,
    eval_grid,
    evaluator,
    envelope,
    float_runs,
    horner,
    laurent_run,
)

import refvals
from refvals import ei_pv_reference, ei_zero_by_bisection


# -- exponential integral ---------------------------------------------------------

def test_ei_frozen_value():
    # blessed value from the defining-integral quadrature (refvals.ei_pv_reference)
    assert ei_with_error(1.0)[0] == pytest.approx(-1.8951178163559368, rel=1e-14)


@pytest.mark.parametrize("x", [1e-4, 0.1, 1.0, 5.0, 39.0, 41.0, 100.0, 500.0])
def test_ei_against_defining_integral(x):
    ref = float(ei_pv_reference(x))
    value, abs_err = ei_with_error(x)
    assert value == pytest.approx(ref, rel=1e-12)
    assert abs_err >= 0.0


def test_ei_small_x_log_divergence():
    # diverges as -(gamma + ln x); at x = 1e-8 the series' own linear term
    # is exactly the 1e-8 gap, and everything past it is < 1e-16
    x = 1e-8
    got = ei_with_error(x)[0]
    assert got == pytest.approx(-(EULER_GAMMA + math.log(x)), abs=2e-8)
    assert got == pytest.approx(-(EULER_GAMMA + math.log(x) + x), abs=1e-10)


def test_ei_branch_agreement_on_crossover_band():
    for x in [35.0 + k for k in range(11)]:
        s, _ = _ei_series(x, math.log(x))
        a = -math.exp(x) / x * _asymptotic_sum(x)[0]
        assert abs(s - a) / abs(a) < 1e-11
        assert ei_with_error(x)[0] == (s if x <= 40.0 else a)


def test_ei_zero_bracketed():
    zero = ei_zero_by_bisection(0.37, 0.38, tol=1e-10)
    assert 0.37 < zero < 0.38
    assert ei_with_error(0.37)[0] > 0 > ei_with_error(0.38)[0]
    assert ei_with_error(zero)[0] == pytest.approx(0.0, abs=1e-9)


def test_ei_negative_beyond_zero():
    for x in [0.4, 1.0, 7.0, 50.0, 300.0, 700.0]:
        assert ei_with_error(x)[0] < 0


def test_ei_domain_and_overflow():
    with pytest.raises(DomainError):
        ei_with_error(0.0)
    with pytest.raises(DomainError):
        ei_with_error(-3.0)
    with pytest.raises(OverflowSignal, match=r"^Ei\(1, -x\) overflows double precision at x=720\.0$"):
        ei_with_error(720.0)
    # 708.0 is the last argument in range, and the next double is not
    assert math.isfinite(ei_with_error(708.0)[0])
    with pytest.raises(OverflowSignal):
        ei_with_error(math.nextafter(708.0, math.inf))


def test_ei_estimate_bounds_the_error_through_its_zero():
    # near the zero at x ~ 0.3725 the series sums terms of size |ln x| to a
    # value near 0, so a relative estimate alone underestimates there; the
    # absolute floor keeps every point of the sweep covered
    with mpmath.workprec(200):
        for i in range(7001):
            x = 0.30 + 0.15 * i / 7000
            value, abs_err = ei_with_error(x)
            err = abs(mpmath.mpf(value) + mpmath.ei(x))
            assert err <= abs_err, x


def test_ei_series_counts_at_least_four_terms_of_rounding():
    # at x = 1e-12 the second term is already below 1e-18 of the sum, so the
    # loop would stop at k = 2; the k > 3 guard runs it to k = 4, and the
    # estimate carries (4 + 4) eps |value| on top of the absolute floor
    x = 1e-12
    value, est = _ei_series(x, math.log(x))
    assert est == 8 * _EPS
    assert ei_with_error(x) == (value, abs(value) * 8 * _EPS + _EPS * (1.0 + abs(math.log(x))))


def _ei_sample() -> list[float]:
    # x log-uniform on [5e-324, 708], a band around the sign change of
    # gamma + ln x near 0.5615, the neighbours of 40.0 (the branch split)
    # and of every integer 1 to 40, and 708.0, the last argument in range
    rng = random.Random(20261019)
    lo, hi = math.log(5e-324), math.log(708.0)
    xs = [math.exp(rng.uniform(lo, hi)) for _ in range(20000)]
    xs += [rng.uniform(0.55, 0.57) for _ in range(3000)]
    for k in range(1, 41):
        xs += [math.nextafter(float(k), 0.0), float(k), math.nextafter(float(k), 99.0)]
    return xs + [5e-324, 708.0]


def test_ei_loops_are_the_integer_counter_loops_bit_for_bit():
    # value, estimate and term count, compared by repr: the sign of a zero
    # and the type of the count included
    for x in _ei_sample():
        assert repr(ei_with_error(x)) == repr(refvals.ei_with_error_loops(x)), x
        if x <= 40.0:
            got, want = _ei_series(x, math.log(x)), refvals.ei_series_loop(x)
        else:
            got, want = _asymptotic_sum(x), refvals.asymptotic_sum_loop(x)
        assert repr(got) == repr(want), x


def test_ei_estimate_bounds_the_error_on_both_branches():
    # log-uniform on [1e-300, 708], and uniform across the branch split
    rng = random.Random(35)
    lo, hi = math.log(1e-300), math.log(708.0)
    xs = [math.exp(rng.uniform(lo, hi)) for _ in range(1500)]
    xs += [rng.uniform(30.0, 50.0) for _ in range(500)]
    with mpmath.workprec(200):
        for x in xs:
            value, abs_err = ei_with_error(x)
            assert abs(mpmath.mpf(value) + mpmath.ei(x)) <= abs_err, x


# -- the one Laurent Horner evaluator --------------------------------------------------

_big_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25)))
_laurent_polys = st.builds(RatPoly, st.integers(-6, 6), st.lists(_big_rationals, max_size=8))
# moderate points, and points where a power of x or of 1/x overflows a double
_horner_points = st.one_of(
    st.floats(-60.0, 60.0).filter(lambda x: x != 0.0),
    st.sampled_from([1e300, -1e300, 1e200, 1e-300, -1e-300, 3.6e-194]))


def _mp_ratio(num: int, den: int):
    return mpmath.mpf(num) / den


def _abs_poly(p: RatPoly) -> RatPoly:
    return RatPoly(p.low, tuple(map(abs, p.coeffs)))


def _exact_sum(p: RatPoly, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in p.terms()), Fraction(0))


def _assert_mp_within_rounding(got, p: RatPoly, x: Fraction) -> None:
    assert type(got) is mpmath.mpf
    want = _exact_sum(p, x)
    bound = _exact_sum(_abs_poly(p), abs(x))
    error = abs(got - _mp_ratio(want.numerator, want.denominator))
    assert error <= mpmath.mpf(2) ** -280 * _mp_ratio(bound.numerator, bound.denominator)


@settings(max_examples=300, deadline=None)
@given(_laurent_polys, _horner_points)
# x^-2 at 3.6e-194 and x^2 at 1e200 overflow to inf: the loop returns inf as
# the reference does, and only eval_grid turns that into an error
@example(RatPoly(-2, (Fraction(1),)), 3.6e-194)
@example(RatPoly(0, (Fraction(1), Fraction(0), Fraction(-3, 7))), 1e200)
def test_one_horner_for_exact_float_and_mpmath_runs(p, x):
    exact_x = Fraction(x)
    # an exact run stays exact: the value is the Fraction sum
    value = horner(laurent_run(p, Fraction), exact_x)
    assert type(value) is Fraction and value == _exact_sum(p, exact_x)
    # a float run is the reference Horner bit for bit, inf and nan included
    assert repr(horner(laurent_run(p), x)) == repr(refvals.float_horner(p, x))
    # an mpmath run stays in extended precision
    with mpmath.workprec(300):
        _assert_mp_within_rounding(horner(laurent_run(p, _mp_ratio), mpmath.mpf(x)), p, exact_x)


@settings(max_examples=300, deadline=None)
@given(_laurent_polys, st.one_of(_horner_points, st.sampled_from([0.0, -0.0])))
# r = 0 with a negative power
@example(RatPoly(-2, (Fraction(1), Fraction(0), Fraction(3))), 0.0)
def test_value_only_loop_is_the_fused_value_bit_for_bit(p, x):
    # the value-only loop over the envelope run gives the envelope a fused
    # loop gives beside the value: the Horner of |p| on exact, float and
    # mpmath scalars; at r = 0 with a negative power the value and the
    # envelope raise alike
    exact_x = Fraction(x)
    with mpmath.workprec(300):
        points = [(Fraction, exact_x), (operator.truediv, x), (_mp_ratio, mpmath.mpf(x))]
        runs = [(laurent_run(p, conv), point) for conv, point in points]
        (exact_run, _), (float_run, _), (mp_run, mp_x) = runs
        if x == 0.0 and p.low < 0:
            for run, point in runs:
                for each in (run, envelope(run)):
                    with pytest.raises(ZeroDenominator, match="^negative powers evaluated at x = 0$"):
                        horner(each, point)
            return
        env = horner(envelope(exact_run), exact_x)
        assert type(env) is Fraction and env == _exact_sum(_abs_poly(p), exact_x)
        # the sign of a zero included
        assert repr(horner(envelope(float_run), x)) == repr(refvals.float_horner(_abs_poly(p), x))
        _assert_mp_within_rounding(horner(envelope(mp_run), mp_x), _abs_poly(p), exact_x)


# -- form evaluation ----------------------------------------------------------------

def test_eval_regular_ground_state():
    f = assemble_R1(QuantumNumbers(1, 0))
    assert eval_grid(f, (2.0,))[0][1] == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_eval_irregular_ground_state_frozen():
    # blessed value from eval_form_extended at 256 bits
    f = assemble_R2(QuantumNumbers(1, 0))
    assert eval_grid(f, (1.0,))[0][1] == pytest.approx(-0.4634200520888131703, rel=1e-13)


def test_eval_irregular_large_r_sign_and_growth():
    # the e^r/(2r) part cancels against the Ei tail, leaving ~ -e^r/(4r^2)
    f = assemble_R2(QuantumNumbers(1, 0))
    got = eval_grid(f, (30.0,))[0][1]
    assert got < 0
    assert got == pytest.approx(-math.exp(30.0) / (4 * 30.0**2), rel=0.1)


def test_eval_domain_error():
    # r <= 0 and r = inf, for R1 and R2 alike
    r2 = assemble_R2(QuantumNumbers(3, 1))
    for f in (Radial(r2.qn, r2.L), r2):
        for r in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError, match=f"^eval_grid requires a finite r > 0, got {r!r}$"):
                eval_grid(f, (r,))


def test_eval_regular_decays_and_is_finite_at_origin():
    for n, l in [(1, 0), (2, 1), (3, 0), (4, 3)]:
        f = assemble_R1(QuantumNumbers(n, l))
        assert abs(eval_grid(f, (400.0,))[0][1]) < 1e-12
        assert abs(eval_grid(f, (1e-9,))[0][1]) < 10.0


def test_eval_irregular_diverges_at_origin():
    for n, l in [(1, 0), (2, 1), (3, 2)]:
        f = assemble_R2(QuantumNumbers(n, l))
        small = abs(eval_grid(f, (1e-4,))[0][1])
        smaller = abs(eval_grid(f, (1e-6,))[0][1])
        assert smaller > small > 1e2


def test_eval_propagates_overflow():
    f = assemble_R2(QuantumNumbers(1, 0))
    with pytest.raises(OverflowSignal):
        eval_grid(f, (500.0,))  # Ei argument 1000 overflows


# -- the grid kernel against the per-point reference ---------------------------------

_WHICH = ("r1", "r1d", "r2", "r2d")


@functools.lru_cache(maxsize=None)
def _forms(n: int, l: int):
    r2 = assemble_R2(QuantumNumbers(n, l))
    r1 = Radial(r2.qn, r2.L)
    return dict(zip(_WHICH, (r1, refvals.derivative_form(r1), r2, refvals.derivative_form(r2))))


def _runs(f) -> list[tuple]:
    """The float runs of f's polynomials in r, L and then P when f has one."""
    return [laurent_run(q) for q in refvals.in_r(f) if q is not None]


def _one_point(f, r) -> tuple[float, float]:
    """(value, est_rel_error) of eval_grid at the one point r."""
    return eval_grid(f, (r,))[0][1:]


def _outcome(fn, f, r):
    """(repr(value), est_rel_error), or the type and text of the exception raised."""
    try:
        value, est = fn(f, r)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(value), est


def _run_width(bucket) -> int:
    """Horner steps of one float run: its powers min(low, 0)..max(degree, -1)."""
    return len(bucket[0]) + len(bucket[1])


@functools.lru_cache(maxsize=None)
def _envelope_bound(f) -> float:
    """Relative rounding bound (2 w + 2) eps of the Horner envelope, w the
    longest run of the form."""
    width = max(_run_width(b) for b in _runs(f))
    return (2 * width + 2) * _EPS


def _assert_same_as_reference(n: int, l: int, which: str, r: float) -> None:
    # the value and any exception are exactly the reference's; the estimate
    # moves only by the rounding of the envelope
    form = _forms(n, l)[which]
    want = _outcome(refvals.eval_form, form, r)
    got = _outcome(_one_point, form, r)
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[0] == want[0]
    if math.isfinite(want[1]):
        assert abs(got[1] - want[1]) <= _envelope_bound(form) * want[1]
    else:
        assert repr(got[1]) == repr(want[1])


_states = st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1)))
# 2 kappa r: the series branch up to 40, the asymptotic branch past it, a band
# around Ei's zero near 0.3725 and kappa r beyond 708 (2 kappa r > 1416)
_ei_args = st.one_of(st.floats(1e-6, 40.0), st.floats(40.0, 1416.0), st.floats(0.36, 0.39),
                     st.floats(1416.0, 4000.0))
# r <= 0 and nan are domain errors, 1e-320 overflows the envelope of every
# form with a negative power
_special_r = st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.nan, math.inf, 1e-320])


def _r_of(n: int, point) -> float:
    kind, v = point
    # 2 kappa r = x with kappa = 1/n
    return v * n / 2 if kind == "x" else v


@settings(max_examples=400, deadline=None)
@given(_states, st.sampled_from(_WHICH), st.one_of(_ei_args.map(lambda x: ("x", x)),
                                                  _special_r.map(lambda r: ("r", r))))
def test_prepared_eval_bit_identical_to_reference(state, which, point):
    n, l = state
    _assert_same_as_reference(n, l, which, _r_of(n, point))


# grids that hold both Ei branches and Ei's zero band, and sometimes one more
# point of any kind: on either branch, past Ei's or e^{kappa r}'s range
# (2 kappa r > 708 or > 1416), or a special r
_grid_x = st.one_of(st.floats(1e-6, 40.0), st.floats(40.0, 708.0), st.floats(0.36, 0.39))
_any_point = st.one_of(_ei_args.map(lambda x: ("x", x)), _special_r.map(lambda r: ("r", r)))


@settings(max_examples=300, deadline=None)
@given(_states, st.sampled_from(_WHICH), st.lists(_grid_x.map(lambda x: ("x", x)), max_size=12),
       st.none() | st.tuples(st.integers(0, 12), _any_point))
def test_eval_grid_rows_are_eval_form_at_each_point(state, which, points, extra):
    # the grid's rows are its one-point rows, which the test above holds to
    # the reference, or the grid raises what its first failing point raises
    n, l = state
    if extra is not None:
        points.insert(extra[0], extra[1])
    rs = [_r_of(n, p) for p in points]
    form = _forms(n, l)[which]
    rows = []
    for r in rs:
        got = _outcome(_one_point, form, r)
        if isinstance(got[0], type):
            with pytest.raises(got[0]) as err:
                eval_grid(form, rs)
            assert (type(err.value), str(err.value)) == got
            return
        rows.append((repr(r), got[0], repr(got[1])))
    assert [tuple(map(repr, row)) for row in eval_grid(form, rs)] == rows


@pytest.mark.parametrize("r", [0.0, 1e-320, 1.0, 37.5, 2000.0 * 30])
def test_eval_grid_same_outcome_as_the_reference_at_the_edges(r):
    # r <= 0, the envelope overflow, both Ei branches and kappa r >= 2000 for
    # the largest states
    for n, l in [(30, 0), (30, 29), (17, 16)]:
        for which in _WHICH:
            _assert_same_as_reference(n, l, which, r)


def test_eval_grid_with_coefficients_beyond_double_range():
    # R2's leading coefficient for n = 70, l = 69 does not fit a double, so
    # converting R2's or R2''s P raises one OverflowSignal that names its
    # bucket, even for a grid of no points, and so does every evaluation,
    # which converts the form before it reads a point; R1 and R1' evaluate as
    # the reference
    forms = _forms(70, 69)
    with pytest.raises(OverflowError):
        laurent_run(refvals.in_r(forms["r2"])[1])
    for which in ("r2", "r2d"):
        with pytest.raises(OverflowSignal, match="^the q_plus coefficients exceed double precision$"):
            eval_grid(forms[which], [])
        for r in (1.0, 1e-320, 0.0, 1e5):
            assert _outcome(_one_point, forms[which], r) == (
                OverflowSignal, "the q_plus coefficients exceed double precision")
    for which in ("r1", "r1d"):
        for r in (1.0, 1e-320, 0.0, 1e5):
            _assert_same_as_reference(70, 69, which, r)


def _reference_runs(named) -> list | tuple:
    """The float runs of each (bucket, polynomial in r) in turn, or the
    OverflowSignal that the first coefficient beyond double range raises;
    a bucket is named by the words before "exceed" in its message."""
    runs = []
    for name, q in named:
        try:
            runs.append(laurent_run(q))
        except OverflowError:
            return OverflowSignal, f"the {name} exceed double precision"
    return runs


def _package_runs(build) -> list | tuple:
    # runs compare equal only float for float; no coefficient is zero, so
    # no sign of zero can differ unseen
    try:
        return list(build())
    except OverflowSignal as exc:
        return OverflowSignal, str(exc)


def _converted(*forms) -> list:
    """The float runs of each (form, of) by float_runs in turn, P before L."""
    return [run for f, of in forms for run in reversed(float_runs(f, of)) if run is not None]


def test_runs_read_from_the_records_in_x_equal_the_runs_in_r():
    # each coefficient read in r from the record in x is the same rational as
    # the one substituted a Fraction at a time, so every float run, and every
    # overflow, is the same, on 40 seeded states with n <= 70 and the corners:
    # R2's P first leaves double range at (65, 64)
    rng = random.Random(41)
    states = [(n, rng.randrange(n)) for n in (rng.randint(1, 70) for _ in range(40))]
    outcomes = {}
    for n, l in states + [(1, 0), (64, 63), (65, 64), (70, 0), (70, 69)]:
        r2 = assemble_R2(QuantumNumbers(n, l))
        r1 = Radial(r2.qn, r2.L)
        d = derivative(r2)
        (ell, p), (d_ell, d_p) = refvals.in_r(r2), refvals.in_r(d)
        # float_runs converts P before L, and the shell R2 before R2'
        assert _package_runs(lambda: _converted((r1, ""))) == \
            _reference_runs([("q_minus coefficients", ell)]), (n, l)
        got = _package_runs(lambda: _converted((r2, "")))
        assert got == _reference_runs([("q_plus coefficients", p), ("q_ei coefficients", ell)]), (n, l)
        pair = _package_runs(lambda: _converted((r2, ""), (d, "R2'")))
        assert pair == _reference_runs(
            [("q_plus coefficients", p), ("q_ei coefficients", ell),
             ("q_plus coefficients of R2'", d_p), ("q_ei coefficients of R2'", d_ell)]), (n, l)
        outcomes[n, l] = got, pair
    assert outcomes[65, 64][0] == (OverflowSignal, "the q_plus coefficients exceed double precision")
    assert isinstance(outcomes[64, 63][0], list)
    assert outcomes[64, 63][1] == (OverflowSignal, "the q_plus coefficients of R2' exceed double precision")


def test_eval_grid_names_the_bucket_of_an_overflowing_L():
    # no state reaches it, since P overflows first, but an L beyond double
    # range is named as the bucket it fills: q_minus in R1, q_ei in R2, and
    # q_ei in the R2' that the shell converts by the same float_runs
    qn, huge = QuantumNumbers(1, 0), RatPoly(0, [10**400])
    r2 = Radial(qn, huge, RatPoly(0, [1]))
    for f, name in ((Radial(qn, huge), "q_minus"), (r2, "q_ei")):
        with pytest.raises(OverflowSignal, match=f"^the {name} coefficients exceed double precision$"):
            eval_grid(f, [1.0])
    with pytest.raises(OverflowSignal, match="^the q_ei coefficients of R2' exceed double precision$"):
        float_runs(r2, "R2'")


# -- the grid kernel ------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(_states, st.sampled_from(_WHICH), st.floats(math.log(1e-3), math.log(1e3)))
def test_fused_envelope_within_rounding_of_exact(state, which, log_r):
    # the envelope sum |c_k| r^k, one Horner pass over the envelope run,
    # against exact rationals
    n, l = state
    r = math.exp(log_r)
    form = _forms(n, l)[which]
    for p, bucket in zip(refvals.in_r(form), _runs(form)):
        value, env = horner(bucket, r), horner(envelope(bucket), r)
        assert repr(value) == repr(refvals.float_horner(p, r))
        exact = sum(Fraction(abs(x), p.den) * Fraction(r) ** k for k, x in enumerate(p.nums, p.low))
        assert abs(Fraction(env) - exact) <= (2 * _run_width(bucket) + 2) * Fraction(_EPS) * exact


@pytest.mark.parametrize("state, which, bad_r, message", [
    # R2 for n = 1 (kappa = 1): its r^-1 term at r = 1e-320
    ((1, 0), "r2", 1e-320, "conditioning envelope overflows double precision at r = 1e-320"),
    # 2 kappa r = 720 > 708
    ((1, 0), "r2", 360.0, "Ei(1, -x) overflows double precision at x=720.0"),
    # kappa r = 710 > 709
    ((1, 0), "r2", 710.0, "exp(710.0) overflows double precision"),
    # R1 for n = 30 has no growing bucket, but its r^29 term overflows at 1e12
    ((30, 0), "r1", 1e12, "conditioning envelope overflows double precision at r = 1000000000000.0"),
    # Ei overflows at both points too, and e^{kappa r} at 1e200, but the
    # envelope probe comes first
    ((3, 0), "r2", 1e200, "conditioning envelope overflows double precision at r = 1e+200"),
    ((71, 0), "r2", 27000.0, "conditioning envelope overflows double precision at r = 27000.0"),
])
@pytest.mark.parametrize("k", [0, 3])
def test_grid_raises_at_its_first_failing_point(state, which, bad_r, message, k):
    # every point but the k-th evaluates, and the points after it fail
    # differently, so only the first failure is raised
    form = _forms(*state)[which]
    good = [0.5, 1.0, 30.0, 200.0]
    rs = good[:k] + [bad_r] + good[k:] + [-1.0, 1e-320]
    for r in good:
        refvals.eval_form(form, r)
    with pytest.raises(OverflowSignal) as want:
        refvals.eval_form(form, bad_r)
    assert str(want.value) == message
    with pytest.raises(OverflowSignal) as got:
        eval_grid(form, rs)
    assert str(got.value) == message


def _overflows(r: float, k: int) -> bool:
    try:
        r ** k
    except OverflowError:
        return True
    return False


def _bits(r: float) -> int:
    return struct.unpack("<q", struct.pack("<d", r))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _first_overflow(k: int) -> float | None:
    """The double r, on k's side of 1, nearest 1 at which r ** k overflows:
    the smallest for k > 0 and the largest for k < 0; None if there is none."""
    inside, outside = _bits(1.0), _bits(sys.float_info.max if k > 0 else 5e-324)
    if not _overflows(_double(outside), k):
        return None
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        inside, outside = (inside, mid) if _overflows(_double(mid), k) else (mid, outside)
    return _double(outside)


_probe_states = sorted(random.Random(1729).sample(
    [(n, l) for n in range(1, 71) for l in range(n)], 8)) + [(1, 0), (5, 4), (71, 0)]


@pytest.mark.parametrize("state", _probe_states)
def test_one_probe_raises_where_some_run_probe_overflows(state):
    # evaluator makes one probe per point over every run of R2 and R2': at
    # each run's first overflowing r, for its top power above 1 and its
    # bottom power below, and at the double just before, it raises the
    # conditioning text exactly when some run's own r ** k overflows
    kappa, pairs, _, _ = refvals.shell_runs(QuantumNumbers(*state))
    runs, point = [run for pair in pairs for run in pair], evaluator(kappa, pairs)
    for up, down, _ in runs:
        for k in (len(up) - 1, -len(down)):
            first = _first_overflow(k)
            if first is None:
                continue
            for r in (first, math.nextafter(first, 1.0)):
                own = [_overflows(r, len(u) - 1 if r > 1.0 else -len(d)) for u, d, _ in runs]
                try:
                    point(r)
                    raised = ""
                except OverflowSignal as exc:
                    raised = str(exc)
                probed = raised == f"conditioning envelope overflows double precision at r = {r!r}"
                assert probed == any(own), (state, k, r, own, raised)


def test_eval_grid_of_no_points_is_empty():
    assert eval_grid(assemble_R1(QuantumNumbers(2, 1)), []) == []


def test_extended_consistency_sweep():
    rng = random.Random(20240811)
    cases = []
    for n in range(1, 7):
        for l in range(n):
            qn = QuantumNumbers(n, l)
            cases.append(assemble_R1(qn))
            cases.append(assemble_R2(qn))
    checked = 0
    while checked < 1000:
        f = rng.choice(cases)
        r = math.exp(rng.uniform(math.log(0.01), math.log(50.0)))
        value, est = _one_point(f, r)
        e = float(eval_form_extended(f, r, 256))
        # the estimate must cover the actual double-precision defect
        assert abs(value - e) <= max(est * abs(e), 1e-300)
        checked += 1


@pytest.mark.parametrize("n,l,rs", [
    # R1 ~ r^l is subnormal there: the grid 1e-64:1e-62:4 and r = 1e-320
    (6, 5, (1e-64, 3.4e-63, 6.7e-63, 1e-62)),
    (3, 1, (1e-320, 5e-321, 3e-322)),
    (3, 2, (1e-160, 1e-161)),
    (10, 9, (1e-34, 5e-35)),
    # e^{-r} is subnormal there
    (1, 0, (740.0, 744.0, 745.0)),
])
def test_estimate_covers_the_error_at_subnormal_R1_values(n, l, rs):
    # a rounding step whose result is subnormal can lose 2^-1074, which no
    # multiple of eps bounds there
    f = assemble_R1(QuantumNumbers(n, l))
    for r, value, est in eval_grid(f, rs):
        assert 0.0 < abs(value) < 2.0 ** -1022
        exact = eval_form_extended(f, r, 256)
        assert abs(mpmath.mpf(value) - exact) <= est * abs(exact), r


@pytest.mark.parametrize("n,l,r", [(10, 0, 7400.0), (10, 0, 7200.0), (6, 5, 4420.0)])
def test_estimate_covers_a_subnormal_decay_factor(n, l, r):
    # kappa r > 708: e^{-kappa r} is subnormal and off by up to 2^-1074
    # absolute, while R1 itself is normal; the estimate read about 2e-13
    # against a true 2.6e-3, 2.9e-12 and 1.9e-4 before the env 2^-1074 term
    f = assemble_R1(QuantumNumbers(n, l))
    (_, value, est), = eval_grid(f, (r,))
    assert abs(value) >= 2.0 ** -1022 and 0.0 < math.exp(-r / n) < 2.0 ** -1022
    exact = eval_form_extended(f, r, 256)
    assert abs(mpmath.mpf(value) - exact) <= est * abs(exact)


def test_subnormal_decay_term_leaves_every_other_estimate_alone():
    # the term is added only where e^{-kappa r} is subnormal: on either side
    # of kappa r = 708.4 the estimate is the one from the terms before it
    f = assemble_R1(QuantumNumbers(1, 0))
    (_, _, normal), (_, _, subnormal) = eval_grid(f, (708.0, 709.0))
    ell = refvals.in_r(f)[0]
    run = laurent_run(ell)
    for r, est in ((708.0, normal), (709.0, subnormal)):
        value, env = horner(run, r), horner(envelope(run), r)
        decay = math.exp(-r)
        width = 2 * len(ell.nums)
        abs_err = (width + 6) * 2.0 ** -1074 + env * decay * (width + r + 6) * _EPS
        if r > 708.5:
            abs_err += env * 2.0 ** -1074
        assert repr(est) == repr(abs_err / abs(value * decay))


def test_extended_precision_monotonicity():
    f = assemble_R2(QuantumNumbers(1, 0))
    v256 = eval_form_extended(f, 20.0, 256)
    v512 = eval_form_extended(f, 20.0, 512)
    assert abs((v256 - v512) / v512) < 1e-60


def test_extended_matches_series_branch_point():
    # Ei argument 2*kappa*r = 1 lands on the series branch
    f = assemble_R2(QuantumNumbers(2, 1))
    value = eval_grid(f, (1.0,))[0][1]
    e = float(eval_form_extended(f, 1.0, 256))
    assert abs(value - e) / abs(e) < 1e-15


def test_extended_accepts_exact_rationals():
    f = assemble_R2(QuantumNumbers(1, 0))
    assert eval_form_extended(f, Fraction(1, 2), 128) == eval_form_extended(f, 0.5, 128)


def test_extended_validates_precision():
    f = assemble_R1(QuantumNumbers(1, 0))
    with pytest.raises(ValueError):
        eval_form_extended(f, 1.0, 32)
