"""Point evaluation: Ei(1, -x), Laurent polynomials and symbolic radial forms.

Every polynomial is evaluated through one run format (``laurent_run``, its
coefficients converted once) and one Laurent Horner loop, ``horner``, on
float, exact and extended-precision scalars alike.  The two callers that
bound an error with the envelope sum |c_k| r^k (``eval_grid`` and the
oracle's tail bound) read it as that same loop over ``envelope(run)``, the
run of the |c_k|.  There are two double-precision evaluators, one per job:
``eval_grid`` evaluates one form over a grid with error estimates, and
``eval_pair`` gives the shell's R1 and R2, and R1' and R2' when asked, at
one point, with no estimate.  Both take every point's guards, e^{kr},
e^{-kr} and Ei from one generator, ``_factors``, so one function decides
what a point raises.
``ei_with_error`` is the one Ei(1, -x).

The forms are closedform.Radial records, held in x = 2kr, and every
evaluator here evaluates them at r: ``laurent_run`` converts each
coefficient in r straight from RatPoly.ratio_terms(qn.x_per_r), x_per_r =
2k, and no polynomial in r is built.  Double precision genuinely loses
digits where R2's growing exponential part cancels against its Ei part, so
every eval_grid row carries an error estimate instead of hiding the loss
(eval_pair's callers take values only); callers that need more digits use
the extended-precision evaluator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .closedform import Radial, derivative
from .ratpoly import RationalLike, RatPoly, ZeroDenominator

# Euler-Mascheroni constant, 30 significant digits.
EULER_GAMMA = 0.577215664901532860606512090082

# Series/asymptotic crossover for Ei(1, -x); both branches are accurate in a
# band around it (tested on [35, 45]).
_BRANCH_SPLIT = 40.0

# exp(x) overflows double precision just above this.
_OVERFLOW_X = 708.0

_EPS = 2.220446049250313e-16

# The smallest normal double, 2^-1022.
_NORMAL_MIN = 2.2250738585072014e-308


class DomainError(ValueError):
    """Argument outside the function's real domain."""


class OverflowSignal(OverflowError):
    """A value or a coefficient exceeds double-precision range."""


# Ei's summation indices k = 1.0, ..., 1000.0: int -> float is exact, so
# x / k, term / k and term * k / x round as with an integer k.
_INDEX = tuple(map(float, range(1, 1001)))


def _ei_series(x: float, log_x: float) -> tuple[float, float]:
    """-(gamma + ln x + sum_k x^k/(k k!)) for log_x = math.log(x), stopped at
    the first term after the third below 1e-18 |partial sum| (or the 1000th),
    with (k + 4) eps, the rounding accumulated over k terms."""
    total = EULER_GAMMA + log_x
    term = 1.0
    if total >= 0.0:
        # every term is >= 0, so the partial sum stays >= 0 (its own |.|),
        # and with x > 0.56 each of the first three terms is above 1e-3 of it
        for k in _INDEX:
            term *= x / k
            contribution = term / k
            total += contribution
            if contribution < total * 1e-18:
                break
        return -total, (k + 4) * _EPS
    for k in _INDEX:
        term *= x / k
        contribution = term / k
        total += contribution
        if contribution < (total if total >= 0.0 else -total) * 1e-18 and k > 3.0:
            break
    return -total, (k + 4) * _EPS


def _asymptotic_sum(x: float) -> tuple[float, float, int]:
    """sum_k k!/x^k, its last term and k, stopped before a term not below the
    one before it (at the smallest term, by k = 709 for x <= 708) or below
    1e-18 of the sum.  Every term is positive, so the sum is at least 1."""
    total = term = 1.0
    for j in _INDEX:
        nxt = term * j / x
        if nxt >= term or nxt < total * 1e-18:
            break
        term = nxt
        total += term
    return total, term, int(j) - 1


def ei_with_error(x: float) -> tuple[float, float]:
    """(value, estimated absolute error) of Ei(1, -x) = PV integral_{-x}^inf
    e^{-s}/s ds for x > 0, which is -Ei(x) in the classical convention.

    The estimate has the absolute floor eps (1 + |ln x|), the size of the
    terms that cancel through Ei's zero at x ~ 0.3725, so it bounds the error
    there too.  Past x = 708 the value, about -e^x/x, leaves double range and
    OverflowSignal is raised."""
    if not x > 0:
        raise DomainError(f"ei_with_error requires x > 0, got {x!r}")
    if x <= _BRANCH_SPLIT:
        log_x = math.log(x)
        value, est = _ei_series(x, log_x)
        return value, abs(value) * est + _EPS * (1.0 + abs(log_x))
    if x > _OVERFLOW_X:
        raise OverflowSignal(f"Ei(1, -x) overflows double precision at x={x!r}")
    # -(e^x/x) sum_k k!/x^k: the sum is >= 1, so the value is < 0, and ln x > 0
    total, last_term, k = _asymptotic_sum(x)
    value = -math.exp(x) / x * total
    return value, -value * (last_term / total + (k + 4) * _EPS) + _EPS * (1.0 + math.log(x))


def laurent_run(p: RatPoly, conv=operator.truediv, scale: RationalLike = 1) -> tuple:
    """p(scale x) ready for Laurent Horner evaluation at many points, each
    coefficient converted once as ``conv(numerator, denominator)`` from
    p.ratio_terms(scale): to a correctly rounded float by default, to a
    Fraction with ``conv=Fraction``, or to an extended-precision scalar.
    A record in x = 2kr passes scale = qn.x_per_r to be evaluated at r.

    The run is ``(up, down, top, bottom, zero)``.  ``up`` holds the
    coefficients c_k for the powers max(degree, -1) down to 0 and ``down``
    for the powers min(low, 0) up to -1, padded with the run's own ``zero``
    = conv(0, 1).
    ``top`` and ``bottom`` are the highest and the lowest power of p clipped
    at 0: the only powers whose r^k can overflow, for r > 1 and for r < 1.
    Raises OverflowError when a float coefficient is beyond double range.
    """
    zero = conv(0, 1)
    lo, hi = min(p.low, 0), max(p.degree, -1)
    cs = [zero] * (hi + 1 - lo)
    for k, num, den in p.ratio_terms(scale):
        cs[k - lo] = conv(num, den)
    return tuple(reversed(cs[-lo:])), tuple(cs[:-lo]), max(p.degree, 0), lo, zero


def envelope(run: tuple) -> tuple:
    """The laurent_run whose coefficients are the absolute values of run's:
    horner(envelope(run), r) is the envelope sum |c_k| r^k of run at r."""
    up, down, top, bottom, zero = run
    return tuple(map(abs, up)), tuple(map(abs, down)), top, bottom, zero


def horner(run: tuple, r):
    """The value of a laurent_run at r, from one Laurent Horner pass:
    nonnegative powers from the top, then negative powers from the bottom
    through y = 1/r.  Works on float, Fraction and mpmath scalars alike;
    every sum starts from the run's own zero, so an exact run stays exact.
    Raises ZeroDenominator for negative powers at r = 0.
    """
    up, down, _, _, zero = run
    value = zero
    for c in up:
        value = value * r + c
    if not down:
        return value + zero
    try:
        y = 1 / r
    except ZeroDivisionError as exc:
        raise ZeroDenominator("negative powers evaluated at x = 0") from exc
    dvalue = zero
    for c in down:
        dvalue = dvalue * y + c
    return value + dvalue * y


def _float_run(name: str, q: RatPoly, scale: Fraction, of: str = "") -> tuple:
    """The float laurent_run of q(scale x), a record's polynomial of bucket
    ``name`` in r for scale = qn.x_per_r; raises OverflowSignal, naming
    the bucket, and the form ``of`` when one is given, when a coefficient is
    beyond double range."""
    try:
        return laurent_run(q, scale=scale)
    except OverflowError as exc:
        form = f" of {of}" if of else ""
        raise OverflowSignal(f"the {name} coefficients{form} exceed double precision") from exc


def _factors(kappa: float, rs, first, plus, last):
    """The one guard pass of the double-precision evaluators: for each r of
    rs in turn, (r, e^{kr}, e^{-kr}, Ei(1, -2kr), Ei's absolute error), the
    growing factors 0.0 when ``plus`` is None.  Before it yields a point it
    raises DomainError unless 0 < r < inf, then OverflowSignal from the
    envelope probe of the ``first`` run, e^{kr}, the probe of the ``plus``
    run, Ei and the probe of the ``last`` run, in that order; a run that is
    None is not probed.  A run's probe, r ** top (r > 1) or r ** bottom
    (r < 1), raises a bare OverflowError exactly when r^k overflows for some
    nonzero coefficient's power k; every other failure is already an
    OverflowSignal."""
    for r in rs:
        if not 0 < r < math.inf:
            raise DomainError(f"eval_grid requires a finite r > 0, got {r!r}")
        k = 2 if r > 1.0 else 3
        grow = ei_value = ei_abs_err = 0.0
        try:
            if first is not None:
                r ** first[k]
            if plus is not None:
                try:
                    grow = math.exp(kappa * r)
                except OverflowError as exc:
                    raise OverflowSignal(f"exp({kappa * r}) overflows double precision") from exc
                r ** plus[k]
                ei_value, ei_abs_err = ei_with_error(2.0 * kappa * r)
            if last is not None:
                r ** last[k]
        except OverflowSignal:
            raise
        except OverflowError as exc:
            raise OverflowSignal(f"conditioning envelope overflows double precision at r = {r!r}") from exc
        yield r, grow, math.exp(-kappa * r), ei_value, ei_abs_err


def eval_grid(f: Radial, rs) -> list[tuple[float, float, float]]:
    """Evaluate R1 or R2 (or a derivative) in double precision at every r of
    rs, as one (r, value, est_rel_error) row per point.

    Each polynomial of f is converted to a float laurent_run in r once, P
    before L, and its envelope run (numeval.envelope) built once, so that at
    each r one Horner pass over each run yields its value and one its
    envelope sum |c_k| r^k; a coefficient beyond double range raises
    OverflowSignal naming its bucket (q_plus for P, q_minus for R1's L, q_ei
    for R2's).  est_rel_error is abs_err / |value|, where abs_err adds these
    terms, E being each part's envelope sum times its factor (e^{kr} for P,
    e^{-kr} for R1's L, e^{-kr} |Ei| for R2's), width the most coefficients
    of f's polynomials and x = 2 kappa r:
      - E (2 width + 6) eps: Horner's a-priori bound (Higham §5.1);
      - E kappa r eps: the rounding of e^{+-kr}'s argument;
      - L's envelope times e^{-kr} x eps |Ei|: the rounding of Ei's argument;
      - L's envelope times e^{-kr} and Ei's own estimate (ei_with_error,
        DLMF §6.6, §6.12);
      - (2 width + 6) 2^-1074, one per rounding step of a subnormal result,
        and for R1 L's envelope times 2^-1074 where e^{-kr} is subnormal.
    The envelopes dominate the plain |A| + |C| cancellation penalty between
    the growing-exponential and Ei parts.  The first point that cannot be
    evaluated raises what _factors raises there; R2's L is probed after
    e^{kr}, P and Ei.
    """
    ell, p, scale = f.L, f.P, f.qn.x_per_r
    plus = None if p is None else _float_run("q_plus", p, scale)
    decaying = _float_run("q_minus" if p is None else "q_ei", ell, scale)
    plus_env = None if plus is None else envelope(plus)
    decaying_env = envelope(decaying)
    kappa = float(f.qn.kappa)
    two_width = 2 * max(len(q.nums) for q in (ell, p) if q is not None)
    underflow = (two_width + 6) * 2.0 ** -1074
    guards = (decaying, None, None) if plus is None else (None, plus, decaying)
    rows = []
    for r, grow, decay, ei_value, ei_abs_err in _factors(kappa, rs, *guards):
        round_factor = (two_width + kappa * r + 6) * _EPS
        a = b = c = 0.0
        abs_err = underflow
        value, env = horner(decaying, r), horner(decaying_env, r)
        if plus is None:
            b = value * decay
            abs_err += env * decay * round_factor
            if decay < _NORMAL_MIN:
                # past kappa r ~ 708 e^{-kappa r} is subnormal and carries
                # an absolute rounding of up to 2^-1074 (R2 raises before:
                # its Ei overflows from kappa r = 354)
                abs_err += env * 2.0 ** -1074
        else:
            a = horner(plus, r) * grow
            abs_err += horner(plus_env, r) * grow * round_factor
            # x*eps, x = 2 kappa r, covers the argument-rounding sensitivity
            ei_abs_err += abs(ei_value) * (2.0 * kappa * r) * _EPS
            c = value * decay * ei_value
            abs_err += env * decay * (abs(ei_value) * round_factor + ei_abs_err)
        value = a + b + c
        rows.append((r, value, abs_err / abs(value) if value != 0.0 else math.inf))
    return rows


def pair_runs(r2: Radial) -> tuple[tuple[tuple, tuple], tuple[tuple, tuple]]:
    """The float runs ((L, P), (L', P')) from which eval_pair evaluates
    (R1, R2) and (R1', R2'), given the R2 of closedform.assemble_R2;
    shellmatch.match_shell forms them once per match and keeps them in its
    MatchResult.

    R2 = P e^{x/2} + L e^{-x/2} Ei(1, -x) carries R1 = L e^{-x/2} in its Ei
    part, and d/dr maps that L to R1''s own L, so R2' from
    closedform.derivative is the one derivative formed.  The coefficients
    are converted in r, and an overflow named after its bucket, as
    eval_grid does over R1, R1', R2 and R2' in turn; a derivative's bucket
    is named with its form, since R2''s P leaves double range one state
    before R2's own.
    """
    d, scale = derivative(r2), r2.qn.x_per_r
    ell, ell_d = _float_run("q_minus", r2.L, scale), _float_run("q_minus", d.L, scale, "R1'")
    return ((ell, _float_run("q_plus", r2.P, scale)),
            (ell_d, _float_run("q_plus", d.P, scale, "R2'")))


def eval_pair(kappa: float, runs: tuple, r: float) -> list[tuple[float, float]]:
    """(R1, R2) at r of each (L, P) pair of runs, the pairs of pair_runs or
    the first alone, in one pass: two Horner passes per pair, one e^{kr},
    one e^{-kr} and one Ei(1, -2kr), and no error estimate.

    Each value is eval_grid's value of that form at r, from the same float
    operations, and the pass raises what eval_grid raises first on R1, R1',
    R2 and R2' in turn: _factors probes L, then P, then the last pair's P
    when there are two.  L' is not probed: it has L's top power and, like
    L, no negative power, so its probe fails exactly where L's has already
    failed.
    """
    (ell, p), *rest = runs
    [(_, grow, decay, ei_value, _)] = _factors(kappa, (r,), ell, p, rest[-1][1] if rest else None)
    values = []
    for ell, p in runs:
        v = horner(ell, r) * decay
        # eval_grid sums its three terms as a + b + c; each + 0.0 is a term the
        # form lacks there, kept so that a zero comes out with the same sign
        values.append((v + 0.0, horner(p, r) * grow + 0.0 + v * ei_value))
    return values


def eval_form_extended(f: Radial, r, precision_bits: int = 256):
    """Ground-truth evaluation in software extended precision, as an
    ``mpmath.mpf``.

    ``r`` may be a float, int, Fraction, or decimal string; it is converted
    exactly before use, like f's coefficients in r.  mpmath is
    imported here, so that only this evaluator pays for loading it.

    R2's P and Ei terms cancel, losing bits that grow with n and with
    x = 2 kappa r: the default 256 bits agree with 1024 to 2^-53 for
    n <= 30 up to x = 130, the range of the eval_grid bench plan, but (30, 1)
    keeps 52.8 bits at x = 140, (30, 0) none at x = 300 and (20, 0) 5 at
    x = 700.  Beyond that range, double precision_bits until two results
    agree, as the accuracy tests' reference does.
    """
    import mpmath

    def mp_ratio(num: int, den: int) -> mpmath.mpf:
        return mpmath.mpf(num) / mpmath.mpf(den)

    def value(p: RatPoly) -> mpmath.mpf:
        return horner(laurent_run(p, mp_ratio, f.qn.x_per_r), rr)

    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    r_exact = Fraction(r) if not isinstance(r, Fraction) else r
    if not r_exact > 0:
        raise DomainError(f"eval_form_extended requires r > 0, got {r!r}")
    with mpmath.workprec(precision_bits):
        rr = mp_ratio(r_exact.numerator, r_exact.denominator)
        kk = mp_ratio(*f.qn.kappa.as_integer_ratio())
        total = value(f.L) * mpmath.exp(-kk * rr)
        if f.P is not None:
            total = value(f.P) * mpmath.exp(kk * rr) + total * -mpmath.ei(2 * kk * rr)
        return +total
