"""Point evaluation: Ei(1, -x), Laurent polynomials and symbolic radial forms.

Every polynomial is evaluated through one run format (``laurent_run``, its
coefficients converted once) and one Laurent Horner loop, ``horner``, on
float, exact and extended-precision scalars alike.  The two callers that
bound an error with the envelope sum |c_k| r^k (``eval_grid`` and the
oracle's tail bound) read it as that same loop over ``envelope(run)``, the
run of the |c_k|.  There is one double-precision evaluator, ``evaluator``,
prepared once per set of (L, P) run pairs of ``float_runs``: ``eval_grid``
maps its point over a grid with error estimates, and the shell asks it for
R1 and R2, and R1' and R2', with no estimate.  It works out the guards from
its runs once and runs them, e^{kr}, e^{-kr} and Ei at each point, in one
order for every caller, so one function decides what a point raises.
``ei_with_error`` is the one Ei(1, -x).

The forms are closedform.Radial records, held in x = 2kr, and every
evaluator here evaluates them at r: ``laurent_run`` converts each
coefficient in r straight from RatPoly.ratio_terms(qn.x_per_r), x_per_r =
2k, and no polynomial in r is built.  Double precision genuinely loses
digits where R2's growing exponential part cancels against its Ei part, so
every eval_grid row carries an error estimate instead of hiding the loss
(the shell takes values only); callers that need more digits use the
extended-precision evaluator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .closedform import Radial
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
    with (k + 4) eps, the rounding accumulated over k terms; the k > 3 guard
    sets only that count's floor, 8 eps, where tiny x would stop at k = 2."""
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

    The run is ``(up, down, zero)``.  ``up`` holds the coefficients c_k for
    the powers max(degree, -1) down to 0 and ``down`` for the powers
    min(low, 0) up to -1, padded with the run's own ``zero`` = conv(0, 1), so
    len(up) - 1 and -len(down) are its highest and lowest powers.
    Raises OverflowError when a float coefficient is beyond double range.
    """
    zero = conv(0, 1)
    lo, hi = min(p.low, 0), max(p.degree, -1)
    cs = [zero] * (hi + 1 - lo)
    for k, num, den in p.ratio_terms(scale):
        cs[k - lo] = conv(num, den)
    return tuple(reversed(cs[-lo:])), tuple(cs[:-lo]), zero


def envelope(run: tuple) -> tuple:
    """The laurent_run whose coefficients are the absolute values of run's:
    horner(envelope(run), r) is the envelope sum |c_k| r^k of run at r."""
    up, down, zero = run
    return tuple(map(abs, up)), tuple(map(abs, down)), zero


def horner(run: tuple, r):
    """The value of a laurent_run at r, from one Laurent Horner pass:
    nonnegative powers from the top, then negative powers from the bottom
    through y = 1/r.  Works on float, Fraction and mpmath scalars alike;
    every sum starts from the run's own zero, so an exact run stays exact.
    Raises ZeroDenominator for negative powers at r = 0.
    """
    up, down, zero = run
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


def float_runs(f: Radial, of: str = "") -> tuple:
    """(L, P): the polynomials of f as float laurent_runs in r, P None for an
    R1, each coefficient converted once, P before L.  A coefficient beyond
    double range raises OverflowSignal naming its bucket (q_plus for P,
    q_minus for R1's L, q_ei for R2's), and the form ``of`` when one is given.
    """
    def run(name: str, q: RatPoly) -> tuple:
        try:
            return laurent_run(q, scale=f.qn.x_per_r)
        except OverflowError as exc:
            form = f" of {of}" if of else ""
            raise OverflowSignal(f"the {name} coefficients{form} exceed double precision") from exc

    p = None if f.P is None else run("q_plus", f.P)
    return run("q_minus" if p is None else "q_ei", f.L), p


def evaluator(kappa: float, pairs, envelopes=None):
    """The one double-precision kernel, prepared once over (L, P) pairs of
    float_runs: its point(r) returns the row [r, R1, R2, ...] of each pair's
    values at r, R1 = L e^{-kr} and, unless P is None, R2 = P e^{kr} +
    L e^{-kr} Ei(1, -2kr), from one Horner pass per run and one e^{kr},
    e^{-kr} and Ei(1, -2kr) per point (e^{kr} and Ei only when some pair
    has a P).  Each + 0.0 is the term of a bucket the form lacks, so that a
    value that underflows to -0.0 comes out as 0.0, as eval and shell write it.

    Before point evaluates r it raises DomainError unless 0 < r < inf, then
    OverflowSignal from the conditioning probe, e^{kr} and Ei, in that
    order, whoever calls.  The probe is r ** top (r > 1) or r ** bottom
    (r < 1), top and bottom the highest and the lowest power of any run of
    any pair, worked out here once: as r^k is monotone in k, it overflows
    exactly when some run's r^k does.

    With envelopes = (two_width, L's envelope run, P's or None) of a single
    pair, each row is instead eval_grid's (r, value, est_rel_error) of that
    pair's form, R1 when its P is None and R2 otherwise.
    """
    runs = [run for pair in pairs for run in pair if run is not None]
    top = max([len(up) for up, _, _ in runs]) - 1
    bottom = -max([len(down) for _, down, _ in runs])
    # every pair has an L, so some pair has a P when there are more runs
    grows = len(runs) > len(pairs)
    if envelopes is not None:
        two_width, env_ell, env_p = envelopes
        underflow = (two_width + 6) * 2.0 ** -1074

    def point(r: float):
        if not 0 < r < math.inf:
            raise DomainError(f"eval_grid requires a finite r > 0, got {r!r}")
        try:
            r ** (top if r > 1.0 else bottom)
        except OverflowError as exc:
            raise OverflowSignal(f"conditioning envelope overflows double precision at r = {r!r}") from exc
        grow = ei_value = ei_abs_err = 0.0
        if grows:
            try:
                grow = math.exp(kappa * r)
            except OverflowError as exc:
                raise OverflowSignal(f"exp({kappa * r}) overflows double precision") from exc
            ei_value, ei_abs_err = ei_with_error(2.0 * kappa * r)
        decay = math.exp(-kappa * r)
        row = [r]
        for ell, p in pairs:
            v = horner(ell, r) * decay
            row.append(v + 0.0)
            if p is not None:
                row.append(horner(p, r) * grow + 0.0 + v * ei_value)
        if envelopes is None:
            return row
        round_factor = (two_width + kappa * r + 6) * _EPS
        abs_err = underflow
        env = horner(env_ell, r)
        if env_p is None:
            abs_err += env * decay * round_factor
            if decay < _NORMAL_MIN:
                # past kappa r ~ 708 e^{-kappa r} is subnormal and carries
                # an absolute rounding of up to 2^-1074 (R2 raises before:
                # its Ei overflows from kappa r = 354)
                abs_err += env * 2.0 ** -1074
        else:
            abs_err += horner(env_p, r) * grow * round_factor
            # x*eps, x = 2 kappa r, covers the argument-rounding sensitivity
            ei_abs_err += abs(ei_value) * (2.0 * kappa * r) * _EPS
            abs_err += env * decay * (abs(ei_value) * round_factor + ei_abs_err)
        value = row[-1]
        return r, value, abs_err / abs(value) if value != 0.0 else math.inf

    return point


def eval_grid(f: Radial, rs) -> list[tuple[float, float, float]]:
    """Evaluate R1 or R2 (or a derivative) in double precision at every r of
    rs, as one (r, value, est_rel_error) row per point.

    f is converted by float_runs once, its envelope runs (numeval.envelope)
    built once and its evaluator prepared once, so that at each r the point
    takes one Horner pass over each run for its value and one for its
    envelope sum |c_k| r^k.  est_rel_error is abs_err / |value|, where
    abs_err adds these terms, E being each part's envelope sum times its
    factor (e^{kr} for P, e^{-kr} for R1's L, e^{-kr} |Ei| for R2's), width
    the most coefficients of f's polynomials and x = 2 kappa r:
      - E (2 width + 6) eps: Horner's a-priori bound (Higham §5.1);
      - E kappa r eps: the rounding of e^{+-kr}'s argument;
      - L's envelope times e^{-kr} x eps |Ei|: the rounding of Ei's argument;
      - L's envelope times e^{-kr} and Ei's own estimate (ei_with_error,
        DLMF §6.6, §6.12);
      - (2 width + 6) 2^-1074, one per rounding step of a subnormal result,
        and for R1 L's envelope times 2^-1074 where e^{-kr} is subnormal.
    The envelopes dominate the plain |A| + |C| cancellation penalty between
    the growing-exponential and Ei parts.  The first point that cannot be
    evaluated raises what the kernel raises there, in its one order.
    """
    ell, p = float_runs(f)
    two_width = 2 * max(len(q.nums) for q in (f.L, f.P) if q is not None)
    envelopes = (two_width, envelope(ell), None if p is None else envelope(p))
    return list(map(evaluator(float(f.qn.kappa), [(ell, p)], envelopes), rs))


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
