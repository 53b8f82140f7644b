"""Floating-point evaluation of Ei(1, -x) and of symbolic radial forms.

Double precision genuinely loses digits where the growing exponential bucket
cancels against the Ei bucket, so every evaluation carries an error estimate
instead of hiding the loss; callers that need more digits use the
extended-precision evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closedform import ExpEiForm

# Euler-Mascheroni constant, 30 significant digits.
EULER_GAMMA = 0.577215664901532860606512090082

# Series/asymptotic crossover for Ei(1, -x); both branches are accurate in a
# band around it (tested on [35, 45]).
_BRANCH_SPLIT = 40.0

# exp(x) overflows double precision just above this.
_OVERFLOW_X = 708.0

_EPS = 2.220446049250313e-16


class DomainError(ValueError):
    """Argument outside the function's real domain."""


class OverflowSignal(OverflowError):
    """A value or a coefficient exceeds double-precision range."""


@dataclass(frozen=True)
class EvalResult:
    value: float
    est_rel_error: float
    method: str


def _ei_series(x: float) -> tuple[float, float]:
    """-(gamma + ln x + sum_k x^k/(k k!)) with a rounding-accumulation estimate."""
    total = EULER_GAMMA + math.log(x)
    term = 1.0
    k = 0
    while k < 1000:
        k += 1
        term *= x / k
        contribution = term / k
        total += contribution
        if contribution < abs(total) * 1e-18 and k > 3:
            break
    est = (k + 4) * _EPS
    return -total, est


def _asymptotic_sum(x: float) -> tuple[float, float, int]:
    """sum_k k!/x^k truncated at the smallest term, with that term and count."""
    total = 1.0
    term = 1.0
    k = 0
    while True:
        nxt = term * (k + 1) / x
        if nxt >= term or nxt < abs(total) * 1e-18:
            break
        k += 1
        term = nxt
        total += term
    return total, term, k


def ei_one_neg(x: float) -> EvalResult:
    """Principal value of integral_{-x}^{infinity} e^{-s}/s ds for x > 0.

    Returns the value (equal to -Ei(x) in the classical convention), an
    estimated relative error, and the branch used.  Past x = 708 the value,
    about -e^x/x, leaves double range and OverflowSignal is raised.
    """
    if not x > 0:
        raise DomainError(f"ei_one_neg requires x > 0, got {x!r}")
    if x <= _BRANCH_SPLIT:
        value, est = _ei_series(x)
        return EvalResult(value, est, "series")
    if x > _OVERFLOW_X:
        raise OverflowSignal(f"Ei(1, -x) overflows double precision at x={x!r}")
    # -(e^x/x) sum_k k!/x^k truncated at the smallest term
    total, last_term, k = _asymptotic_sum(x)
    est = last_term / abs(total) + (k + 4) * _EPS
    return EvalResult(-math.exp(x) / x * total, est, "asymptotic")


def _float_exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError as exc:
        raise OverflowSignal(f"exp({t}) overflows double precision") from exc


def _bucket(name: str, p) -> tuple | None:
    """(Horner run, envelope pairs (k, |c_k|)) of one RatPoly bucket, or None
    for the zero polynomial."""
    if p.is_zero():
        return None
    den = p.den
    try:
        return p.float_run(), tuple((k, abs(x) / den) for k, x in enumerate(p.nums, p.low) if x)
    except OverflowError as exc:
        raise OverflowSignal(f"the {name} coefficients exceed double precision") from exc


@dataclass(frozen=True, slots=True)
class PreparedForm:
    """An ExpEiForm converted to floats once, for evaluation at many points.

    Each bucket (q_plus, q_minus, q_ei) is None when its polynomial is zero,
    else its float Horner run and the envelope pairs (k, |c_k|) of its
    nonzero coefficients; ``width`` is the longest stored coefficient run.
    """

    kappa: float
    width: int
    plus: tuple | None
    minus: tuple | None
    ei: tuple | None


def prepare_form(f: ExpEiForm) -> PreparedForm:
    """Convert every coefficient of f to a float once (see eval_form); raises
    OverflowSignal when a coefficient is beyond double range."""
    return PreparedForm(float(f.kappa),
                        max(len(f.q_plus.nums), len(f.q_minus.nums), len(f.q_ei.nums)),
                        _bucket("q_plus", f.q_plus), _bucket("q_minus", f.q_minus),
                        _bucket("q_ei", f.q_ei))


def _envelope(pairs: tuple, r: float) -> float:
    """sum |c_k| r^k, the conditioning envelope of the float evaluation."""
    try:
        return sum([c * r**k for k, c in pairs])
    except OverflowError as exc:
        raise OverflowSignal(
            f"conditioning envelope overflows double precision at r = {r!r}") from exc


def eval_form(f: ExpEiForm | PreparedForm, r: float) -> EvalResult:
    """Evaluate a symbolic radial form at r > 0 in double precision.

    The error estimate is built from the absolute-coefficient envelope of
    each bucket (which dominates the plain |A| + |C| cancellation penalty
    between the growing-exponential and Ei buckets), the rounding of the
    exponential arguments, and the Ei evaluation error.  A form evaluated at
    many points is passed through prepare_form once; the result is the same.
    """
    if not r > 0:
        raise DomainError(f"eval_form requires r > 0, got {r!r}")
    if not isinstance(f, PreparedForm):
        f = prepare_form(f)
    kappa = f.kappa
    round_factor = (2 * f.width + kappa * r + 6) * _EPS
    a = b = c = 0.0
    abs_err = 0.0
    method = "series"
    if f.plus is not None:
        run, env = f.plus
        grow = _float_exp(kappa * r)
        a = run(r) * grow
        abs_err += _envelope(env, r) * grow * round_factor
    if f.minus is not None:
        run, env = f.minus
        decay = _float_exp(-kappa * r)
        b = run(r) * decay
        abs_err += _envelope(env, r) * decay * round_factor
    if f.ei is not None:
        run, env = f.ei
        x = 2.0 * kappa * r
        ei = ei_one_neg(x)
        # x*eps covers the argument-rounding sensitivity; the log term floors
        # the error where the series cancels through Ei's zero near x ~ 0.37
        ei_abs_err = (abs(ei.value) * (ei.est_rel_error + x * _EPS)
                      + _EPS * (1.0 + abs(math.log(x))))
        method = ei.method
        decay = _float_exp(-kappa * r)
        c = run(r) * decay * ei.value
        poly_env = _envelope(env, r) * decay
        abs_err += poly_env * (abs(ei.value) * round_factor + ei_abs_err)
    value = a + b + c
    est = abs_err / abs(value) if value != 0.0 else math.inf
    return EvalResult(value, est, method)


def eval_form_extended(f: ExpEiForm, r, precision_bits: int = 256):
    """Ground-truth evaluation in software extended precision, as an
    ``mpmath.mpf``.

    ``r`` may be a float, int, Fraction, or decimal string; it is converted
    exactly before use.  mpmath is imported here, so that only this evaluator
    pays for loading it.
    """
    import mpmath

    def mp_from_fraction(q: Fraction) -> mpmath.mpf:
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)

    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    r_exact = Fraction(r) if not isinstance(r, Fraction) else r
    if not r_exact > 0:
        raise DomainError(f"eval_form_extended requires r > 0, got {r!r}")
    with mpmath.workprec(precision_bits):
        rr = mp_from_fraction(r_exact)
        kk = mp_from_fraction(f.kappa)
        total = mpmath.mpf(0)
        if not f.q_plus.is_zero():
            total += f.q_plus.horner(rr, mp_from_fraction) * mpmath.exp(kk * rr)
        if not f.q_minus.is_zero():
            total += f.q_minus.horner(rr, mp_from_fraction) * mpmath.exp(-kk * rr)
        if not f.q_ei.is_zero():
            ei_val = -mpmath.ei(2 * kk * rr)
            total += f.q_ei.horner(rr, mp_from_fraction) * mpmath.exp(-kk * rr) * ei_val
        return +total
