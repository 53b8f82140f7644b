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
    """sum_k k!/x^k truncated at the smallest term, with that term and count.
    Every term is positive, so the partial sum is at least 1."""
    total = 1.0
    term = 1.0
    k = 0
    while True:
        nxt = term * (k + 1) / x
        if nxt >= term or nxt < total * 1e-18:
            break
        k += 1
        term = nxt
        total += term
    return total, term, k


def _ei(x: float) -> tuple[float, float]:
    """(value, estimated relative error) of Ei(1, -x); see ei_one_neg."""
    if not x > 0:
        raise DomainError(f"ei_one_neg requires x > 0, got {x!r}")
    if x <= _BRANCH_SPLIT:
        return _ei_series(x)
    if x > _OVERFLOW_X:
        raise OverflowSignal(f"Ei(1, -x) overflows double precision at x={x!r}")
    # -(e^x/x) sum_k k!/x^k truncated at the smallest term
    total, last_term, k = _asymptotic_sum(x)
    return -math.exp(x) / x * total, last_term / abs(total) + (k + 4) * _EPS


def ei_one_neg(x: float) -> EvalResult:
    """Principal value of integral_{-x}^{infinity} e^{-s}/s ds for x > 0.

    Returns the value (equal to -Ei(x) in the classical convention), an
    estimated relative error, and the branch used.  Past x = 708 the value,
    about -e^x/x, leaves double range and OverflowSignal is raised.
    """
    value, est = _ei(x)
    return EvalResult(value, est, "series" if x <= _BRANCH_SPLIT else "asymptotic")


def _bucket(name: str, p) -> tuple | None:
    """The fused run of one RatPoly bucket (see PreparedForm), or None for the
    zero polynomial."""
    if p.is_zero():
        return None
    try:
        run = p.float_run()
    except OverflowError as exc:
        raise OverflowSignal(f"the {name} coefficients exceed double precision") from exc
    pairs = [(c, abs(c)) for c in run.cs]
    split = -run.lo
    return tuple(reversed(pairs[split:])), tuple(pairs[:split]), max(p.degree, 0), min(p.low, 0)


@dataclass(frozen=True, slots=True)
class PreparedForm:
    """An ExpEiForm converted to floats once, for evaluation at many points.

    Each bucket (q_plus, q_minus, q_ei) is None when its polynomial is zero,
    else one fused run ``(up, down, top, bottom)`` of (c_k, |c_k|) pairs,
    padded with zeros the way ``RatPoly.float_run`` pads: ``up`` holds the
    powers max(degree, 0) down to 0, ``down`` the powers min(low, 0) up to
    -1, so that one Horner pass yields the value and the envelope
    sum |c_k| r^k together.  ``top`` and ``bottom`` are the highest and the
    lowest nonzero power, clipped at 0: the only powers whose r^k can
    overflow, for r > 1 and for r < 1.  ``width`` is the longest stored
    coefficient run.
    """

    kappa: float
    width: int
    plus: tuple | None
    minus: tuple | None
    ei: tuple | None


def prepare_form(f: ExpEiForm) -> PreparedForm:
    """Convert every coefficient of f to a float once (see eval_grid); raises
    OverflowSignal when a coefficient is beyond double range."""
    return PreparedForm(float(f.kappa),
                        max(len(f.q_plus.nums), len(f.q_minus.nums), len(f.q_ei.nums)),
                        _bucket("q_plus", f.q_plus), _bucket("q_minus", f.q_minus),
                        _bucket("q_ei", f.q_ei))


def _fused(bucket: tuple, r: float) -> tuple[float, float]:
    """(value, envelope sum |c_k| r^k) of one bucket at r > 0, from one
    Laurent Horner pass over its (c, |c|) pairs.

    The value takes the operations of ``HornerRun`` in its order, so it is
    the same double.  Raises OverflowSignal exactly when r^k overflows for
    the power k of some nonzero coefficient.
    """
    up, down, top, bottom = bucket
    try:
        r ** (top if r > 1.0 else bottom)
    except OverflowError as exc:
        raise OverflowSignal(
            f"conditioning envelope overflows double precision at r = {r!r}") from exc
    value = env = 0.0
    for c, a in up:
        value = value * r + c
        env = env * r + a
    if not down:
        return value + 0.0, env
    y = 1 / r
    dvalue = denv = 0.0
    for c, a in down:
        dvalue = dvalue * y + c
        denv = denv * y + a
    return value + dvalue * y, env + denv * y


def eval_grid(f: ExpEiForm | PreparedForm, rs) -> list[tuple[float, float, float]]:
    """Evaluate a symbolic radial form in double precision at every r of rs,
    as one (r, value, est_rel_error) row per point.

    The error estimate is built from the absolute-coefficient envelope of
    each bucket (which dominates the plain |A| + |C| cancellation penalty
    between the growing-exponential and Ei buckets), the rounding of the
    exponential arguments, and the Ei evaluation error.  The first point
    that cannot be evaluated raises: DomainError for r <= 0 or nan, and
    OverflowSignal when e^{kappa r}, Ei(1, -2 kappa r) or an envelope term
    leaves double range.
    """
    if not isinstance(f, PreparedForm):
        f = prepare_form(f)
    kappa, two_width, plus, minus, ei = f.kappa, 2 * f.width, f.plus, f.minus, f.ei
    rows = []
    for r in rs:
        if not r > 0:
            raise DomainError(f"eval_form requires r > 0, got {r!r}")
        round_factor = (two_width + kappa * r + 6) * _EPS
        a = b = c = abs_err = 0.0
        if plus is not None:
            try:
                grow = math.exp(kappa * r)
            except OverflowError as exc:
                raise OverflowSignal(f"exp({kappa * r}) overflows double precision") from exc
            value, env = _fused(plus, r)
            a = value * grow
            abs_err += env * grow * round_factor
        if minus is not None:
            decay = math.exp(-kappa * r)
            value, env = _fused(minus, r)
            b = value * decay
            abs_err += env * decay * round_factor
        if ei is not None:
            x = 2.0 * kappa * r
            ei_value, ei_est = _ei(x)
            # x*eps covers the argument-rounding sensitivity; the log term floors
            # the error where the series cancels through Ei's zero near x ~ 0.37
            ei_abs_err = (abs(ei_value) * (ei_est + x * _EPS)
                          + _EPS * (1.0 + abs(math.log(x))))
            decay = math.exp(-kappa * r)
            value, env = _fused(ei, r)
            c = value * decay * ei_value
            abs_err += env * decay * (abs(ei_value) * round_factor + ei_abs_err)
        value = a + b + c
        rows.append((r, value, abs_err / abs(value) if value != 0.0 else math.inf))
    return rows


def eval_form(f: ExpEiForm | PreparedForm, r: float) -> EvalResult:
    """eval_grid at the one point r, with the Ei branch as ``method``
    ("series" for a form without an Ei bucket).  A form evaluated at many
    points is passed through prepare_form once, or to eval_grid."""
    # checked before preparing, so that r <= 0 is a DomainError even for a
    # form whose coefficients leave double range
    if not r > 0:
        raise DomainError(f"eval_form requires r > 0, got {r!r}")
    if not isinstance(f, PreparedForm):
        f = prepare_form(f)
    ((_, value, est),) = eval_grid(f, (r,))
    method = "asymptotic" if f.ei is not None and 2.0 * f.kappa * r > _BRANCH_SPLIT else "series"
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
