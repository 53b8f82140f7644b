"""Independent reference oracles used only by the tests.

Each avoids the code path it checks:
- Ei(1, -x): the defining principal-value integral by mpmath quadrature,
  and the integer-counter loops that the package's two Ei loops over float
  indices must reproduce bit for bit;
- the free solutions: the modified spherical Bessel series summed term by
  term, and mpmath's Bessel I;
- the shell match: the force-free radial equation integrated by fixed-step
  RK4, the bisection that Brent's method replaced, and the exterior
  polynomial's DLMF coefficients in Fractions (``shell_runs``,
  ``shell_values``, ``shell_mixing`` and ``shell_probe`` are no reference:
  they redo match_shell's float operations, so that a test can check a
  value match_shell returned against a fresh evaluation of the same kernel);
- polynomials: products, substitutions and Laurent Horner on one
  fractions.Fraction per coefficient, not on the common-denominator
  integers RatPoly stores, the Laguerre and 1F1 factors from their
  factorial formulas, and P from its double sum and from its split form,
  independently of the package's recurrence and of each other;
- the radial operator: composed in r from the derivative of the general
  three-bucket form (ExpEiForm), into which ``buckets`` writes the
  package's records, held in x = 2 kappa r, through ``in_r``, one Fraction
  per coefficient, with Laurent products and sums that the package does not
  have; the derivatives the tests evaluate are that three-bucket derivative
  read back into x (``derivative_form``), not the package's one-pass kernel;
- the Wronskian: one coefficient of each Fraction Laurent product in x;
- double-precision evaluation: ``eval_form`` converts every coefficient of
  the three buckets again at every point and sums the envelope term by
  term; the grid kernel must reproduce its values bit for bit and its
  estimates within the rounding of the envelope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp
from scipy.optimize import brentq

from coulombwf import numeval
from coulombwf.closedform import KAPPA0, Radial, assemble_R1, assemble_R2, derivative
from coulombwf.numeval import _EPS, EULER_GAMMA, DomainError, OverflowSignal, ei_with_error
from coulombwf.ratpoly import RatPoly


def ei_pv_reference(x, dps: int = 50):
    """PV of integral_{-x}^inf e^{-s}/s ds by extended-precision quadrature.

    The pole window [-d, d] is handled analytically: its principal value is
    -2 integral_0^d sinh(t)/t dt, a smooth integral.
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        d = min(xm / 2, mp.mpf(1) / 2)
        left_pts = [-xm]
        if xm > 4:
            # geometric refinement toward the pole keeps quad honest when the
            # integrand spans hundreds of orders of magnitude
            k = 1
            while xm * mp.mpf(2) ** (-k) > d:
                left_pts.append(-xm * mp.mpf(2) ** (-k))
                k += 1
        left_pts.append(-d)
        i_left = mp.quad(lambda s: mp.exp(-s) / s, left_pts)
        i_window = -2 * mp.quad(lambda t: mp.sinh(t) / t, [0, d])
        i_right = mp.quad(lambda s: mp.exp(-s) / s, [d, mp.inf])
        return i_left + i_window + i_right


def ei_zero_by_bisection(lo: float = 0.37, hi: float = 0.38, tol: float = 1e-10) -> float:
    """Root of the reference integral between lo and hi, plain bisection."""
    f_lo = float(ei_pv_reference(lo))
    f_hi = float(ei_pv_reference(hi))
    assert f_lo * f_hi < 0, "bracket does not straddle the zero"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = float(ei_pv_reference(mid))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ei_series_loop(x: float) -> tuple[float, float]:
    """numeval._ei_series as first written, a while loop on an integer k
    (it took no log_x): the package's loop over float indices must give its
    value and estimate bit for bit."""
    total = EULER_GAMMA + math.log(x)
    term, k = 1.0, 0
    while k < 1000:
        k += 1
        term *= x / k
        contribution = term / k
        total += contribution
        if contribution < abs(total) * 1e-18 and k > 3:
            break
    return -total, (k + 4) * _EPS


def asymptotic_sum_loop(x: float) -> tuple[float, float, int]:
    """numeval._asymptotic_sum as first written, a while loop on an integer
    k: the package's loop over float indices must give its sum, last term
    and count bit for bit."""
    total = term = 1.0
    k = 0
    while True:
        nxt = term * (k + 1) / x
        if nxt >= term or nxt < total * 1e-18:
            break
        k += 1
        term = nxt
        total += term
    return total, term, k


def ei_with_error_loops(x: float) -> tuple[float, float]:
    """numeval.ei_with_error as first written, over the two loops above."""
    if not x > 0:
        raise DomainError(f"ei_with_error requires x > 0, got {x!r}")
    if x <= 40.0:
        value, est = ei_series_loop(x)
    elif x > 708.0:
        raise OverflowSignal(f"Ei(1, -x) overflows double precision at x={x!r}")
    else:
        total, last_term, k = asymptotic_sum_loop(x)
        value, est = -math.exp(x) / x * total, last_term / abs(total) + (k + 4) * _EPS
    return value, abs(value) * est + _EPS * (1.0 + abs(math.log(x)))


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sph_in_series(l: int, z: float, terms: int = 40) -> tuple[float, float]:
    """(i_l(z), i_l'(z)) from the power series z^{l+2k} / (2^k k! (2l+2k+1)!!)."""
    val = 0.0
    der = 0.0
    for k in range(terms):
        denom = 2**k * math.factorial(k) * _double_factorial(2 * l + 2 * k + 1)
        power = l + 2 * k
        val += z**power / denom
        if power > 0:
            der += power * z ** (power - 1) / denom
    return val, der


def sph_in_logderiv_mp(l: int, kappa: float, r: float, dps: int = 50) -> float:
    """d/dr log i_l(kappa r) from mpmath's Bessel I, i_l(z) = sqrt(pi/(2z)) I_{l+1/2}(z)."""
    with mp.workdps(dps):
        z = mp.mpf(kappa) * r
        nu = l + mp.mpf(1) / 2
        return float(kappa * (mp.besseli(nu - 1, z) / mp.besseli(nu, z) - nu / z) - 1 / (2 * mp.mpf(r)))


def central_diff(fn, x: float, h: float) -> float:
    """Fourth-order central finite difference of fn at x."""
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


# -- the radial operator and the Wronskian from derivatives and products ----------


def poly_add(p: RatPoly, q: RatPoly) -> RatPoly:
    """p + q over the common denominator lcm(p.den, q.den), reduced by one
    gcd; the package never adds two polynomials."""
    if q.is_zero():
        return p
    if p.is_zero():
        return q
    a, b, den = p.nums, q.nums, p.den
    if q.den != den:
        g = math.gcd(den, q.den)
        fa, fb = q.den // g, den // g
        a = [x * fa for x in a]
        b = [x * fb for x in b]
        den *= fa
    low = min(p.low, q.low)
    out = [0] * (max(p.degree, q.degree) - low + 1)
    for poly, nums in ((p, a), (q, b)):
        for i, x in enumerate(nums, poly.low - low):
            out[i] += x
    return RatPoly.from_nums(low, out, den)


def poly_sub(p: RatPoly, q: RatPoly) -> RatPoly:
    return poly_add(p, q * -1)


@dataclass(frozen=True)
class ExpEiForm:
    """The general form q_plus e^{+kr} + q_minus e^{-kr} + q_ei e^{-kr} Ei(1,-2kr)."""

    q_plus: RatPoly
    q_minus: RatPoly
    q_ei: RatPoly
    kappa: Fraction

    def derivative(self) -> ExpEiForm:
        """Exact d/dr bucket by bucket; the Ei-derivative contribution lands in
        the e^{+kr} bucket."""
        k = self.kappa
        q_plus = poly_sub(poly_add(self.q_plus.derivative(), self.q_plus * k), self.q_ei.shift(-1))
        q_minus = poly_sub(self.q_minus.derivative(), self.q_minus * k)
        q_ei = poly_sub(self.q_ei.derivative(), self.q_ei * k)
        return ExpEiForm(q_plus, q_minus, q_ei, k)


def r_buckets(qn, ell: RatPoly, p: RatPoly | None = None) -> ExpEiForm:
    """A record's polynomials in r as the three-bucket form: R1's L is the
    e^{-kr} bucket, R2's P the e^{+kr} bucket and its L the Ei bucket."""
    zero = RatPoly.zero()
    if p is None:
        return ExpEiForm(zero, ell, zero, qn.kappa)
    return ExpEiForm(p, zero, ell, qn.kappa)


def in_r(f: Radial) -> tuple[RatPoly, RatPoly | None]:
    """f's (L, P) as polynomials in r, x = 2 kappa r substituted one Fraction
    per coefficient."""
    c = 2 * f.qn.kappa
    return fraction_scale_arg(f.L, c), None if f.P is None else fraction_scale_arg(f.P, c)


@functools.lru_cache(maxsize=None)
def buckets(f: Radial) -> ExpEiForm:
    """The package's record, held in x = 2 kappa r, as the three-bucket form
    in r, substituted once per record."""
    return r_buckets(f.qn, *in_r(f))


def record_in_x(qn, ell: RatPoly, p: RatPoly | None = None) -> Radial:
    """The record whose polynomials in r are (ell, p): each coefficient
    substituted back r = x/(2 kappa)."""
    to_x = 1 / (2 * qn.kappa)
    return Radial(qn, fraction_scale_arg(ell, to_x), None if p is None else fraction_scale_arg(p, to_x))


def derivative_form(f: Radial) -> Radial:
    """f' as a record in x from the three-bucket derivative of f's buckets."""
    d = buckets(f).derivative()
    return record_in_x(f.qn, d.q_minus) if f.P is None else record_in_x(f.qn, d.q_ei, d.q_plus)


def laurent_mul(p: RatPoly, q: RatPoly) -> RatPoly:
    """p * q by the schoolbook convolution of the integer numerators over
    p.den q.den, reduced by one gcd; the package never multiplies two
    polynomials."""
    if p.is_zero() or q.is_zero():
        return RatPoly.zero()
    a, b = p.nums, q.nums
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return RatPoly.from_nums(p.low + q.low, out, p.den * q.den)


def form_sum(f: ExpEiForm, g: ExpEiForm) -> ExpEiForm:
    """f + g bucket by bucket, for two forms of one kappa."""
    return ExpEiForm(poly_add(f.q_plus, g.q_plus), poly_add(f.q_minus, g.q_minus),
                     poly_add(f.q_ei, g.q_ei), f.kappa)


def radial_operator_reference(f: Radial) -> ExpEiForm:
    """r^2 f'' + 2 r f' + (-kappa^2 r^2 + 2 r - l(l+1)) f composed as
    (r^2 f')' + V f on f's buckets from ExpEiForm.derivative, Laurent products
    and sums."""
    qn, f = f.qn, buckets(f)
    potential = RatPoly(0, (-qn.l * (qn.l + 1), 2 * KAPPA0, -(qn.kappa ** 2)))
    d = f.derivative()
    r2d = ExpEiForm(d.q_plus.shift(2), d.q_minus.shift(2), d.q_ei.shift(2), f.kappa)
    return form_sum(r2d.derivative(), ExpEiForm(laurent_mul(f.q_plus, potential),
                                                laurent_mul(f.q_minus, potential),
                                                laurent_mul(f.q_ei, potential), f.kappa))


def product_coefficient(p: RatPoly, q: RatPoly, k: int) -> Fraction:
    """The x^k coefficient of p q, one Fraction product per term of p."""
    qs = dict(q.terms())
    return sum((c * qs.get(k - i, 0) for i, c in p.terms()), Fraction(0))


def wronskian_x_constant(r1: Radial, r2: Radial) -> Fraction:
    """x^2 W_x(R1, R2) from the records' own polynomials in x = 2 kappa r.

    With R1 = m1 e^{-x/2}, R2 = p e^{x/2} + e e^{-x/2} Ei(1, -x) and
    d/dx Ei(1, -x) = -e^x/x, the exponential-free part of W_x is
    m1 (p' + p/2 - e/x) - (m1' - m1/2) p, and this is its x^-2 coefficient,
    one coefficient of each Laurent product."""
    m1, p, e = r1.L, r2.P, r2.L
    half = Fraction(1, 2)
    return (product_coefficient(m1, poly_sub(poly_add(p.derivative(), p * half), e.shift(-1)), -2)
            - product_coefficient(poly_sub(m1.derivative(), m1 * half), p, -2))


# -- fixed-step RK4 for the force-free regions of the Coulomb shell -------------


def _rk4(fderiv, r: float, y: tuple[float, float], h: float) -> tuple[float, float]:
    k1 = fderiv(r, y)
    k2 = fderiv(r + h / 2, (y[0] + h / 2 * k1[0], y[1] + h / 2 * k1[1]))
    k3 = fderiv(r + h / 2, (y[0] + h / 2 * k2[0], y[1] + h / 2 * k2[1]))
    k4 = fderiv(r + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
    return (
        y[0] + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        y[1] + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
    )


def _integrate_fixed(fderiv, r0: float, y0: tuple[float, float], r1: float,
                     h_target: float) -> tuple[float, float]:
    """Fixed-step RK4 from r0 to r1 (either direction), step count from h_target."""
    span = r1 - r0
    steps = max(1, math.ceil(abs(span) / h_target))
    h = span / steps
    y = y0
    r = r0
    for i in range(steps):
        y = _rk4(fderiv, r, y, h)
        r = r0 + (i + 1) * span / steps
        # renormalize to dodge under/overflow; only the ray (u, u') matters
        scale = max(abs(y[0]), abs(y[1]))
        if scale > 1e200 or (0.0 < scale < 1e-200):
            y = (y[0] / scale, y[1] / scale)
    return y


def _free_radial_deriv(qn):
    """u'' = -(2/r) u' + (kappa^2 + l(l+1)/r^2) u for the zero-potential regions."""
    kappa2 = float(qn.kappa) ** 2
    ll1 = qn.l * (qn.l + 1)

    def fderiv(r: float, y: tuple[float, float]) -> tuple[float, float]:
        u, du = y
        return du, -(2.0 / r) * du + (kappa2 + ll1 / r / r) * u

    return fderiv


def rk4_interior_logderiv(qn, a: float, h: float) -> float:
    """u'/u at a of the regular free solution, by RK4 at step h from a/64.

    Starts from the r^l series with its leading curvature correction.
    """
    r0 = a / 64.0
    l = qn.l
    c2 = float(qn.kappa) ** 2 / (2.0 * (2 * l + 3))
    y0 = (r0**l * (1.0 + c2 * r0**2),
          (l * r0 ** (l - 1) if l else 0.0) + (l + 2) * c2 * r0 ** (l + 1))
    u, du = _integrate_fixed(_free_radial_deriv(qn), r0, y0, a, h)
    return du / u


def rk4_exterior_logderiv(qn, b: float, h: float, reach: float = 40.0) -> float:
    """u'/u at b of the decaying free solution, by inward RK4 at step h.

    Starts at b + reach/kappa from the asymptotic e^{-kappa r}/r ray; the
    growing-mode contamination shrinks by e^{-2 reach} on the way in.
    """
    kappa = float(qn.kappa)
    r_start = b + reach / kappa
    u, du = _integrate_fixed(_free_radial_deriv(qn), r_start,
                             (1.0, -(kappa + 1.0 / r_start)), b, h)
    return du / u


def rk4_b_star(qn, a: float, b_range: tuple[float, float], h: float) -> float:
    """Outer boundary of the Coulomb shell with both free regions from RK4.

    The shell solution R1 + t R2 meets the RK4 interior log-derivative at a;
    the root of its log-derivative minus the RK4 exterior one is found by
    Brent's method.
    """
    r1, r2 = assemble_R1(qn), assemble_R2(qn)
    r1d, r2d = derivative_form(r1), derivative_form(r2)

    def pair(r):
        return [eval_form(f, r)[0] for f in (r1, r1d, r2, r2d)]

    ld_in = rk4_interior_logderiv(qn, a, h)
    v1, d1, v2, d2 = pair(a)
    t = (ld_in * v1 - d1) / (d2 - ld_in * v2)

    def mismatch(b):
        v1, d1, v2, d2 = pair(b)
        return (d1 + t * d2) / (v1 + t * v2) - rk4_exterior_logderiv(qn, b, h)

    return brentq(mismatch, *b_range, xtol=1e-12)


def shell_runs(qn) -> tuple:
    """(kappa, the ((L, P), (L', P')) runs, the q run, the q' run): the float runs
    that shellmatch.match_shell evaluates, from numeval.float_runs of R2 and
    R2' and the exterior polynomial."""
    from coulombwf.shellmatch import _exterior_q

    q, r2 = _exterior_q(qn), assemble_R2(qn)
    return (float(qn.kappa), (numeval.float_runs(r2), numeval.float_runs(derivative(r2), "R2'")),
            numeval.laurent_run(q), numeval.laurent_run(q.derivative()))


def shell_values(kappa: float, pairs: tuple, r: float) -> tuple[float, float, float, float]:
    """(R1, R2, R1', R2') at r from the ((L, P), (L', P')) runs by one point
    call of a numeval.evaluator over them, as match_shell makes it."""
    _, v1, v2, d1, d2 = numeval.evaluator(kappa, pairs)(r)
    return v1, v2, d1, d2


def shell_mixing(qn, runs: tuple, a: float) -> tuple[float, float]:
    """match_shell's (c1, c2) at the inner boundary a, from shell_runs(qn)."""
    from coulombwf.shellmatch import integrate_interior, mixing_from_inner_match

    u_a, du_a = integrate_interior(qn, a)
    v1, v2, d1, d2 = shell_values(*runs[:2], a)
    return mixing_from_inner_match((v1, d1, v2, d2), a, du_a / u_a)


def shell_probe(runs: tuple, c1: float, c2: float, b: float) -> tuple[float, float]:
    """(mismatch(b), M(b)) of match_shell for the mixing (c1, c2), from
    shell_runs' runs by match_shell's float operations."""
    kappa, pairs, q_run, qd_run = runs
    v1, v2, d1, d2 = shell_values(kappa, pairs, b)
    u, du = c1 * v1 + c2 * v2, c1 * d1 + c2 * d2
    q, qd = numeval.horner(q_run, b), numeval.horner(qd_run, b)
    outer, inner = du * q, u * (qd - kappa * q)
    return du / u - (-kappa + qd / q), (outer - inner) / (abs(outer) + abs(inner))


def bisection_match(qn, a: float, b_range: tuple[float, float]) -> tuple[float, float]:
    """(b_star, mismatch) of shellmatch.match_shell found by bisecting the sign
    of M, the root finder match_shell used before Brent's method: same inner
    mixing, same M, the same endpoint returns at an exact zero of the
    mismatch, and the same stopping rule (stop at the first midpoint with
    |mismatch| < 1e-8, or once the bracket is below 1e-13 max(1, |mid|)).
    Raises NoRootInRange (without the scan) when M keeps its sign over the
    bracket and MatchNotResolved when the bracket closes first."""
    from coulombwf.shellmatch import MatchNotResolved, NoRootInRange

    runs = shell_runs(qn)
    c1, c2 = shell_mixing(qn, runs, a)
    lo, hi = b_range
    f_lo, w_lo = shell_probe(runs, c1, c2, lo)
    f_hi, w_hi = shell_probe(runs, c1, c2, hi)
    if f_lo == 0.0:
        return lo, f_lo
    if f_hi == 0.0:
        return hi, f_hi
    if math.copysign(1.0, w_lo) == math.copysign(1.0, w_hi):
        raise NoRootInRange("M keeps its sign", [])
    mid, f_mid = lo, f_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid, w_mid = shell_probe(runs, c1, c2, mid)
        if abs(f_mid) < 1e-8:
            return mid, f_mid
        if math.copysign(1.0, w_mid) == math.copysign(1.0, w_lo):
            lo, w_lo = mid, w_mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(mid)):
            break
    raise MatchNotResolved(f"bisection closed at b = {mid!r} with mismatch {f_mid:.3e}")


def exterior_q_reference(l: int, kappa: Fraction) -> RatPoly:
    """sum_{j<=l} (l+j)!/(j!(l-j)!) (2 kappa)^{-j} r^{-j-1} (DLMF §10.49.12),
    one Fraction per coefficient."""
    return RatPoly(-l - 1, [Fraction(factorial(l + j), factorial(j) * factorial(l - j))
                            / (2 * kappa) ** j for j in range(l, -1, -1)])


# -- RatPoly arithmetic, one Fraction per coefficient -----------------------------


def poly_from_terms(terms: dict) -> RatPoly:
    """The polynomial with the given {power: coefficient} terms."""
    if not terms:
        return RatPoly.zero()
    low = min(terms)
    return RatPoly(low, [terms.get(k, 0) for k in range(low, max(terms) + 1)])


def fraction_mul(p: RatPoly, q: RatPoly) -> RatPoly:
    """p * q by the schoolbook convolution of Fraction coefficients."""
    if p.is_zero() or q.is_zero():
        return RatPoly.zero()
    a, b = p.coeffs, q.coeffs
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return RatPoly(p.low + q.low, tuple(out))


def fraction_scale_arg(p: RatPoly, c: Fraction) -> RatPoly:
    """p(c x), term by term: the coefficient of x^k times c^k."""
    return poly_from_terms({k: a * Fraction(c) ** k for k, a in p.terms()})


def float_horner(p: RatPoly, x: float) -> float:
    """Laurent Horner at x on float(c) of each Fraction coefficient, in the
    order the double-precision evaluator must reproduce bit for bit."""
    if p.is_zero():
        return 0.0
    lo, hi = min(p.low, 0), max(p.degree, -1)
    terms = dict(p.terms())
    cs = [float(terms.get(k, 0)) for k in range(lo, hi + 1)]
    up = 0.0
    for c in reversed(cs[-lo:]):
        up = up * x + c
    down = 0.0
    if lo < 0:
        y = 1 / x
        for c in cs[:-lo]:
            down = down * y + c
        down = down * y
    return up + down


# -- closed-form factors, one Fraction per coefficient ------------------------------


def fraction_laguerre_L1(n_r: int, m: int) -> RatPoly:
    """L(n_r, m) from the factorial formula of each Fraction coefficient."""
    top = factorial(n_r + m)
    coeffs = tuple(
        Fraction((-1) ** j * top, factorial(n_r - j) * factorial(m + j) * factorial(j))
        for j in range(n_r + 1)
    )
    return RatPoly(0, coeffs)


def pochhammer(a: int, k: int) -> int:
    """Rising factorial a (a+1) ... (a+k-1), with the empty product equal to 1."""
    out = 1
    for i in range(k):
        out *= a + i
    return out


def fraction_hyp1f1_terminating(n_r: int, m: int) -> RatPoly:
    """1F1(-n_r, m+1, x) from the Pochhammer ratio of each Fraction coefficient."""
    coeffs = tuple(
        Fraction(pochhammer(-n_r, k), pochhammer(m + 1, k) * factorial(k))
        for k in range(n_r + 1)
    )
    return RatPoly(0, coeffs)


# -- two constructions of P, checked against the package's recurrence -------------


def p2_doublesum(n_r: int, m: int) -> RatPoly:
    """The polynomial ``closedform.p2_recurrence`` builds, from the double sum

        (n_r+m)!/m! * sum_{k=0}^{n_r} sum_{j=0}^{m+k-1}
            (-n_r)_k (m+k-1-j)! / ((m+1)_k k!) * x^j

    in O((n_r+m)^2) integer products.

    Its c_k below is n_r! Lambda_k, Lambda_k the x^k coefficient of
    laguerre_L1(n_r, m), so the double sum is, coefficient for coefficient,
    the principal-value identity x^{l+1} P = S[x^{l+1} L] of R2's buckets,
    S[h](x) = sum_k h_k sum_{j<k} j! x^{k-1-j}, which
    test_oracle.py::test_pv_sum_identity_on_R2_buckets checks on every
    state with n <= 60: the identity reads Lambda from the package's L,
    and this sum writes it out.
    """
    if n_r < 0:
        raise ValueError("p2_doublesum needs n_r >= 0")
    if m < 1:
        raise ValueError("p2_doublesum needs m >= 1")
    # the prefactor times the k-th 1F1 coefficient is the integer
    # (-1)^k C(n_r, k) (n_r+m)!/(m+k)!
    facts = [factorial(i) for i in range(n_r + m + 1)]
    acc = [0] * (n_r + m)
    for k in range(n_r + 1):
        c_k = (-1) ** k * math.comb(n_r, k) * (facts[n_r + m] // facts[m + k])
        for j in range(m + k):
            acc[j] += c_k * facts[m + k - 1 - j]
    return RatPoly.from_nums(0, acc)


def p2_simplified(n_r: int, m: int) -> RatPoly:
    """Same polynomial as :func:`p2_doublesum`, built from the split form.

    The positive part sum_{p<m} (n_r+p)!(m-p-1)!/p! x^p is followed by an
    x^m-prefixed oscillating part whose coefficients combine harmonic tails
    sum 1/k with the products prod_{j=1..p} (n_r+m+j-k).  Empty sums are 0
    and empty products 1, which makes n_r = 0 collapse to the positive part.
    """
    if n_r < 0:
        raise ValueError("p2_simplified needs n_r >= 0")
    if m < 1:
        raise ValueError("p2_simplified needs m >= 1")
    terms: dict[int, Fraction] = {}
    for p in range(m):
        terms[p] = Fraction(factorial(n_r + p) * factorial(m - p - 1), factorial(p))
    lead = Fraction(factorial(n_r + m), factorial(m))
    if n_r >= 1:
        harmonic_tail = sum(Fraction(1, k) for k in range(m + 1, n_r + m + 1))
        terms[m] = -lead * harmonic_tail
        for p in range(1, n_r):
            inner = Fraction(0)
            for k in range(m + p + 1, n_r + m + 1):
                prod = 1
                for j in range(1, p + 1):
                    prod *= n_r + m + j - k
                inner += Fraction(prod, k)
            coeff = -lead * Fraction(factorial(m), factorial(m + p)) * Fraction((-1) ** p, factorial(p)) * inner
            terms[m + p] = coeff
    return poly_from_terms(terms)


# -- double-precision form evaluation, converting coefficients at every point -----


def _float_exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError as exc:
        raise OverflowSignal(f"exp({t}) overflows double precision") from exc


def _poly_abs_eval(p, r: float) -> float:
    """sum |c_k| r^k, the conditioning envelope of the float evaluation."""
    den = p.den
    try:
        return sum(abs(x) / den * r**k for k, x in enumerate(p.nums, p.low) if x)
    except OverflowError as exc:
        raise OverflowSignal(
            f"conditioning envelope overflows double precision at r = {r!r}") from exc


def eval_form(f: Radial, r: float) -> tuple[float, float]:
    """Evaluate R1 or R2 (or a derivative) at r > 0 in double precision,
    bucket by bucket on its three-bucket form.

    The error estimate is built from the absolute-coefficient envelope of
    each bucket (which dominates the plain |A| + |C| cancellation penalty
    between the growing-exponential and Ei buckets), the rounding of the
    exponential arguments, the Ei evaluation error and the absolute
    rounding of subnormal results and of a subnormal e^{-kappa r}.  Returns
    (value, est_rel_error).  Every bucket's envelope sum is formed before
    any exponential or Ei, so a point fails in the grid kernel's order.
    """
    if not 0 < r < math.inf:
        raise DomainError(f"eval_grid requires a finite r > 0, got {r!r}")
    f = buckets(f)
    kappa = float(f.kappa)
    width = 2 * max(len(f.q_plus.nums), len(f.q_minus.nums), len(f.q_ei.nums))
    round_factor = (width + kappa * r + 6) * _EPS
    env_plus, env, env_ei = (None if q.is_zero() else _poly_abs_eval(q, r)
                             for q in (f.q_plus, f.q_minus, f.q_ei))
    a = b = c = 0.0
    # each of the width + 6 rounding steps can lose 2^-1074 where its result
    # is subnormal
    abs_err = (width + 6) * 2.0 ** -1074
    if env_plus is not None:
        grow = _float_exp(kappa * r)
        a = float_horner(f.q_plus, r) * grow
        abs_err += env_plus * grow * round_factor
    if env is not None:
        decay = _float_exp(-kappa * r)
        b = float_horner(f.q_minus, r) * decay
        abs_err += env * decay * round_factor
        if decay < 2.0 ** -1022:
            # a subnormal e^{-kappa r} is off by up to 2^-1074 absolute
            abs_err += env * 2.0 ** -1074
    if env_ei is not None:
        x = 2.0 * kappa * r
        ei_value, ei_err = ei_with_error(x)
        # through Ei's relative error, as this reference has always rounded it
        ei_rel = ei_err / abs(ei_value) if ei_value != 0.0 else math.inf
        # x*eps covers the argument-rounding sensitivity; ei_with_error's own
        # estimate already holds the floor for the cancellation near its zero
        ei_abs_err = abs(ei_value) * (ei_rel + x * _EPS)
        decay = _float_exp(-kappa * r)
        c = float_horner(f.q_ei, r) * decay * ei_value
        poly_env = env_ei * decay
        abs_err += poly_env * (abs(ei_value) * round_factor + ei_abs_err)
    value = a + b + c
    return value, abs_err / abs(value) if value != 0.0 else math.inf
