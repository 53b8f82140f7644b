"""Independent verification of the closed-form solutions.

Two kinds of checks live here.  The symbolic ones run in exact rational
arithmetic on one build of R2 per (n, l) (symbolic_checks), R1 being its L,
straight from the coefficients of L and P, differentiating and multiplying
nothing: the radial-operator residuals must vanish identically, and then, by
Abel's identity, one integer sum over R1's coefficients proves r^2 W(R1, R2)
constant.  The numeric ones rebuild R2's confluent parts from its defining
principal-value integral (_pv_oracle) by adaptive quadrature (QUADPACK's
QAGS, quadpack.qags; any nonzero QUADPACK code raises QuadratureFailure) and
compare R2's own P and L, held in x = 2 kappa r, and the pole-removing
split against it; pv_checks runs both on one build of R2 per state and one
PV quadrature per point.  A hard-coded table of known coefficient sets pins
the generated solutions exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import numeval
from .closedform import (
    QuantumNumbers,
    Radial,
    apply_radial_operator,
    assemble_R2,
    decay_derivative,
)
from .ratpoly import RatPoly, terms_text


class QuadratureFailure(ArithmeticError):
    """Quadrature that did not converge, or whose error estimate is above
    the acceptable bound."""


@dataclass
class VerificationReport:
    """One verify row: its fields are the document's columns, in order; n
    and l are None for a check that covers no single state."""
    n: int | None
    l: int | None
    check: str
    passed: bool
    residual_norm: float
    exact: bool = False
    details: str = ""


# -- symbolic checks ---------------------------------------------------------


def ode_residual_symbolic(residual: Radial, which: str) -> VerificationReport:
    """Pass iff the exact residual record apply_radial_operator(f) of a form
    f vanishes.  A failure names the residual's e^{+kappa r}, e^{-kappa r}
    and Ei parts in r, and its norm is their largest |coefficient|."""
    qn = residual.qn
    if residual.is_zero():
        return VerificationReport(qn.n, qn.l, f"ode_residual_{which}", True, 0.0, exact=True)
    ell = list(residual.L.ratio_terms(qn.x_per_r))
    p = None if residual.P is None else list(residual.P.ratio_terms(qn.x_per_r))
    plus, minus, ei = ("0", terms_text(ell), "0") if p is None else (terms_text(p), "0", terms_text(ell))
    # int / int rounds correctly, and rounding is monotone, so this is the
    # largest |float(c)| over the coefficients in r
    norm = max(abs(num) / den for _, num, den in ell + (p or []))
    return VerificationReport(qn.n, qn.l, f"ode_residual_{which}", False, norm,
                              details=f"nonzero residual buckets: plus={plus}, minus={minus}, ei={ei}")


def _num(q: RatPoly, power: int) -> int:
    """The numerator of q's x^power coefficient, over q.den."""
    i = power - q.low
    return q.nums[i] if 0 <= i < len(q.nums) else 0


def wronskian_symbolic(r1: Radial, r2: Radial, solves: bool) -> tuple[Fraction, VerificationReport]:
    """r^2 W(R1, R2) must equal the constant -n (n+l)! / (2 (n-l-1)!), which
    shows linear independence and pins R2's normalisation.

    ``solves`` says that both exact ODE residuals vanish; then r^2 W is
    constant by Abel's identity (DLMF 1.13(i)), W's exponential buckets
    vanish, and r^2 W = n x^2 W_x / 2.  With R1 = m1 e^{-x/2}, p = R2.P and
    e = R2.L in x = 2 kappa r, x^2 W_x = -(n+l)!/n_r! is the x^-2
    coefficient of m1 p' - m1' p + m1 p - m1 e x^-1: for m1's x^a term
    -(2a+1) p_{-1-a} + p_{-2-a} - e_{-1-a}, so it is one integer sum over
    m1's numerators, with no product formed.  The p_{-2-a} term is 0 on
    every state (m1 starts at x^l and p at x^{-l-1}); it is kept so that
    the sum is the whole identity on any records.
    """
    qn = r2.qn
    if not solves:
        return Fraction(0), VerificationReport(qn.n, qn.l, "wronskian", False, math.inf,
                                               details="a form does not solve the radial equation")
    n, m1, p, e = qn.n, r1.L, r2.P, r2.L
    total = sum(x * (e.den * (_num(p, -2 - a) - (2 * a + 1) * _num(p, -1 - a))
                     - p.den * _num(e, -1 - a))
                # each term reads p or e at -1-a or -2-a, zero below min(p.low, e.low)
                for a, x in zip(range(m1.low, -min(p.low, e.low)), m1.nums))
    # both sides as reduced integer pairs, so that a pass builds one Fraction
    num, den = n * total, 2 * m1.den * p.den * e.den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    e_num, e_den = -n * math.factorial(n + qn.l), 2 * math.factorial(qn.n_r)
    g = math.gcd(e_num, e_den)
    if num == e_num // g and den == e_den // g:
        r2w = Fraction(num, den)
        return r2w, VerificationReport(qn.n, qn.l, "wronskian", True, 0.0, exact=True,
                                       details=f"r^2 W = {r2w}")
    r2w, expected = Fraction(num, den), Fraction(e_num, e_den)
    return r2w, VerificationReport(qn.n, qn.l, "wronskian", False, float(abs(r2w - expected)),
                                   details=f"r^2 W = {r2w}, expected {expected}")


def symbolic_checks(qn: QuantumNumbers, checks: set[str]) -> list[VerificationReport]:
    """The exact checks named in ``checks`` ("ode", "wronskian") for one
    (n, l) on one build of the forms: R1 ODE, R2 ODE (both computed for either
    check, reported under "ode"), then the Wronskian, which rests on them.
    Nothing is differentiated or multiplied, and the operator runs once, on
    R2: R1 is Radial(qn, r2.L), so its residual is R2's e^{-x/2} bucket."""
    r2 = assemble_R2(qn)
    res2 = apply_radial_operator(r2)
    odes = [ode_residual_symbolic(Radial(qn, res2.L), "R1"), ode_residual_symbolic(res2, "R2")]
    reports = odes if "ode" in checks else []
    if "wronskian" in checks:
        reports.append(wronskian_symbolic(Radial(qn, r2.L), r2, all(rep.passed for rep in odes))[1])
    return reports


# -- principal-value integral oracle ----------------------------------------


def _upper_cutoff(n_r: int, m: int, x: float) -> float:
    # e^{-s} decay makes everything past here smaller than any tolerance used.
    return x + 60.0 + 10.0 * (m + n_r)


def _tail_bound(run: tuple, cutoff: float, x: float) -> float:
    # integral_X^inf s^k e^{-s} ds <= 2 X^k e^{-X} once X >= 2k; cutoff
    # construction guarantees that margin.  The envelope sum |c_k| X^k is
    # the Horner value of the run of the |c_k| at X.
    bound = numeval.horner(numeval.envelope(run), cutoff)
    return 2.0 * bound * math.exp(-cutoff) / max(cutoff - x, 1.0)


def _quad(fn, lo, hi) -> tuple[float, float]:
    # QUADPACK's QAGS at its one setting (quadpack.EPSABS, EPSREL, LIMIT),
    # imported here, since only the pv, split and integral checks integrate.
    # Any nonzero QUADPACK code fails loudly: its estimate is then no bound
    from .quadpack import IER, qags

    value, err, ier = qags(fn, lo, hi)
    if ier:
        raise QuadratureFailure(f"quadrature over [{lo}, {hi}] ended with QUADPACK code {ier}: {IER[ier]}")
    return value, err


def _pv_runs(h: RatPoly) -> tuple[tuple, tuple, tuple]:
    """Float runs of h(s) = s^m F(s) for the terminating regular solution F,
    and of D h and D^3 h with D: p -> p' - p, so that g = e^{-s} h has
    g^{(k)} = e^{-s} D^k h; D is closedform.decay_derivative."""
    d1 = decay_derivative(h)
    d3 = decay_derivative(decay_derivative(d1))
    return numeval.laurent_run(h), numeval.laurent_run(d1), numeval.laurent_run(d3)


def _pv_weighted_integral(runs: tuple[tuple, tuple, tuple], x: float, delta: float,
                          cutoff: float) -> tuple[float, float]:
    """PV integral_0^inf e^{-s} h(s)/(s-x) ds by symmetric pole excision,
    with the range past cutoff covered by the tail bound.

    The excised window contributes 2 delta g'(x) + delta^3 g'''(x)/9 +
    O(delta^5) where g(s) = e^{-s} h(s); both derivative terms are evaluated
    from the exact polynomial derivatives D h and D^3 h, whose runs follow
    h's in ``runs``.
    """
    h, d1, d3 = runs
    horner, exp = numeval.horner, math.exp
    up = h[0]  # h = s^m F has no negative powers: its whole run is ``up``

    def integrand(s: float) -> float:
        # horner(h, s) inline, since this runs at every abscissa; its closing
        # + 0.0 is left out, as no step v s + c gives -0.0 when c is not -0.0
        value = 0.0
        for c in up:
            value = value * s + c
        return exp(-s) * value / (s - x)

    left, err_l = _quad(integrand, 0.0, x - delta)
    right, err_r = _quad(integrand, x + delta, cutoff)
    g1 = math.exp(-x) * horner(d1, x)
    g3 = math.exp(-x) * horner(d3, x)
    window = 2.0 * delta * g1 + delta**3 * g3 / 9.0
    tail = _tail_bound(h, cutoff, x)
    return left + right + window, err_l + err_r + tail


def _confluent_parts(qn: QuantumNumbers) -> tuple[RatPoly, RatPoly]:
    """R2's P and L as the Laurent polynomials (g_exp, g_ei) in x = 2 kappa r
    of the irregular confluent solution g_exp(x) e^{x} + g_ei(x) Ei(1, -x),
    with g_ei = 1F1(-n_r; m+1; x).

    R2 = x^l e^{-x/2} times that solution, scaled by (n_r+m)!/(n_r! m!)."""
    r2 = assemble_R2(qn)
    norm = Fraction(math.factorial(qn.n_r) * math.factorial(qn.m), math.factorial(qn.n_r + qn.m))
    return tuple(q.shift(-qn.l) * norm for q in (r2.P, r2.L))


def _pv_oracle(n_r: int, m: int, runs: tuple[tuple, tuple, tuple], x: float) -> float:
    """Numeric irregular confluent solution from its principal-value integral:
    e^{x} x^{-m} PV integral_0^inf e^{-s} s^m F(s) / (s - x) ds with F the
    terminating regular solution, on the runs _pv_runs built once per state,
    by symmetric pole excision at delta = 1e-3 max(1, x) plus a Richardson
    check at delta/2."""
    if not x > 0:
        raise numeval.DomainError(f"the PV oracle requires x > 0, got {x!r}")
    if n_r + m > 12:
        raise ValueError("quadrature oracle is rated for n_r + m <= 12")
    delta = 1e-3 * max(1.0, x)
    cutoff = _upper_cutoff(n_r, m, x)
    coarse, err_c = _pv_weighted_integral(runs, x, delta, cutoff)
    fine, err_f = _pv_weighted_integral(runs, x, delta / 2.0, cutoff)
    scale = math.exp(x) / x**m
    value = scale * fine
    err = scale * (abs(coarse - fine) + err_c + err_f)
    rel = err / abs(value) if value != 0.0 else math.inf
    if rel > 1e-6:
        raise QuadratureFailure(
            f"PV quadrature error {rel:.2e} exceeds 1e-6 at (n_r={n_r}, m={m}, x={x})")
    return value


def pv_checks(qn: QuantumNumbers, xs: Sequence[float], checks: set[str]) -> list[VerificationReport]:
    """The principal-value checks named in ``checks`` ("pv", "split") for one
    state, in that order, from one build of R2 and one PV quadrature per
    point of ``xs``, each as the worst relative deviation; rows are named by
    the state's (n_r, m).

    pv compares the closed form g_exp e^x + g_ei Ei(1,-x) (to 1e-6), split
    the pole-removing split (to 1e-8): with F = g_ei and h = s^m F, that is
    e^x x^{-m} integral_0^inf e^{-s} (h(s)-h(x))/(s-x) ds + F(x) Ei(1,-x).
    The difference quotient is a genuine polynomial, so its quadrature has
    no pole; its coefficients, highest power first, are the partial sums of
    Horner's rule for h at x.
    """
    horner = numeval.horner
    n_r, m = qn.n_r, qn.m
    g_exp, g_ei = _confluent_parts(qn)
    runs = _pv_runs(g_ei.shift(m))
    g_exp, g_ei = numeval.laurent_run(g_exp), numeval.laurent_run(g_ei)
    # h = s^m F has no negative powers, so its whole run is ``up``; the
    # Horner sums before its last step are the quotient's coefficients
    h_head = runs[0][0][:-1]
    worst = {"pv": 0.0, "split": 0.0}
    for x in xs:
        pv = _pv_oracle(n_r, m, runs, x)
        ei_part = horner(g_ei, x) * numeval.ei_with_error(x)[0]
        if "pv" in checks:
            cf = horner(g_exp, x) * math.exp(x) + ei_part
            worst["pv"] = max(worst["pv"], abs(pv - cf) / max(abs(pv), abs(cf)))
        if "split" in checks:
            b, sums = 0.0, []
            for c in h_head:
                b = b * x + c
                sums.append(b)

            def smooth(s: float) -> float:
                # the quotient's Horner sum at s, inline as in _pv_weighted_integral
                value = 0.0
                for c in sums:
                    value = value * s + c
                return math.exp(-s) * value

            integral, err = _quad(smooth, 0.0, _upper_cutoff(n_r, m, x))
            if err > 1e-9 * max(1.0, abs(integral)):
                raise QuadratureFailure(f"smooth-part quadrature error {err:.2e} too large")
            rhs = math.exp(x) / x**m * integral + ei_part
            worst["split"] = max(worst["split"], abs(pv - rhs) / max(abs(pv), abs(rhs)))
    details = f"max relative deviation over {len(xs)} points"
    return [VerificationReport(None, None, f"{name}[{n_r},{m}]", worst[key] <= tol, worst[key],
                               details=details)
            for key, name, tol in (("pv", "pv_closedform", 1e-6), ("split", "pole_split", 1e-8))
            if key in checks]


FIRST_INTEGRAL_XS = (0.5, 1.0, 2.0)


def first_integral_closed_form_check(n_r: int, m: int) -> VerificationReport:
    """integral_0^inf e^{-s} (s^N - x^N)/(s-x) ds == sum_{j<N} (N-1-j)! x^j.

    Checked by quadrature for every N = m + k with k <= n_r at each x of
    FIRST_INTEGRAL_XS, to a relative 1e-8.
    """
    if n_r + m > 10:
        raise ValueError("rated for m + n_r <= 10")
    worst = 0.0
    for k in range(n_r + 1):
        power = m + k
        for x in FIRST_INTEGRAL_XS:
            # (s^N - x^N)/(s - x) = sum_j x^{N-1-j} s^j, the powers of x formed
            # once per (N, x) rather than at every abscissa
            x_powers = [x ** (power - 1 - j) for j in range(power)]

            def integrand(s: float) -> float:
                total = 0.0
                sj = 1.0
                for xp in x_powers:
                    total += xp * sj
                    sj *= s
                return math.exp(-s) * total

            cutoff = 60.0 + 10.0 * power
            integral, err = _quad(integrand, 0.0, cutoff)
            expected = sum(math.factorial(power - 1 - j) * x**j for j in range(power))
            worst = max(worst, abs(integral - expected) / abs(expected))
            if err > 1e-9 * abs(expected):
                raise QuadratureFailure(f"first-integral quadrature error {err:.2e} too large")
    ok = worst <= 1e-8
    return VerificationReport(None, None, f"first_integral[{n_r},{m}]", ok, worst,
                              details=f"powers {m}..{m + n_r} at x in {list(FIRST_INTEGRAL_XS)}")


# -- golden coefficient table -------------------------------------------------

F = Fraction

# Known irregular-solution coefficient sets, r-variable, for n <= 4.
GOLDEN_R2: dict[tuple[int, int], dict[str, dict[int, Fraction]]] = {
    (1, 0): {"q_plus": {-1: F(1, 2)}, "q_ei": {0: F(1)}},
    (2, 0): {"q_plus": {-1: F(1), 0: F(-1)}, "q_ei": {0: F(2), 1: F(-1)}},
    (2, 1): {"q_plus": {-2: F(2), -1: F(1), 0: F(1)}, "q_ei": {1: F(1)}},
    (3, 0): {"q_plus": {-1: F(3, 2), 0: F(-5, 2), 1: F(1, 3)},
             "q_ei": {0: F(3), 1: F(-2), 2: F(2, 9)}},
    (3, 1): {"q_plus": {-2: F(9, 2), -1: F(3), 0: F(3), 1: F(-2, 3)},
             "q_ei": {1: F(8, 3), 2: F(-4, 9)}},
    (3, 2): {"q_plus": {-3: F(81), -2: F(27, 2), -1: F(3), 0: F(1), 1: F(2, 3)},
             "q_ei": {2: F(4, 9)}},
    (4, 0): {"q_plus": {-1: F(2), 0: F(-13, 3), 1: F(11, 12), 2: F(-1, 24)},
             "q_ei": {0: F(4), 1: F(-3), 2: F(1, 2), 3: F(-1, 48)}},
    (4, 1): {"q_plus": {-2: F(8), -1: F(6), 0: F(6), 1: F(-9, 4), 2: F(1, 8)},
             "q_ei": {1: F(5), 2: F(-5, 4), 3: F(1, 16)}},
    (4, 2): {"q_plus": {-3: F(192), -2: F(48), -1: F(12), 0: F(4), 1: F(5, 2), 2: F(-1, 4)},
             "q_ei": {2: F(3, 2), 3: F(-1, 8)}},
    (4, 3): {"q_plus": {-4: F(11520), -3: F(960), -2: F(96), -1: F(12), 0: F(2), 1: F(1, 2), 2: F(1, 4)},
             "q_ei": {3: F(1, 8)}},
}


def golden_table_check() -> list[VerificationReport]:
    """Exact rational comparison of every generated R2, read in r, against
    GOLDEN_R2."""
    reports = []
    for (n, l), expected in sorted(GOLDEN_R2.items()):
        qn = QuantumNumbers(n, l)
        r2 = assemble_R2(qn)
        # the coeffs document prints P as q_plus and L as q_ei, in r
        bad = [name for name, q in (("q_plus", r2.P), ("q_ei", r2.L))
               if {k: F(a, b) for k, a, b in q.ratio_terms(qn.x_per_r)} != expected[name]]
        ok = not bad
        reports.append(VerificationReport(
            n, l, "golden_table", ok, 0.0 if ok else math.inf, exact=ok,
            details="exact match" if ok else f"mismatch in {', '.join(bad)}"))
    return reports
