"""Matching demo: Coulomb shell with force-free interior and exterior.

The potential is Coulombic only on [a, b]; inside r < a and outside r > b it
vanishes.  The energy is pinned to a hydrogenic level (the closed shell forms
exist only at quantized kappa), so the outer boundary b becomes the matching
unknown: the shell solution c1 R1 + c2 R2 is fixed against the regular
interior solution at a, and b is scanned until its log-derivative meets the
decaying exterior solution.  At energy -kappa^2/2 both force-free solutions
are modified spherical Bessel functions, i_l and k_l (DLMF §10.49(ii), §10.53).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import numeval
from .closedform import QuantumNumbers, assemble_R2, derivative
from .ratpoly import RatPoly, _make


class NoRootInRange(ValueError):
    """The normalised Wronskian M of match_shell keeps its sign over the
    bracket: the mismatch has no sign change there, or changes sign only
    through a pole at a node of u."""

    def __init__(self, message: str, scan: list[tuple[float, float]]):
        super().__init__(message)
        self.scan = scan


class MatchNotResolved(ArithmeticError):
    """match_shell's root search closed its bracket on M to 1e-13 max(1, |b|)
    with |mismatch| still above 1e-8: double precision cannot resolve the
    shell solution there.  The text starts "bisection closed at b = ", as
    it did while the search was a plain bisection, since callers match it."""


def _exterior_q(qn: QuantumNumbers) -> RatPoly:
    """q(r) = sum_{j<=l} (l+j)!/(j!(l-j)!) (2 kappa)^{-j} r^{-j-1}, so that
    k_l(kappa r) is proportional to e^{-kappa r} q(r) (DLMF §10.49.12).  All
    coefficients are positive: q and q' evaluate without cancellation."""
    l, n = qn.l, qn.n
    # with kappa = 1/n, (2 kappa)^{-j} = n^j 2^{l-j} / 2^l; from r^{-l-1}
    # (j = l) up to r^{-1} (j = 0)
    return _make(-l - 1, [math.comb(l + j, j) * math.perm(l, j) * n**j << (l - j)
                          for j in range(l, -1, -1)], 1 << l)


@dataclass(frozen=True)
class MatchResult:
    """The matched piecewise solution: the shell is c1 R1 + c2 R2 on [a, b_star],
    the interior and exterior solutions times their scales outside it.  ``runs``
    are the float run pairs ((L, P), (L', P')) of R2 and R2' by
    numeval.float_runs and ``q`` the float run of the exterior polynomial, each
    coefficient converted once, so that piecewise_grid converts none."""

    qn: QuantumNumbers
    a: float
    b_star: float
    c1: float
    c2: float
    mismatch: float
    # relative value/derivative jumps at a and b_star
    continuity: dict[str, float]
    interior_scale: float
    exterior_scale: float
    runs: tuple = field(repr=False, compare=False)
    q: tuple = field(repr=False, compare=False)


def integrate_interior(qn: QuantumNumbers, a: float) -> tuple[float, float]:
    """(u(a), u'(a)) of the regular zero-potential solution i_l(kappa r), u ~ r^l.

    u = r^l S, S = sum_k t_k, t_0 = 1, t_k = t_{k-1} (kappa r)^2 / (2k (2l+2k+1))
    (DLMF §10.53.3): all terms positive, so no cancellation at any kappa a.  The
    sum stops once a term is below rounding in both S and r S', or raises
    OverflowSignal once anything leaves double range, so it ends for every a.
    """
    if a <= 0:
        raise ValueError("inner boundary a must be positive")
    l = qn.l
    try:
        z2 = (float(qn.kappa) * a) ** 2
        scale, dscale = a**l, a ** (l - 1)
    except OverflowError as exc:
        raise numeval.OverflowSignal(
            f"interior solution overflows double precision at a = {a!r}") from exc
    s, rds, t, k = 1.0, 0.0, 1.0, 0
    while True:
        k += 1
        t *= z2 / (2 * k * (2 * l + 2 * k + 1))
        s += t
        rds += 2 * k * t
        if not math.isfinite(rds):
            raise numeval.OverflowSignal(f"interior series overflows at kappa*a = {math.sqrt(z2):.3g}")
        if t <= 1e-17 * s and 2 * k * t <= 1e-17 * rds:
            return scale * s, dscale * (l * s + rds)


def _require_in_range(what: str, r: float, values: tuple[float, ...],
                      nonzero: tuple[float, ...]) -> None:
    """Raise OverflowSignal unless every value is finite and nothing in
    ``nonzero`` is 0 at r: as r -> 0, R2 ~ r^{-l-1} overflows and u ~ r^l
    underflows, and then no mixing exists."""
    if not (all(map(math.isfinite, values)) and all(nonzero)):
        raise numeval.OverflowSignal(f"{what} at r = {r!r} is 0 or not finite in double precision")


def mixing_from_inner_match(pair: tuple[float, float, float, float], a: float,
                            interior_ld: float) -> tuple[float, float]:
    """(c1, c2) with c1^2 + c2^2 = 1 matching the interior log-derivative at a,
    from pair = (R1, R1', R2, R2') at a."""
    v1, d1, v2, d2 = pair
    den = d2 - interior_ld * v2
    # R1 = 0 alone is a node of R1 and mixes fine; R1 = R1' = 0 (or R2 = R2'
    # = 0) is underflow
    _require_in_range("R1, R1', R2, R2'", a, (v1, d1, v2, d2, den), (v1 or d1, v2 or d2, den))
    t = (interior_ld * v1 - d1) / den
    c1 = 1.0 / math.hypot(1.0, t)
    return c1, t * c1


def match_shell(qn: QuantumNumbers, a: float, b_range: tuple[float, float]) -> MatchResult:
    """Fix (c1, c2) at the inner boundary a, then find b over b_range by
    Brent's method.

    mismatch(b) is the shell log-derivative minus the exterior one.  It has a
    pole at every node of the shell solution u, so the root search works on
    the Wronskian of u with the exterior solution e^{-kappa r} q, normalised
    as M(b) = (u' q - u (q' - kappa q)) / (|u' q| + |u (q' - kappa q)|).  M
    has no poles (q > 0) and vanishes exactly where mismatch does.  Brent's
    method (zeroin: inverse quadratic or secant steps on M, with a bisection
    step whenever they would not shrink the bracket fast enough) keeps a
    sign change of M bracketed and returns at the first point where
    |mismatch| < 1e-8; on a bracket that holds several roots it may return
    any of them.  Raises NoRootInRange (with the scanned mismatch table
    attached) when M keeps its sign over the bracket, and MatchNotResolved
    when the bracket closes to 1e-13 max(1, |b|) before the mismatch falls
    below 1e-8.  Each value at a and at b_star is computed once: R1, R1', R2
    and R2' by one point call of the numeval.evaluator prepared once per
    match over both run pairs, with its guards and in its order, and q and
    q' by numeval.horner over their float runs.
    """
    b_min, b_max = b_range
    if not all(map(math.isfinite, (a, b_min, b_max))):
        raise ValueError(f"a and b_range must be finite, got a={a}, b_range={b_range}")
    if not 0 < a < b_min < b_max:
        raise ValueError(f"need 0 < a < b_min < b_max, got a={a}, b_range={b_range}")
    u_a, du_a = integrate_interior(qn, a)
    _require_in_range("interior u, u'", a, (u_a, du_a), (u_a, du_a))
    kappa, r2, ext = float(qn.kappa), assemble_R2(qn), _exterior_q(qn)
    runs = (numeval.float_runs(r2), numeval.float_runs(derivative(r2), "R2'"))
    q_run, qd_run = numeval.laurent_run(ext), numeval.laurent_run(ext.derivative())
    values = numeval.evaluator(kappa, runs)
    _, v1, v2, d1, d2 = values(a)
    c1, c2 = mixing_from_inner_match((v1, d1, v2, d2), a, du_a / u_a)
    u_sh_a, du_sh_a = c1 * v1 + c2 * v2, c1 * d1 + c2 * d2
    scale_in = u_sh_a / u_a

    def matched(point: tuple) -> MatchResult:
        b, mismatch, _, (u_sh_b, du_sh_b, q, qd) = point
        continuity = {
            "value_a": abs(scale_in * u_a - u_sh_a) / max(abs(u_sh_a), 1e-300),
            "deriv_a": abs(scale_in * du_a - du_sh_a) / max(abs(du_sh_a), 1e-300),
            # exterior is scaled to match the value at b exactly, so the jump is
            # carried entirely by the derivative via the log-derivative gap
            "value_b": 0.0,
            "deriv_b": abs((-kappa + qd / q) * u_sh_b - du_sh_b) / max(abs(du_sh_b), 1e-300),
        }
        return MatchResult(qn, a, b, c1, c2, mismatch, continuity, scale_in, u_sh_b / q, runs, q_run)

    def probe(b: float) -> tuple[float, float, float, tuple[float, float, float, float]]:
        """(b, mismatch(b), M(b), the (u, u', q, q') at b they come from)."""
        _, v1, v2, d1, d2 = values(b)
        u, du = c1 * v1 + c2 * v2, c1 * d1 + c2 * d2
        q, qd = numeval.horner(q_run, b), numeval.horner(qd_run, b)
        outer = du * q
        inner = u * (qd - kappa * q)
        return b, du / u - (-kappa + qd / q), (outer - inner) / (abs(outer) + abs(inner)), (u, du, q, qd)

    lo, hi = b_range
    p_lo, p_hi = probe(lo), probe(hi)
    f_lo, f_hi = p_lo[1], p_hi[1]
    if f_lo == 0.0:
        return matched(p_lo)
    if f_hi == 0.0:
        return matched(p_hi)
    if math.copysign(1.0, p_lo[2]) == math.copysign(1.0, p_hi[2]):
        # the first sample is lo and the last is hi unless it rounds off it:
        # their mismatches are known
        scan = [(b, f_lo if b == lo else f_hi if b == hi else probe(b)[1])
                for b in [lo + i * (hi - lo) / 16 for i in range(17)]]
        if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
            why = "mismatch has no sign change"
        else:
            why = "mismatch changes sign only through a pole (a node of u)"
        raise NoRootInRange(f"{why} on [{lo}, {hi}] (endpoints {f_lo:.3e}, {f_hi:.3e})", scan)
    # Brent's zeroin on M over points (b, mismatch, M, values): ``best`` has
    # the smallest |M| so far, ``other`` the other sign of M, and ``prev`` is
    # the previous best; ``step`` and ``last`` are the last two steps, and an
    # interpolated step is taken only while it lands inside the bracket and
    # shrinks faster than half of the step before last
    prev, best, other = p_lo, p_hi, p_lo
    step = last = hi - lo
    while True:
        if math.copysign(1.0, best[2]) == math.copysign(1.0, other[2]):
            other = prev
            step = last = best[0] - prev[0]
        if abs(other[2]) < abs(best[2]):
            prev, best, other = best, other, best
        b, w_b, w_prev = best[0], best[2], prev[2]
        half = 0.5 * (other[0] - b)
        tol = 0.5e-13 * max(1.0, abs(b))
        if abs(half) < tol:
            raise MatchNotResolved(
                f"bisection closed at b = {b!r} with mismatch {best[1]:.3e} above 1e-8: double "
                "precision cannot resolve the shell solution there")
        if abs(last) < tol or abs(w_prev) <= abs(w_b) or w_b == 0.0:
            step = last = half
        else:
            s = w_b / w_prev
            if prev[0] == other[0]:
                # secant through prev and best
                p, q = 2.0 * half * s, 1.0 - s
            else:
                # inverse quadratic interpolation through prev, best and other
                t, u = w_prev / other[2], w_b / other[2]
                p = s * (2.0 * half * t * (t - u) - (b - prev[0]) * (u - 1.0))
                q = (t - 1.0) * (u - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * half * q - abs(tol * q) and p < abs(0.5 * last * q):
                last, step = step, p / q
            else:
                step = last = half
        prev = best
        best = probe(b + (step if abs(step) > tol else math.copysign(tol, half)))
        if abs(best[1]) < 1e-8:
            return matched(best)


def piecewise_grid(result: MatchResult, points: int) -> list[tuple[float, float]]:
    """Sampled (r, u) values of the matched piecewise solution, shell scale;
    the shell samples take R1 and R2 from one numeval.evaluator, prepared
    over the first pair of the result's runs, (L, P), and called once per
    sample, the exterior ones q from numeval.horner.  No shell sample
    raises: match_shell has run the evaluator's guards at a and b_star over
    both pairs, whose powers include (L, P)'s, and each guarded power and
    factor is largest at one of them."""
    a, b, c1, c2, kappa = result.a, result.b_star, result.c1, result.c2, float(result.qn.kappa)
    r_max = 1.5 * b
    rs = [(i + 1) * r_max / points for i in range(points)]
    # the interior series shares the normalization u ~ r^l at every r, so the
    # matched interior scale applies directly
    out = [(r, result.interior_scale * integrate_interior(result.qn, r)[0]) for r in rs if r < a]
    out += [(r, c1 * v1 + c2 * v2) for r, v1, v2 in
            map(numeval.evaluator(kappa, result.runs[:1]), [r for r in rs if a <= r <= b])]
    out += [(r, result.exterior_scale * math.exp(-kappa * (r - b)) * numeval.horner(result.q, r))
            for r in rs if r > b]
    return out
