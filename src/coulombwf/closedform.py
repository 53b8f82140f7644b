"""Exact closed forms for the hydrogenic bound-state radial problem.

Library units fix the Coulomb strength at 1, so the bound radial equation is

    r^2 R'' + 2 r R' + (-kappa^2 r^2 + 2 r - l(l+1)) R = 0,

lengths are reduced-mass-corrected Bohr radii divided by Z, kappa_n = 1/n, and
E_n = -1/(2 n^2).  The paper builds the irregular solution around the regular
one in x = 2 kappa r, where L and P have integer numerators over n_r!
(Kummer's equation, DLMF 13.2), and one record Radial(qn, L, P) holds them
there:

    R1 = L(x) e^{-x/2}                                (P is None),
    R2 = P(x) e^{+x/2} + L(x) e^{-x/2} Ei(1, -x),

where Ei(1, -x) is the principal value of integral_{-x}^{infinity} e^{-s}/s ds
and R2's L is R1's own polynomial.  No polynomial in r = x / (2 kappa) is
ever built: every reader that writes or evaluates a record in r takes its
coefficients from RatPoly.ratio_terms(qn.x_per_r), x_per_r = 2 kappa, the
one name of the substitution.  Since d/dx Ei(1, -x) = -e^x/x,
apply_radial_operator writes the residual in the same shape, and derivative
does so for d/dr, each in the same one integer pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .ratpoly import RatPoly, _make

# Coulomb strength in library units; kappa_n = KAPPA0 / n.
KAPPA0 = Fraction(1)


class InvalidQuantumNumbers(ValueError):
    """Quantum numbers outside n >= 1, 0 <= l <= n-1."""


@dataclass(frozen=True)
class QuantumNumbers:
    """Validated (n, l) pair with the derived bound-state bookkeeping; kappa
    and x_per_r are formed once, on first use, outside eq, hash and repr."""

    n: int
    l: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.l, int):
            raise InvalidQuantumNumbers("n and l must be integers")
        if self.n < 1:
            raise InvalidQuantumNumbers(f"principal quantum number n={self.n} must be >= 1")
        if not 0 <= self.l <= self.n - 1:
            raise InvalidQuantumNumbers(f"orbital l={self.l} must satisfy 0 <= l <= n-1={self.n - 1}")

    @property
    def n_r(self) -> int:
        """Radial quantum number (number of radial nodes)."""
        return self.n - self.l - 1

    @property
    def m(self) -> int:
        """Upper Laguerre index 2l + 1."""
        return 2 * self.l + 1

    @cached_property
    def kappa(self) -> Fraction:
        return KAPPA0 / self.n

    @cached_property
    def x_per_r(self) -> Fraction:
        """2 kappa, so that x = x_per_r r."""
        return 2 * self.kappa


def energy(qn: QuantumNumbers) -> Fraction:
    """Bound-state energy -1/(2 n^2) in library units."""
    return Fraction(-1, 2 * qn.n * qn.n)


# -- polynomial factors ------------------------------------------------------


def laguerre_L1(n_r: int, m: int) -> RatPoly:
    """Associated Laguerre polynomial of degree n_r, upper index m.

    Coefficient of x^j is (-1)^j (n_r+m)! / ((n_r-j)! (m+j)! j!), so the
    value at 0 is (n_r+m)!/(n_r! m!) and laguerre_L1(0, m) == 1; the build
    takes each from the x^(j-1) one by the exact ratio -(n_r-j+1)/((m+j) j).
    """
    if n_r < 0 or m < 0:
        raise ValueError("laguerre_L1 needs n_r >= 0 and m >= 0")
    # over the common denominator n_r!, the x^j numerator is the integer
    # (-1)^j C(n_r+m, n_r-j) n_r!/j!, which is (n_r+m)!/m! at j = 0
    nums = [math.perm(n_r + m, n_r)]
    for j in range(n_r):
        nums.append(-nums[-1] * (n_r - j) // ((m + j + 1) * (j + 1)))
    return _make(0, nums, math.factorial(n_r))


def p2_recurrence(n_r: int, m: int) -> RatPoly:
    """Polynomial factor P of the e^{x}/x^m part of the irregular solution.

    With g = 1F1(-n_r; m+1; x) and h = m!/(n_r+m)! x^{-m} P, the function
    h e^{x} + g Ei(1, -x) solves Kummer's equation x y'' + (m+1-x) y' + n_r y
    = 0 (DLMF 13.2.1), so h solves the inhomogeneous equation

        x h'' + (x+m+1) h' + (n_r+m+1) h = 2 g' + m g/x.

    In P's integer coefficients, with k = j-m+1 and
    G_k = (-1)^k C(n_r, k) (n_r+m)!/(m+k)! (zero for k < 0), that is the
    one-term recurrence

        P_j (j+n_r+1) = (m+2k) G_k - (j+1) k P_{j+1},

    run downwards from P_{n_r+m} = 0 to P_0.  Degree n_r + m - 1, all coefficients
    integers, leading coefficient (-1)^{n_r}.
    """
    return _make(0, _p2_nums(n_r, m), 1)


def _p2_nums(n_r: int, m: int) -> list[int]:
    """P's integer coefficients from x^0 up, as p2_recurrence builds them."""
    if n_r < 0:
        raise ValueError("p2_recurrence needs n_r >= 0")
    if m < 1:
        raise ValueError("p2_recurrence needs m >= 1")
    nums = [0] * (n_r + m)
    g, p = (-1) ** n_r, 0  # G_{n_r} and P_{n_r+m}
    for j in range(n_r + m - 1, m - 1, -1):
        k = j - m + 1
        p, rem = divmod((m + 2 * k) * g - (j + 1) * k * p, j + n_r + 1)
        # G_{k-1} = -G_k k (m+k)/(n_r-k+1), needed while k >= 1
        g, g_rem = divmod(-g * k * (m + k), n_r - k + 1)
        if rem or g_rem:
            raise ArithmeticError(f"inexact P recurrence at n_r={n_r}, m={m}, j={j}")
        nums[j] = p
    # from k = 0 down G_{k-1} = 0, so the step is P_j (j+n_r+1) = (j+1)(m-1-j)
    # P_{j+1}, plus m G_0 at k = 0 (j = m-1), where (m-1-j) vanishes
    top = m * g
    for j in range(m - 1, -1, -1):
        p, rem = divmod(top, j + n_r + 1)
        if rem:
            raise ArithmeticError(f"inexact P recurrence at n_r={n_r}, m={m}, j={j}")
        nums[j] = p
        top = j * (m - j) * p
    return nums


# -- symbolic radial solutions ----------------------------------------------


def _steps(q: RatPoly):
    """(k, q_k, q_{k-1}) for k from q.low to q.degree + 1."""
    x = q.nums
    return zip(range(q.low, q.low + len(x) + 1), x + (0,), (0,) + x)


def decay_derivative(q: RatPoly) -> RatPoly:
    """D q = q' - q, so that d/dx [q e^{-x}] = (D q) e^{-x}, in one pass: the
    x^(k-1) numerator over q.den is k q_k - q_{k-1}."""
    return _make(q.low - 1, [k * a - b for k, a, b in _steps(q)], q.den)


@dataclass(frozen=True)
class Radial:
    """R1 = L e^{-x/2} when P is None, else R2 = P e^{x/2} + L e^{-x/2} Ei(1, -x),
    with x = 2 kappa r and kappa = qn.kappa."""

    qn: QuantumNumbers
    L: RatPoly
    P: RatPoly | None = None

    def is_zero(self) -> bool:
        return self.L.is_zero() and (self.P is None or self.P.is_zero())


def assemble_R1(qn: QuantumNumbers) -> Radial:
    """Regular solution x^l e^{-x/2} L(n_r, 2l+1, x), x = 2 kappa r."""
    return Radial(qn, laguerre_L1(qn.n_r, qn.m).shift(qn.l))


def assemble_R2(qn: QuantumNumbers) -> Radial:
    """The irregular solution R2 of one (n, l), the one construction of a
    state, in the normalization that makes its Ei factor R1's own polynomial:

        1/n_r! x^{-l-1} e^{x/2} P(n_r, 2l+1, x) + x^l e^{-x/2} L(n_r, 2l+1, x) Ei(1, -x),

    so that where both forms are needed R1 is Radial(qn, r2.L).  Both are
    integer numerators over n_r! (P's from x^0 up); L's x^(n_r) one and P's
    leading one are (-1)^(n_r), so the gcd leaves P.den == L.den == n_r!.
    """
    p = _make(-qn.l - 1, _p2_nums(qn.n_r, qn.m), math.factorial(qn.n_r))
    return Radial(qn, laguerre_L1(qn.n_r, qn.m).shift(qn.l), p)


def _one_pass(f: Radial, run, ei: tuple[int, int], shift: int, den: int) -> Radial:
    """The record whose L numerators are run(L, -1) and whose P numerators are
    run(P, +1) less (a k + b) L_k, (a, b) = ei, run giving the x^(k+shift)
    numerator over den q.den for k from q.low to q.degree + 1; each polynomial
    reduced by one gcd."""
    p, e = f.P, f.L
    decay = _make(e.low + shift, run(e, -1), den * e.den)
    if p is None:
        return Radial(f.qn, decay)
    # the e^{+x/2} part over den lcm(p.den, e.den): P's own run times ed and
    # -(a k + b) L_k times pd, the two cofactors, which are 1 when the
    # denominators agree, as they do for every assembled R2
    g = math.gcd(p.den, e.den)
    ed, pd = e.den // g, p.den // g
    a, b = ei[0] * pd, ei[1] * pd
    low = min(p.low, e.low)
    i, j = e.low - low, e.degree + 1 - low
    head = run(p, 1)
    plus = [0] * (p.low - low) + (head if ed == 1 else [u * ed for u in head])
    plus += [0] * (j - len(plus))
    plus[i:j] = [x - (a * k + b) * u for x, k, u in zip(plus[i:j], range(e.low, e.degree + 1), e.nums)]
    return Radial(f.qn, decay, _make(low + shift, plus, den * pd * e.den))


def derivative(f: Radial) -> Radial:
    """d/dr of f as a record in x = 2 kappa r: L -> 2 kappa (L' - L/2) and
    P -> 2 kappa (P' + P/2 - L/x), since d/dx Ei(1, -x) = -e^x/x.

    With kappa = a/b, on q e^{s x/2} (s = +-1) the x^(k-1) coefficient is
    a (2 k q_k + s q_{k-1}) over b q.den, and R2's L adds -2 a L_k to the
    e^{+x/2} part.
    """
    a, b = f.qn.kappa.as_integer_ratio()
    return _one_pass(f, lambda q, s: [a * (2 * k * u + s * v) for k, u, v in _steps(q)],
                     (0, 2 * a), -1, b)


def apply_radial_operator(f: Radial) -> Radial:
    """r^2 f'' + 2 r f' + (-kappa^2 r^2 + 2 kappa0 r - l(l+1)) f, exactly, in
    f's shape, from its coefficients, with no derivative or product formed.

    With kappa0 = 1 and kappa = 1/n it is x^2 f'' + 2 x f' + (-x^2/4 + n x
    - l(l+1)) f in x = 2 kappa r, so substituting x = 2 kappa r commutes
    with it.  On q e^{s x/2} (s = +-1) it leaves (k-l)(k+l+1) q_k + (s k + n)
    q_{k-1} as the x^k coefficient over q.den, and R2's L adds -(2k+1) L_k to
    the e^{+x/2} part.
    """
    n, l = f.qn.n, f.qn.l
    return _one_pass(f, lambda q, s: [(k - l) * (k + l + 1) * u + (s * k + n) * v
                                      for k, u, v in _steps(q)],
                     (2, 1), 0, 1)
