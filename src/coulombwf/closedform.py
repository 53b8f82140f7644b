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
and R2's L is R1's own polynomial.  Radial.in_r is the one place that
turns a record into polynomials in r = x / (2 kappa).  Since
d/dx Ei(1, -x) = -e^x/x, apply_radial_operator writes the residual in the
same shape in one integer pass, and derivative_in_r does so for d/dr of R2
on its polynomials in r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ratpoly import RatPoly, _make

# Coulomb strength in library units; kappa_n = KAPPA0 / n.
KAPPA0 = Fraction(1)


class InvalidQuantumNumbers(ValueError):
    """Quantum numbers outside n >= 1, 0 <= l <= n-1."""


@dataclass(frozen=True)
class QuantumNumbers:
    """Validated (n, l) pair with the derived bound-state bookkeeping."""

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

    @property
    def kappa(self) -> Fraction:
        return KAPPA0 / self.n


def energy(qn: QuantumNumbers) -> Fraction:
    """Bound-state energy -1/(2 n^2) in library units."""
    return Fraction(-1, 2 * qn.n * qn.n)


# -- polynomial factors ------------------------------------------------------


def laguerre_L1(n_r: int, m: int) -> RatPoly:
    """Associated Laguerre polynomial of degree n_r, upper index m.

    Coefficient of x^j is (-1)^j (n_r+m)! / ((n_r-j)! (m+j)! j!), so the
    value at 0 is (n_r+m)!/(n_r! m!) and laguerre_L1(0, m) == 1.
    """
    if n_r < 0 or m < 0:
        raise ValueError("laguerre_L1 needs n_r >= 0 and m >= 0")
    # over the common denominator n_r!, the x^j numerator is the integer
    # (-1)^j C(n_r+m, n_r-j) n_r!/j!
    nums = [(-1) ** j * math.comb(n_r + m, n_r - j) * math.perm(n_r, n_r - j)
            for j in range(n_r + 1)]
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

    run downwards from P_{n_r+m} = 0.  Degree n_r + m - 1, all coefficients
    integers, leading coefficient (-1)^{n_r}.
    """
    if n_r < 0:
        raise ValueError("p2_recurrence needs n_r >= 0")
    if m < 1:
        raise ValueError("p2_recurrence needs m >= 1")
    nums = [0] * (n_r + m)
    g, p = (-1) ** n_r, 0  # G_{n_r} and P_{n_r+m}
    for j in range(n_r + m - 1, -1, -1):
        k = j - m + 1
        p, rem = divmod((m + 2 * k) * g - (j + 1) * k * p, j + n_r + 1)
        # G_{k-1} = -G_k k (m+k)/(n_r-k+1), which is 0 from k = 0 down
        g, g_rem = divmod(-g * k * (m + k), n_r - k + 1)
        if rem or g_rem:
            raise ArithmeticError(f"inexact P recurrence at n_r={n_r}, m={m}, j={j}")
        nums[j] = p
    return _make(0, nums, 1)


# -- symbolic radial solutions ----------------------------------------------


def decay_derivative(q: RatPoly, n: int) -> RatPoly:
    """q' - q/n, so that d/dr [q e^{-r/n}] = (q' - q/n) e^{-r/n}, in one pass:
    the r^(k-1) numerator over n q.den is n k q_k - q_{k-1}."""
    x = q.nums
    return _make(q.low - 1, [n * k * a - b for k, a, b in
                             zip(range(q.low, q.low + len(x) + 1), x + (0,), (0,) + x)], n * q.den)


def derivative_in_r(n: int, ell: RatPoly, p: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Exact d/dr of R2 = P e^{r/n} + L e^{-r/n} Ei(1, -2r/n) from its
    polynomials (L, P) in r, in the same shape: L -> L' - L/n and
    P -> P' + P/n - L/r, each one pass over integer numerators over n times
    its denominators, reduced by one gcd."""
    # P' + P/n over n p.den, then -L/r, over n p.den ell.den
    y, low = p.nums, min(p.low, ell.low)
    plus = [0] * (max(p.degree + 2, ell.degree + 1) - low)
    for i, (k, a, b) in enumerate(zip(range(p.low, p.low + len(y) + 1), y + (0,), (0,) + y),
                                  p.low - low):
        plus[i] = (n * k * a + b) * ell.den
    for k, a in enumerate(ell.nums, ell.low):
        plus[k - low] -= n * p.den * a
    return decay_derivative(ell, n), _make(low - 1, plus, n * p.den * ell.den)


@dataclass(frozen=True)
class Radial:
    """R1 = L e^{-x/2} when P is None, else R2 = P e^{x/2} + L e^{-x/2} Ei(1, -x),
    with x = 2 kappa r and kappa = qn.kappa."""

    qn: QuantumNumbers
    L: RatPoly
    P: RatPoly | None = None

    def is_zero(self) -> bool:
        return self.L.is_zero() and (self.P is None or self.P.is_zero())

    def in_r(self) -> tuple[RatPoly, RatPoly | None]:
        """(L, P) as polynomials in r, x = 2 kappa r: the one record in r, for
        evaluation and a residual's failure text; the coefficient documents
        read their terms in r from RatPoly.ratio_terms(2 kappa) instead."""
        c = 2 * self.qn.kappa
        return self.L.scale_arg(c), None if self.P is None else self.P.scale_arg(c)


def assemble_R1(qn: QuantumNumbers) -> Radial:
    """Regular solution x^l e^{-x/2} L(n_r, 2l+1, x), x = 2 kappa r."""
    return Radial(qn, laguerre_L1(qn.n_r, qn.m).shift(qn.l))


def assemble_pair(qn: QuantumNumbers) -> tuple[Radial, Radial]:
    """R1 and the irregular solution R2 of one (n, l), sharing one L, in the
    normalization that makes R2's Ei factor R1's own polynomial:

        1/n_r! x^{-l-1} e^{x/2} P(n_r, 2l+1, x) + x^l e^{-x/2} L(n_r, 2l+1, x) Ei(1, -x).
    """
    r1 = assemble_R1(qn)
    # P's integer coefficients, from x^0 up, are the numerators of P/n_r!
    p = _make(-qn.l - 1, p2_recurrence(qn.n_r, qn.m).nums, math.factorial(qn.n_r))
    return r1, Radial(qn, r1.L, p)


def assemble_R2(qn: QuantumNumbers) -> Radial:
    """The irregular solution R2 of assemble_pair on its own."""
    return assemble_pair(qn)[1]


def apply_radial_operator(f: Radial) -> Radial:
    """r^2 f'' + 2 r f' + (-kappa^2 r^2 + 2 kappa0 r - l(l+1)) f, exactly, in
    f's shape, from its coefficients, with no derivative or product formed.

    With kappa0 = 1 and kappa = 1/n it is x^2 f'' + 2 x f' + (-x^2/4 + n x
    - l(l+1)) f in x = 2 kappa r, so in_r commutes with it.  On q e^{s x/2}
    (s = +-1) it leaves (k-l)(k+l+1) q_k + (s k + n) q_{k-1} as the x^k
    coefficient over q.den, and R2's L adds -(2k+1) L_k to the e^{+x/2}
    part; each polynomial is one integer pass, reduced by one gcd.
    """
    n, l = f.qn.n, f.qn.l

    def run(q: RatPoly, s: int) -> list[int]:
        # q.den times the x^k coefficients, k from q.low to q.degree + 1
        x = q.nums
        return [(k - l) * (k + l + 1) * a + (s * k + n) * b
                for k, a, b in zip(range(q.low, q.low + len(x) + 1), x + (0,), (0,) + x)]

    p, e = f.P, f.L
    decay = _make(e.low, run(e, -1), e.den)
    if p is None:
        return Radial(f.qn, decay)
    # the e^{+x/2} part over p.den e.den: P's own run and -(2k+1) L_k
    low = min(p.low, e.low)
    plus = [0] * (max(p.degree + 2, e.degree + 1) - low)
    for i, a in enumerate(run(p, 1), p.low - low):
        plus[i] = a * e.den
    for k, a in enumerate(e.nums, e.low):
        plus[k - low] -= p.den * (2 * k + 1) * a
    return Radial(f.qn, decay, _make(low, plus, p.den * e.den))
