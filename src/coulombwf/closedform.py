"""Exact closed forms for the hydrogenic bound-state radial problem.

Library units fix the Coulomb strength at 1, so the bound radial equation is

    r^2 R'' + 2 r R' + (-kappa^2 r^2 + 2 r - l(l+1)) R = 0,

lengths are reduced-mass-corrected Bohr radii divided by Z, kappa_n = 1/n, and
E_n = -1/(2 n^2).  Every solution handled here is a sum of three buckets

    q_plus(r) e^{+kappa r}  +  q_minus(r) e^{-kappa r}
                            +  q_ei(r) e^{-kappa r} Ei(1, -2 kappa r),

with Laurent-polynomial q's, where Ei(1, -x) is the principal value of
integral_{-x}^{infinity} e^{-s}/s ds.  That family is closed under d/dr
because d/dr Ei(1, -2 kappa r) = -e^{2 kappa r}/r, which moves the Ei
derivative into the e^{+kappa r} bucket exactly.  The radial operator maps
the family into itself too, so apply_radial_operator writes a residual's
coefficients straight from the form's, differentiating nothing.
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


@dataclass(frozen=True)
class ExpEiForm:
    """Symbolic radial function q_plus e^{+kr} + q_minus e^{-kr} + q_ei e^{-kr} Ei(1,-2kr)."""

    q_plus: RatPoly
    q_minus: RatPoly
    q_ei: RatPoly
    kappa: Fraction

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    def is_zero(self) -> bool:
        return self.q_plus.is_zero() and self.q_minus.is_zero() and self.q_ei.is_zero()

    def derivative(self) -> ExpEiForm:
        """Exact d/dr; the Ei-derivative contribution lands in the e^{+kr} bucket."""
        k = self.kappa
        q_plus = self.q_plus.derivative() + self.q_plus * k - self.q_ei.shift(-1)
        q_minus = self.q_minus.derivative() - self.q_minus * k
        q_ei = self.q_ei.derivative() - self.q_ei * k
        return ExpEiForm(q_plus, q_minus, q_ei, k)


def assemble_R1(qn: QuantumNumbers) -> ExpEiForm:
    """Regular solution (2 kr)^l e^{-kr} L(n_r, 2l+1, 2 kr) as an exact form in r."""
    q_minus = laguerre_L1(qn.n_r, qn.m).shift(qn.l).scale_arg(2 * qn.kappa)
    return ExpEiForm(RatPoly.zero(), q_minus, RatPoly.zero(), qn.kappa)


def assemble_pair(qn: QuantumNumbers) -> tuple[ExpEiForm, ExpEiForm]:
    """R1 and the irregular solution R2 of one (n, l), in the normalization
    that makes R2's Ei factor R1's own polynomial:

        1/n_r! (2 kr)^{-l-1} e^{+kr} P(n_r, 2l+1, 2 kr)
        + (2 kr)^l e^{-kr} L(n_r, 2l+1, 2 kr) Ei(1, -2 kr).
    """
    r1 = assemble_R1(qn)
    # P has integer coefficients from x^0 up, so its numerators over n_r! are
    # the 1/n_r! scaled P in one normalisation
    q_plus = _make(-qn.l - 1, p2_recurrence(qn.n_r, qn.m).nums, math.factorial(qn.n_r))
    return r1, ExpEiForm(q_plus.scale_arg(2 * qn.kappa), RatPoly.zero(), r1.q_minus, qn.kappa)


def assemble_R2(qn: QuantumNumbers) -> ExpEiForm:
    """The irregular solution R2 of assemble_pair on its own."""
    return assemble_pair(qn)[1]


def apply_radial_operator(f: ExpEiForm, qn: QuantumNumbers) -> ExpEiForm:
    """r^2 f'' + 2 r f' + (-kappa^2 r^2 + 2 kappa0 r - l(l+1)) f, exactly,
    from the buckets' coefficients, with no derivative or product formed.

    On a bucket q e^{s kappa r} (s = +-1) the operator leaves
    (k-l)(k+l+1) q_k + 2 (s kappa k + 1) q_{k-1} as the r^k coefficient; the
    Ei bucket e also adds -(2k+1) e_k to the e^{+kappa r} bucket, since
    d/dr Ei(1, -2 kappa r) = -e^{2 kappa r}/r.  With kappa0 = 1 and
    kappa = 1/n, each bucket is one pass over integer numerators over n times
    its denominators, reduced by one gcd.
    """
    n, l = qn.n, qn.l
    if (f.kappa.numerator, f.kappa.denominator) != (1, n):
        raise ValueError(f"apply_radial_operator needs f.kappa == 1/n = 1/{n}, got {f.kappa}")

    def run(q: RatPoly, s: int) -> list[int]:
        # n q.den times the r^k coefficients, k from q.low to q.degree + 1
        x = q.nums
        return [n * (k - l) * (k + l + 1) * a + 2 * (s * k + n) * b
                for k, a, b in zip(range(q.low, q.low + len(x) + 1), x + (0,), (0,) + x)]

    p, m, e = f.q_plus, f.q_minus, f.q_ei
    # the e^{+kappa r} bucket over n p.den e.den: p's own run and e's -(2k+1) e_k
    low = min(p.low, e.low)
    plus = [0] * (max(p.degree + 2, e.degree + 1) - low)
    for i, a in enumerate(run(p, 1), p.low - low):
        plus[i] = a * e.den
    for k, a in enumerate(e.nums, e.low):
        plus[k - low] -= n * p.den * (2 * k + 1) * a
    return ExpEiForm(_make(low, plus, n * p.den * e.den),
                     _make(m.low, run(m, -1), n * m.den),
                     _make(e.low, run(e, -1), n * e.den), f.kappa)
