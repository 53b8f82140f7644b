"""Exact Laurent-polynomial arithmetic over arbitrary-precision rationals.

A polynomial is stored densely: a lowest power (possibly negative) plus the
coefficient run from there upward, every coefficient a ``fractions.Fraction``.
All arithmetic is exact; nothing in this module touches floating point except
the explicit ``eval_float`` helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Arbitrary-precision rational scalar used throughout the package.  Fraction
# is always stored reduced with a positive denominator, which is exactly the
# invariant the exact checks rely on.
BigRational = Fraction

RationalLike = Fraction | int


class ZeroDenominator(ZeroDivisionError):
    """Raised when negative powers are evaluated at zero."""


def _fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class RatPoly:
    """Dense Laurent polynomial with exact rational coefficients.

    ``low`` is the power of the first stored coefficient, so

    >>> RatPoly(-1, (Fraction(1, 2), Fraction(0), Fraction(3)))
    RatPoly('1/2*x^-1 + 3*x')

    is x^-1/2 + 3x.  Construction normalizes: zero coefficients are trimmed
    from both ends and the zero polynomial is canonically ``RatPoly(0, ())``.
    """

    low: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_fraction(c) for c in self.coeffs)
        low = self.low
        start = 0
        while start < len(coeffs) and coeffs[start] == 0:
            start += 1
        end = len(coeffs)
        while end > start and coeffs[end - 1] == 0:
            end -= 1
        if start == end:
            low, coeffs = 0, ()
        else:
            low, coeffs = low + start, coeffs[start:end]
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> RatPoly:
        return cls(0, ())

    @classmethod
    def one(cls) -> RatPoly:
        return cls.constant(1)

    @classmethod
    def constant(cls, c: RationalLike) -> RatPoly:
        return cls(0, (_fraction(c),))

    @classmethod
    def monomial(cls, power: int, c: RationalLike = 1) -> RatPoly:
        return cls(power, (_fraction(c),))

    @classmethod
    def from_terms(cls, terms: dict[int, RationalLike]) -> RatPoly:
        if not terms:
            return cls.zero()
        low = min(terms)
        high = max(terms)
        coeffs = [Fraction(0)] * (high - low + 1)
        for power, c in terms.items():
            coeffs[power - low] += _fraction(c)
        return cls(low, tuple(coeffs))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Highest power present; the zero polynomial reports ``low - 1``."""
        return self.low + len(self.coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        if self.low <= power <= self.degree:
            return self.coeffs[power - self.low]
        return Fraction(0)

    def terms(self):
        """Yield (power, coefficient) pairs in ascending power order."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.low + i, c

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.terms())

    def max_abs_coeff_float(self) -> float:
        return max((abs(float(c)) for c in self.coeffs), default=0.0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: RatPoly | RationalLike) -> RatPoly:
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low = min(self.low, other.low)
        high = max(self.degree, other.degree)
        coeffs = [self.coeff(k) + other.coeff(k) for k in range(low, high + 1)]
        return RatPoly(low, tuple(coeffs))

    __radd__ = __add__

    def __neg__(self) -> RatPoly:
        return RatPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other: RatPoly | RationalLike) -> RatPoly:
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> RatPoly:
        return (-self) + other

    def __mul__(self, other: RatPoly | RationalLike) -> RatPoly:
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            if c == 0:
                return RatPoly.zero()
            return RatPoly(self.low, tuple(c * a for a in self.coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return RatPoly(self.low + other.low, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RatPoly:
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = RatPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus and substitution -----------------------------------------

    def derivative(self) -> RatPoly:
        """Term-wise d/dx, valid for negative powers too."""
        terms = {k - 1: k * c for k, c in self.terms() if k != 0}
        return RatPoly.from_terms(terms)

    def shift(self, offset: int) -> RatPoly:
        """Multiply by x**offset (offset may be negative)."""
        if self.is_zero():
            return self
        return RatPoly(self.low + offset, self.coeffs)

    def scale_arg(self, c: RationalLike) -> RatPoly:
        """Substitute x -> c*x exactly (c nonzero if negative powers exist)."""
        c = _fraction(c)
        if c == 0:
            raise ZeroDenominator("argument scale must be nonzero")
        return RatPoly.from_terms({k: a * c**k for k, a in self.terms()})

    def horner(self, x, conv):
        """Laurent Horner at x on the nonnegative- and negative-power parts, with
        every coefficient of powers min(low, 0)..max(degree, -1) converted by
        ``conv`` (to a float, an exact or an extended-precision scalar)."""
        zero = conv(0)
        if self.is_zero():
            return zero
        if self.low < 0 and x == 0:
            raise ZeroDenominator("negative powers evaluated at x = 0")
        lo, hi = min(self.low, 0), max(self.degree, -1)
        cs = [zero] * (self.low - lo) + [conv(c) for c in self.coeffs] + [zero] * (hi - self.degree)
        up = zero
        for c in reversed(cs[-lo:]):
            up = up * x + c
        down = zero
        if lo < 0:
            y = 1 / x
            for c in cs[:-lo]:
                down = down * y + c
            down = down * y
        return up + down

    def eval_rational(self, x: RationalLike) -> Fraction:
        """Exact evaluation."""
        return self.horner(_fraction(x), _fraction)

    def eval_float(self, x: float) -> float:
        """Double-precision evaluation (float image of the exact coefficients)."""
        return self.horner(x, float)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in self.terms():
            if k == 0:
                term = str(c)
            elif k == 1:
                term = f"{c}*x" if abs(c) != 1 else ("x" if c > 0 else "-x")
            else:
                term = f"{c}*x^{k}" if abs(c) != 1 else (f"x^{k}" if c > 0 else f"-x^{k}")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"RatPoly('{self}')"


def factorial(k: int) -> int:
    """Exact k! for k >= 0."""
    if k < 0:
        raise ValueError("factorial of a negative integer")
    return math.factorial(k)


def pochhammer(a: int, k: int) -> int:
    """Rising factorial a (a+1) ... (a+k-1), with the empty product equal to 1."""
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = 1
    for i in range(k):
        out *= a + i
    return out
