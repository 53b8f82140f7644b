"""Exact Laurent polynomials over arbitrary-precision rationals.

A polynomial is stored densely over one common denominator: a lowest power
(possibly negative), the run of integer numerators from there upward, and a
positive denominator ``den``, so the coefficient of x^(low+i) is
nums[i]/den.  Scalar multiples, derivatives and shifts work on Python ints
and reduce their result by one gcd; two polynomials are never added or
multiplied.  The substitution x -> c x is never stored: ``ratio_terms(c)``
yields each coefficient after it, reduced by one gcd, for every reader that
writes or evaluates a record in another variable.  All arithmetic is exact,
and this module evaluates nothing: every point evaluation, exact or
floating, goes through ``numeval.laurent_run`` and ``numeval``'s Laurent
Horner loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

RationalLike = Fraction | int


class ZeroDenominator(ZeroDivisionError):
    """Raised when negative powers are evaluated at zero, or an argument is
    scaled by zero in ratio_terms."""


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational scalar."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_new = object.__new__
_set = object.__setattr__


def _raw(low: int, nums: tuple[int, ...], den: int) -> RatPoly:
    """A RatPoly from parts that are already canonical."""
    p = _new(RatPoly)
    _set(p, "low", low)
    _set(p, "nums", nums)
    _set(p, "den", den)
    return p


def _make(low: int, nums, den: int) -> RatPoly:
    """A canonical RatPoly from integer numerators over den > 0, unchecked:
    zeros trimmed from both ends, and numerators and den divided by their gcd."""
    if not any(nums):
        return _raw(0, (), 1)
    start, end = 0, len(nums)
    while not nums[start]:
        start += 1
    while not nums[end - 1]:
        end -= 1
    nums = nums[start:end]
    g = math.gcd(den, *nums)
    if g != 1:
        return _raw(low + start, tuple(x // g for x in nums), den // g)
    return _raw(low + start, tuple(nums), den)


def terms_text(terms) -> str:
    """(power, numerator, denominator) terms in ascending power order written
    as str(RatPoly) writes them, e.g. "1/2*x^-1 - 3*x"; "0" when there are none."""
    out = ""
    for k, num, den in terms:
        c = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        x = "" if k == 0 else "x" if k == 1 else f"x^{k}"
        term = c if not x else x if c == "1" else f"{c}*{x}"
        sign = ("-" if num < 0 else "") if not out else (" - " if num < 0 else " + ")
        out += sign + term
    return out or "0"


class RatPoly:
    """Dense Laurent polynomial with exact rational coefficients.

    ``low`` is the power of the first stored coefficient, so

    >>> RatPoly(-1, (Fraction(1, 2), Fraction(0), Fraction(3)))
    RatPoly('1/2*x^-1 + 3*x')

    is x^-1/2 + 3x, stored as ``nums == (1, 0, 6)`` over ``den == 2``.
    Construction normalizes: zero coefficients are trimmed from both ends,
    gcd(den, *nums) == 1, and the zero polynomial is canonically
    ``RatPoly(0, ())`` with ``den == 1``, so equal polynomials are equal
    records.  Instances are immutable.
    """

    __slots__ = ("low", "nums", "den")

    low: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, low: int, coeffs) -> None:
        ratios = [_ratio(c) for c in coeffs]
        den = math.lcm(*(d for _, d in ratios))
        canon = _make(low, [n * (den // d) for n, d in ratios], den)
        _set(self, "low", canon.low)
        _set(self, "nums", canon.nums)
        _set(self, "den", canon.den)

    def __setattr__(self, name, value):
        raise AttributeError(f"RatPoly is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RatPoly is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _make, (self.low, self.nums, self.den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RatPoly:
            return NotImplemented
        return self.low == other.low and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.low, self.nums, self.den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> RatPoly:
        return _raw(0, (), 1)

    @classmethod
    def from_nums(cls, low: int, nums, den: int = 1) -> RatPoly:
        """The polynomial whose x^(low+i) coefficient is nums[i]/den, from
        integer numerators over one positive integer denominator, both checked."""
        nums = list(nums)
        if not all(isinstance(x, int) for x in nums) or not isinstance(den, int):
            raise TypeError("from_nums needs integer numerators and denominator")
        if den <= 0:
            raise ValueError(f"from_nums needs a positive denominator, got {den}")
        return _make(low, nums, den)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The stored coefficient run as reduced Fractions (a fresh view)."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Highest power present; the zero polynomial reports ``low - 1``."""
        return self.low + len(self.nums) - 1

    def ratio_terms(self, c: RationalLike = 1):
        """Yield (power, numerator, denominator) of each nonzero coefficient
        after the substitution x -> c x (c nonzero), in ascending power order,
        reduced by one gcd each, with a positive denominator."""
        p, q = _ratio(c)
        if p == 0:
            raise ZeroDenominator("argument scale must be nonzero")
        den, low = self.den, self.low
        # the numerator x over den at power k goes to x p^k over den q^k, and
        # below k = 0 to x q^-k over den p^-k, with p's sign moved up, so each
        # side carries a running power of |k| and den's side stays positive
        top, bottom = (q if p > 0 else -q, abs(p)) if low < 0 else (p, q)
        up, down = top ** abs(low), bottom ** abs(low)
        for k, x in enumerate(self.nums, low):
            if k == 0:
                top, bottom = p, q
            if x:
                a, b = x * up, den * down
                g = math.gcd(a, b)
                yield k, a // g, b // g
            if k < 0:
                up //= top
                down //= bottom
            else:
                up *= top
                down *= bottom

    def terms(self):
        """Yield (power, coefficient) pairs in ascending power order."""
        for k, num, den in self.ratio_terms():
            yield k, Fraction(num, den)

    # -- scalar multiples --------------------------------------------------

    def __mul__(self, other: RationalLike) -> RatPoly:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        if p == 0 or not self.nums:
            return RatPoly.zero()
        return _make(self.low, [x * p for x in self.nums], self.den * q)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> RatPoly:
        """Term-wise d/dx, valid for negative powers too."""
        low = self.low
        return _make(low - 1, [k * x for k, x in enumerate(self.nums, low)], self.den)

    def shift(self, offset: int) -> RatPoly:
        """Multiply by x**offset (offset may be negative)."""
        if not self.nums:
            return self
        return _raw(self.low + offset, self.nums, self.den)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return terms_text(self.ratio_terms())

    def __repr__(self) -> str:
        return f"RatPoly('{self}')"

