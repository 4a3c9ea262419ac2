"""Exact arithmetic in Q(i), the field of Gaussian rationals.

A GaussianRational is a pair of arbitrary-precision rationals (re, im)
representing re + im*i.  It is the coefficient domain for every symbolic
computation in this package: no floats enter until a value is explicitly
converted with complex().

Instances are immutable and hashable, so they can key dictionaries.
A component is an ``int`` when it is integral and otherwise a ``Fraction``
in lowest terms with a positive denominator.  That makes the representation
canonical and equality structural, and it keeps the common integral case on
Python ints: ``+``, ``-`` and ``*`` of integral parts never build a
``Fraction``.  ``__init__`` is the one place that turns an integral
``Fraction`` into an ``int``.  Because ``int / int`` is a float, a raw
component is divided only through ``Fraction`` (see ``inverse``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
Rationalish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        if type(re) is Fraction and re._denominator == 1:
            re = re._numerator
        if type(im) is Fraction and im._denominator == 1:
            im = im._numerator
        self.re = re
        self.im = im

    @staticmethod
    def coerce(x: Rationalish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Rational:
        """Field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            return GaussianRational(Fraction(1) / self.re)
        n = Fraction(self.norm())
        return GaussianRational(self.re / n, -self.im / n)

    def __add__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Rationalish) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        # real operands are by far the common case; skip the complex formula
        if not self.im:
            if not self.re:
                return ZERO
            return GaussianRational(self.re * o.re, self.re * o.im)
        if not o.im:
            return GaussianRational(self.re * o.re, self.im * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other: Rationalish) -> "GaussianRational":
        return GaussianRational.coerce(other) * self.inverse()

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational.coerce(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                s = "i"
            elif self.im == -1:
                s = "-i"
            else:
                s = f"{self.im}*i"
            if parts and not s.startswith("-"):
                parts.append("+" + s)
            else:
                parts.append(s)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational()
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gauss(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Convenience constructor from ints, Fractions, or strings like '2/3'."""
    def frac(x):
        if isinstance(x, GaussianRational):
            if not x.is_real:
                raise ValueError("component must be real")
            return x.re
        return Fraction(x)

    return GaussianRational(frac(re), frac(im))
