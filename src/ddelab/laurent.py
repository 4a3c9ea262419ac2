"""Truncated Laurent series with certified windows.

A series represents a germ in the local variable t around a point.  The
stored data is a window of exactly known coefficients:

* every exponent below ``lo`` has coefficient exactly zero,
* exponents ``lo .. lo+width-1`` have the stored coefficients,
* exponents at or above the window end are unknown, unless ``exact`` is set,
  in which case they are exactly zero (the series is a Laurent polynomial).

Construction strips leading zero coefficients (an exact operation, since the
coefficient domain has a decidable zero test), so the first stored
coefficient is nonzero whenever the window contains a nonzero coefficient.
The reported ``order`` is therefore always the exact local order, never a
truncation artifact.  A window that contains only zeros means "vanishes to
the end of the window"; asking such a series for its order raises rather
than guessing.

Every arithmetic operation propagates the smallest surviving window, so any
coefficient you can read out is certified.

Internally the window is held as polynomial numerators over one shared
denominator: coefficient k is nums[k]/den.  Convolution, inversion, and
differentiation then run entirely in the polynomial ring, and fraction
reduction happens once per coefficient that is actually read out, not once
per intermediate product.  Inversion uses the denominator-free recursion
M_0 = 1, M_k = -sum_{j=1..k} N_j * M_{k-j} * N_0^(j-1), under which
coefficient k of the inverse of sum N_k/D t^k is D*M_k / N_0^(k+1).

A window built from separate fractions is put over the product of their
distinct denominators, not over their least common multiple.  The normal
form lives in ``fieldelem``: every new window gets its cheap monomial and
constant stages, and ``canonical()`` reduces the window jointly with all of
it.

An exact series of more than one term has no natural width for its inverse,
so ``inverse`` and ``div`` of such a series need the caller's ``width``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf
from typing import List, Sequence, Union

from .fieldelem import FieldElem, _reduce, _tighten
from .gaussian import ONE, GaussianRational
from .mpoly import MPoly

MAX_TRUNCATION = 128
_MAX_EXACT_WIDTH = 96

Coeffish = Union[int, Fraction, GaussianRational, FieldElem]


class SeriesWindowError(Exception):
    """A coefficient outside the certified window was requested."""


class UncertifiedOrderError(Exception):
    """The window shows only zeros, so the local order cannot be certified."""


class CompositionIndeterminateError(Exception):
    """A denominator series vanished to the end of its window."""


_ZERO_FE = FieldElem.const(0)
_ZERO_MP = MPoly()
_ONE_MP = MPoly.const(1)


class LaurentSeries:
    __slots__ = ("lo", "den", "nums", "exact")

    def __init__(self, lo: int, coeffs: Sequence[Coeffish], exact: bool = False):
        cs = [FieldElem.coerce(c) for c in coeffs]
        den, nums = _common_denominator(cs)
        self._setup(lo, den, nums, exact)

    @classmethod
    def _raw(cls, lo: int, den: MPoly, nums: List[MPoly], exact: bool) -> "LaurentSeries":
        out = object.__new__(cls)
        out._setup(lo, den, nums, exact)
        return out

    def _setup(self, lo: int, den: MPoly, nums: List[MPoly], exact: bool) -> None:
        nums = list(nums)
        while nums and nums[0].is_zero:
            nums.pop(0)
            lo += 1
        if exact:
            while nums and nums[-1].is_zero:
                nums.pop()
        if exact and len(nums) > _MAX_EXACT_WIDTH:
            nums = nums[:_MAX_EXACT_WIDTH]
            exact = False
        if not nums:
            den = _ONE_MP
            if exact:
                lo = 0  # the exact zero series has one canonical form
        else:
            den, nums = _tighten(den, nums)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "exact", bool(exact))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(known_below: int = 0, exact: bool = False) -> "LaurentSeries":
        return LaurentSeries._raw(known_below, _ONE_MP, [], exact)

    @staticmethod
    def monomial(c: Coeffish, exponent: int = 0) -> "LaurentSeries":
        fe = FieldElem.coerce(c)
        return LaurentSeries._raw(exponent, fe.den, [fe.num], True)

    # -- window bookkeeping ---------------------------------------------------

    @property
    def hi(self) -> "int | float":
        """First unknown exponent (inf for exact Laurent polynomials)."""
        return inf if self.exact else self.lo + len(self.nums)

    @property
    def stored_hi(self) -> int:
        return self.lo + len(self.nums)

    @property
    def order(self) -> "int | None":
        """Exact local order, or None if the window contains only zeros."""
        return self.lo if self.nums else None

    @property
    def leading(self) -> FieldElem:
        if not self.nums:
            raise UncertifiedOrderError("series vanishes to the end of its window")
        return self.coefficient(self.lo)

    def coefficient(self, e: int) -> FieldElem:
        if e < self.lo:
            return _ZERO_FE
        if e < self.stored_hi:
            return FieldElem(self.nums[e - self.lo], self.den)
        if self.exact:
            return _ZERO_FE
        raise SeriesWindowError(f"coefficient at exponent {e} is outside the certified window")

    def _num_at(self, e: int) -> MPoly:
        if self.lo <= e < self.stored_hi:
            return self.nums[e - self.lo]
        return _ZERO_MP

    def _min_order_bound(self) -> int:
        # every exponent below this is known to be zero
        return self.lo if self.nums else self.stored_hi

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "LaurentSeries":
        if isinstance(x, LaurentSeries):
            return x
        return LaurentSeries.monomial(FieldElem.coerce(x), 0)

    def __add__(self, other) -> "LaurentSeries":
        o = LaurentSeries._coerce(other)
        if self.exact and o.exact:
            if not self.nums and not o.nums:
                return LaurentSeries.zero(0, exact=True)
            lo = min(self._min_order_bound(), o._min_order_bound())
            hi = max(self.stored_hi, o.stored_hi)
            exact = True
        else:
            hi = int(min(self.hi, o.hi))
            lo = min(self.lo if self.nums else hi, o.lo if o.nums else hi)
            lo = min(lo, hi)
            exact = False
        d1, d2 = self.den, o.den
        if d1 is d2 or d1 == d2:
            vals = [self._num_at(e) + o._num_at(e) for e in range(lo, hi)]
            return LaurentSeries._raw(lo, d1, vals, exact)
        vals = []
        for e in range(lo, hi):
            n1, n2 = self._num_at(e), o._num_at(e)
            if n1.is_zero:
                vals.append(n2 * d1)
            elif n2.is_zero:
                vals.append(n1 * d2)
            else:
                vals.append(n1 * d2 + n2 * d1)
        return LaurentSeries._raw(lo, d1 * d2, vals, exact)

    __radd__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries._raw(self.lo, self.den, [-n for n in self.nums], self.exact)

    def __sub__(self, other) -> "LaurentSeries":
        return self + (-LaurentSeries._coerce(other))

    def __rsub__(self, other) -> "LaurentSeries":
        return LaurentSeries._coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentSeries":
        o = LaurentSeries._coerce(other)
        a, b = self, o
        if not a.nums or not b.nums:
            if (a.exact and not a.nums) or (b.exact and not b.nums):
                return LaurentSeries.zero(0, exact=True)
            bound = a._min_order_bound() + b._min_order_bound()
            return LaurentSeries.zero(bound, exact=False)
        width_a = inf if a.exact else len(a.nums)
        width_b = inf if b.exact else len(b.nums)
        width = min(width_a, width_b)
        if width is inf:
            width = len(a.nums) + len(b.nums) - 1
            exact = True
        else:
            width = int(width)
            exact = False
        lo = a.lo + b.lo
        vals = MPoly.convolve(a.nums, b.nums, width)
        return LaurentSeries._raw(lo, a.den * b.den, vals, exact)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        out = LaurentSeries.monomial(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self, width: "int | None" = None) -> "LaurentSeries":
        if not self.nums:
            if self.exact:
                raise ZeroDivisionError("inverse of the zero series")
            raise UncertifiedOrderError("cannot invert: order not certified within the window")
        if self.exact and len(self.nums) == 1:
            return LaurentSeries._raw(-self.lo, self.nums[0], [self.den], True)
        if self.exact:
            if width is None:
                raise ValueError("the inverse of an exact multi-term series needs a width")
            w = width
        else:
            w = len(self.nums)
            if width is not None:
                w = min(w, width)
        d = self.den
        n0 = self.nums[0]
        pows = [_ONE_MP]
        for _ in range(w):
            pows.append(pows[-1] * n0)
        nums = list(self.nums) + [_ZERO_MP] * (w - len(self.nums))
        # N_j * N_0^(j-1) is reused by every later step of the recursion
        nps: List[MPoly] = [_ZERO_MP]
        for j in range(1, w):
            nj = nums[j]
            nps.append(_ZERO_MP if nj.is_zero else nj * pows[j - 1])
        ms: List[MPoly] = [_ONE_MP]
        for k in range(1, w):
            ms.append(-MPoly.dot([(nps[j], ms[k - j]) for j in range(1, k + 1)]))
        dconst = d.is_constant() and d.constant_value() == ONE
        out: List[MPoly] = []
        for k in range(w):
            m = ms[k]
            if m.is_zero:
                out.append(_ZERO_MP)
                continue
            num = m * pows[w - 1 - k]
            if not dconst:
                num = num * d
            out.append(num)
        return LaurentSeries._raw(-self.lo, pows[w], out, False)

    def div(self, other, width: "int | None" = None) -> "LaurentSeries":
        o = LaurentSeries._coerce(other)
        if not o.nums:
            if o.exact:
                raise ZeroDivisionError("division by the zero series")
            raise CompositionIndeterminateError(
                "denominator series vanishes to the end of its window"
            )
        if width is None and not self.exact and self.nums:
            width = len(self.nums)
        return self * o.inverse(width=width)

    def __truediv__(self, other) -> "LaurentSeries":
        return self.div(other)

    def derivative(self) -> "LaurentSeries":
        vals = [n.scale(self.lo + k) for k, n in enumerate(self.nums)]
        return LaurentSeries._raw(self.lo - 1, self.den, vals, self.exact)

    def canonical(self) -> "LaurentSeries":
        """Cancel den factors shared by the whole window.

        Worth calling once per produced window: unreduced denominators fatten
        every later convolution that consumes the series.  Joint reduction is
        as far as the shared form shrinks; finer per-coefficient cancellation
        would regrow when coefficients are put back over one denominator.
        """
        if not self.nums:
            return self
        den, nums = _reduce(self.den, list(self.nums))
        return LaurentSeries._raw(self.lo, den, nums, self.exact)

    # -- comparison and display -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.exact != other.exact or self.lo != other.lo:
            return False
        if len(self.nums) != len(other.nums):
            return False
        return all(
            (a * other.den) == (b * self.den)
            for a, b in zip(self.nums, other.nums)
        )

    def __hash__(self):
        raise TypeError("LaurentSeries is not hashable")

    def __str__(self) -> str:
        """The nonzero coefficients, each reduced on its own for display, and
        an ``O(t^hi)`` tail unless the series is exact."""
        parts = []
        for i, n in enumerate(self.nums):
            if n.is_zero:
                continue
            e = self.lo + i
            cs = str(FieldElem(n, self.den))
            if any(ch in cs[1:] for ch in "+-") or "/" in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                te = "t" if e == 1 else f"t^{e}"
                parts.append(te if cs == "1" else f"{cs}*{te}")
        body = " + ".join(parts) if parts else "0"
        if self.exact:
            return body
        return f"{body} + O(t^{self.stored_hi})"

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"


# -- shared-denominator plumbing ----------------------------------------------


def _common_denominator(cs: Sequence[FieldElem]) -> tuple[MPoly, List[MPoly]]:
    """Put fractions over one shared denominator.

    The shared denominator is the product of the distinct denominators, and
    each numerator is multiplied by the denominators other than its own.  It
    may overshoot the least common multiple; ``canonical()`` reduces it.
    """
    if not cs:
        return _ONE_MP, []
    if all(c.den.is_constant() for c in cs):
        nums = []
        for c in cs:
            k = c.den.constant_value()
            nums.append(c.num if k == ONE else c.num.scale(k.inverse()))
        return _ONE_MP, nums
    dens: List[MPoly] = []
    for c in cs:
        if not any(d == c.den for d in dens):
            dens.append(c.den)
    den = _ONE_MP
    for d in dens:
        den = den * d
    nums = []
    for c in cs:
        num = c.num
        if not num.is_zero:
            for d in dens:
                if d != c.den:
                    num = num * d
        nums.append(num)
    return den, nums


def series_of_ratfunc(r: FieldElem, offset: Coeffish, width: int) -> LaurentSeries:
    """Expand a rational function of z around z = zhat + offset.

    The result is a series in the local variable t with coefficients that are
    exact field elements in zhat and any parameter symbols.  When ``r`` is a
    polynomial of degree below ``width`` in z, the expansion terminates and
    the series is exact.
    """
    num = _taylor_poly(r.num, offset, width)
    den = _taylor_poly(r.den, offset, width)
    return num.div(den, width=width)


def _taylor_poly(p: MPoly, offset: Coeffish, width: int) -> LaurentSeries:
    """p at z = c + t, c = zhat + offset, as a series in t.

    With p = sum_e P_e * z^e, coefficient m is
    sum_{e >= m} C(e, m) * P_e * c^(e - m): integer binomial weights on
    powers of c computed once, with no factorial to divide by.  The first
    ``width`` coefficients are kept, and the series is exact iff
    deg_z(p) < width.
    """
    ps = p.coefficients("z")
    pows = [_ONE_MP, MPoly.var("zhat") + MPoly.const(offset)][:len(ps)]
    while len(pows) < len(ps):
        pows.append(pows[-1] * pows[1])
    nums = []
    for m in range(min(width, len(ps))):
        tail = [
            (ps[e].scale(comb(e, m)) if m else ps[e], pows[e - m])
            for e in range(m + 1, len(ps))
        ]
        nums.append(ps[m] + MPoly.dot(tail) if tail else ps[m])
    return LaurentSeries._raw(0, _ONE_MP, nums, len(ps) <= width)


def compose_rational(
    num_coeffs: Sequence[FieldElem],
    den_coeffs: Sequence[FieldElem],
    s: LaurentSeries,
    offset: Coeffish,
    width: int,
) -> LaurentSeries:
    """Evaluate a rational function of w at w = S(t), z = center + offset + t.

    ``num_coeffs`` and ``den_coeffs`` list the w-power coefficients (rational
    functions of z) of numerator and denominator.
    """
    num = _poly_in_w_at_series(num_coeffs, s, offset, width)
    den = _poly_in_w_at_series(den_coeffs, s, offset, width)
    return num.div(den, width=width)


def _poly_in_w_at_series(
    coeffs: Sequence[FieldElem], s: LaurentSeries, offset: Coeffish, width: int
) -> LaurentSeries:
    acc = LaurentSeries.zero(0, exact=True)
    for c in reversed(list(coeffs)):
        acc = acc * s + series_of_ratfunc(c, offset, width)
    return acc
