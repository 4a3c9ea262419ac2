"""Delay-differential equation classes and their normal form.

Three equation shapes are supported, all written with the difference
w(z+1) - w(z-1) on the left:

  log-deriv        w(z+1) - w(z-1) + a(z) w'(z)/w(z) = P(z,w)/Q(z,w)
  pure-log-deriv   w(z+1) - w(z-1) + a(z) w'(z)/w(z) = b(z)
  inverse-square   w(z+1) - w(z-1) = (a(z) w'(z) + b(z) w(z)) / w(z)^2 + c(z)

Every equation also carries the derived normal form

  w(z+1) = w(z-1) + N(z, w(z), w'(z))

which is what the cascade engine consumes.  Both views are exact.

A log-deriv equation is given as P over its factored denominator
prod (w - r_i)^m_i * R, the form the paper states the class in, with R an
optional residual factor.  Q is the expansion of that form, computed once
when the equation is built.  P and Q are kept as given: P/Q, the degrees, the
common-root test and the normal form do not change when both are scaled by a
common factor, so neither is normalized.

The module also provides degree reports for the right-hand side as a
rational map of w and the common-root test for P and Q.  Since Q is the
product of the supplied factors and R, P and Q share a root exactly when P
vanishes at a supplied root or when P and R share one, and nonzero P and R
share a root over the algebraic closure of Q(i)(z) exactly when their gcd in
Q(i)(z)[w] has positive degree.  Euclid's remainder sequence decides that
exactly, and runs only on a residual R of positive degree in w.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .fieldelem import FieldElem, _ulist_divmod
from .laurent import LaurentSeries, compose_rational, series_of_ratfunc
from .record import ReadOnly

_ZERO = FieldElem.const(0)
_ONE = FieldElem.const(1)


class EquationError(ValueError):
    """Raised when an equation fails structural validation."""


class EqKind(str, Enum):
    LOG_DERIV = "log-deriv"
    PURE_LOG_DERIV = "pure-log-deriv"
    INVERSE_SQUARE = "inverse-square"


# ---------------------------------------------------------------------------
# polynomials in w with rational-function coefficients


class WPoly:
    """Polynomial in w over the field of rational functions of z.

    Coefficients are stored by ascending power of w; the leading coefficient
    is never identically zero (the zero polynomial stores an empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[FieldElem]):
        cs = [FieldElem.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs: Tuple[FieldElem, ...] = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> FieldElem:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def evaluate(self, x: FieldElem) -> FieldElem:
        """Horner's rule from the top coefficient: d products at degree d."""
        if self.is_zero:
            return _ZERO
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "WPoly") -> "WPoly":
        if self.is_zero or other.is_zero:
            return WPoly([])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return WPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        raise TypeError("WPoly is not hashable")


class FactoredDenominator(ReadOnly):
    """Denominator supplied in factored form: product of (w - root)^mult.

    An optional residual factor covers a part the supplier asserts has no
    roots rational in z; it need not be monic.
    """

    __slots__ = ("factors", "residual")

    def __init__(self, factors: Tuple[Tuple[FieldElem, int], ...],
                 residual: Optional[WPoly] = None):
        roots = [r for r, _ in factors]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if roots[i] == roots[j]:
                    raise EquationError("duplicate denominator factor roots")
        for _, m in factors:
            if m < 1:
                raise EquationError("factor multiplicity must be positive")
        self._set(factors=factors, residual=residual)

    __eq__ = ReadOnly._same_fields

    def expand(self) -> WPoly:
        """The product, one linear factor at a time.  The coefficients below
        the leading 1 are c_0 .. c_(n-1); multiplying by (w - r) gives
        c_k <- c_(k-1) - r*c_k, with c_(-1) = 0 and the new c_n = c_(n-1) - r.
        The leading 1 takes no product, so m factors cost m(m-1)/2."""
        low: List[FieldElem] = []
        for root, mult in self.factors:
            for _ in range(mult):
                low = ([-root * c for c in low[:1]]
                       + [lo - root * hi for lo, hi in zip(low, low[1:])]
                       + [low[-1] - root if low else -root])
        product = WPoly(low + [_ONE])
        return product if self.residual is None else product * self.residual

    def roots(self) -> Tuple[FieldElem, ...]:
        return tuple(r for r, _ in self.factors)


# ---------------------------------------------------------------------------
# the equation object


class DelayDiffEq(ReadOnly):
    __slots__ = ("kind", "a", "b", "c", "p_poly", "q_factors", "q_poly")

    def __init__(self, kind: EqKind, a: FieldElem = _ZERO, b: FieldElem = _ZERO,
                 c: FieldElem = _ZERO, p_poly: Optional[WPoly] = None,
                 q_factors: Optional[FactoredDenominator] = None):
        q = None
        if kind in (EqKind.PURE_LOG_DERIV, EqKind.INVERSE_SQUARE) and a.is_zero:
            raise EquationError(f"a(z) identically zero is outside the {kind.value} class")
        if kind == EqKind.LOG_DERIV:
            if p_poly is None or q_factors is None:
                raise EquationError("log-deriv equations need P and the factored Q")
            q = q_factors.expand()
            if q.is_zero:
                raise EquationError("denominator Q is identically zero")
            if q.coefficient(0).is_zero:
                raise EquationError("Q(z, 0) must not vanish identically")
        self._set(kind=kind, a=a, b=b, c=c, p_poly=p_poly, q_factors=q_factors, q_poly=q)

    __eq__ = ReadOnly._same_fields


def make_log_deriv(a: FieldElem, p_poly: WPoly, q_factors: FactoredDenominator) -> DelayDiffEq:
    return DelayDiffEq(EqKind.LOG_DERIV, a=a, p_poly=p_poly, q_factors=q_factors)


def make_pure_log_deriv(a: FieldElem, b: FieldElem) -> DelayDiffEq:
    return DelayDiffEq(EqKind.PURE_LOG_DERIV, a=a, b=b)


def make_inverse_square(a: FieldElem, b: FieldElem, c: FieldElem = _ZERO) -> DelayDiffEq:
    return DelayDiffEq(EqKind.INVERSE_SQUARE, a=a, b=b, c=c)


# ---------------------------------------------------------------------------
# degree data and the common-root test


def rational_degree(eq: DelayDiffEq) -> Dict[str, int]:
    """Degrees in w of the right-hand side P/Q, driving pole-order growth:
    ``{"num": deg P, "den": deg Q, "map": the larger}``, where "map" is the
    degree of P/Q as a map of w."""
    if eq.kind != EqKind.LOG_DERIV:
        raise ValueError("degree report applies to the log-deriv class")
    dp = eq.p_poly.degree
    dq = eq.q_poly.degree
    return {"num": dp, "den": dq, "map": max(dp, dq)}


def shares_root(p: WPoly, q_factors: FactoredDenominator) -> bool:
    """Whether nonzero P and the expansion Q of ``q_factors`` share a root in
    w, decided as the module docstring says: P at each supplied root, then
    Euclid's remainder sequence of P and a residual of positive degree."""
    if any(p.evaluate(r).is_zero for r in q_factors.roots()):
        return True
    res = q_factors.residual
    if res is None or res.degree < 1:
        return False
    a, b = list(p.coeffs), list(res.coeffs)
    while b:
        a, b = b, _ulist_divmod(a, b)[1]
    return len(a) > 1


# ---------------------------------------------------------------------------
# the normal form w(z+1) = w(z-1) + N(z, w, w')


def normal_form_series(
    eq: DelayDiffEq,
    offset,
    w: LaurentSeries,
    width: int,
) -> LaurentSeries:
    """Evaluate N at z = zhat + offset + t with w given as a series in t.

    The inverse-square N is grouped as (a w' / w + b) / w + c, one series
    product fewer than a w' / w^2 + b / w + c.
    """
    wp = w.derivative()
    a_s = series_of_ratfunc(eq.a, offset, width)
    if eq.kind == EqKind.INVERSE_SQUARE:
        b_s, c_s = (series_of_ratfunc(f, offset, width) for f in (eq.b, eq.c))
        winv = w.inverse(width)
        return (a_s * wp * winv + b_s) * winv + c_s
    # both log-derivative classes: a right side minus a(z) w'/w
    if eq.kind == EqKind.PURE_LOG_DERIV:
        rhs = series_of_ratfunc(eq.b, offset, width)
    else:
        rhs = compose_rational(eq.p_poly.coeffs, eq.q_poly.coeffs, w, offset, width)
    return rhs - a_s * wp.div(w, width)
