"""Delay-differential equation classes and their normal form.

Three equation shapes are supported, all written with the difference
w(z+1) - w(z-1) on the left:

  log-deriv        w(z+1) - w(z-1) + a(z) w'(z)/w(z) = P(z,w)/Q(z,w)
  pure-log-deriv   w(z+1) - w(z-1) + a(z) w'(z)/w(z) = b(z)
  inverse-square   w(z+1) - w(z-1) = (a(z) w'(z) + b(z) w(z)) / w(z)^2 + c(z)

Every equation also carries the derived normal form

  w(z+1) = w(z-1) + N(z, w(z), w'(z))

which is what the cascade engine consumes.  Both views are exact.

A log-deriv equation holds P, the factors (r_i, m_i) and the optional
residual R as they are given: P/Q with Q = prod (w - r_i)^m_i * R, the form
the paper states the class in.  P, R and Q are coefficient tuples in w,
constant term first, with no zero top coefficient; () is the zero
polynomial.  Q, their expansion (``_expand``), is computed once when the
equation is built, and ``_evaluate`` is Horner's rule on such a tuple.  P and
Q are not normalized: P/Q, the degrees, the common-root test and the normal
form do not change when both are scaled by a common factor.

The module also provides degree reports for the right-hand side as a
rational map of w and the common-root test ``shares_root``.  Since Q is the
product of the supplied factors and R, P and Q share a root exactly when P
vanishes at a supplied root or when P and R share one, and nonzero P and R
share a root over the algebraic closure of Q(i)(z) exactly when their gcd in
Q(i)(z)[w] has positive degree.  Euclid's remainder sequence decides that
exactly, and runs only on a residual R of positive degree in w.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .fieldelem import FieldElem, _ulist_divmod, _ulist_trim
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
# polynomials in w, and the equation object

# a polynomial in w: its rational-function coefficients, constant term first,
# with no zero top coefficient; () is the zero polynomial
WCoeffs = Tuple[FieldElem, ...]


def _evaluate(p: WCoeffs, x: FieldElem) -> FieldElem:
    """Horner's rule from the top coefficient: d products at degree d."""
    if not p:
        return _ZERO
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def _expand(factors: Tuple[Tuple[FieldElem, int], ...], residual: Optional[WCoeffs]) -> WCoeffs:
    """prod (w - root)^mult * residual, one linear factor at a time.  The
    coefficients below the leading 1 are c_0 .. c_(n-1); multiplying by
    (w - r) gives c_k <- c_(k-1) - r*c_k, with c_(-1) = 0 and the new
    c_n = c_(n-1) - r.  The leading 1 takes no product, so m factors cost
    m(m-1)/2; then one product by the residual."""
    low: List[FieldElem] = []
    for root, mult in factors:
        for _ in range(mult):
            low = ([-root * c for c in low[:1]]
                   + [lo - root * hi for lo, hi in zip(low, low[1:])]
                   + [low[-1] - root if low else -root])
    product = low + [_ONE]
    if residual is None:
        return tuple(product)
    out = [_ZERO] * (len(product) + len(residual) - 1)
    for i, a in enumerate(product):
        for j, b in enumerate(residual):
            out[i + j] = out[i + j] + a * b
    return tuple(_ulist_trim(out))


class DelayDiffEq(ReadOnly):
    __slots__ = ("kind", "a", "b", "c", "p_poly", "q_factors", "q_residual", "q_poly")

    def __init__(self, kind: EqKind, a: FieldElem = _ZERO, b: FieldElem = _ZERO,
                 c: FieldElem = _ZERO, p_poly: Optional[Sequence[FieldElem]] = None,
                 q_factors: Optional[Sequence[Tuple[FieldElem, int]]] = None,
                 q_residual: Optional[Sequence[FieldElem]] = None):
        q = None
        if kind in (EqKind.PURE_LOG_DERIV, EqKind.INVERSE_SQUARE) and a.is_zero:
            raise EquationError(f"a(z) identically zero is outside the {kind.value} class")
        if kind == EqKind.LOG_DERIV:
            if p_poly is None or q_factors is None:
                raise EquationError("log-deriv equations need P and the factored Q")
            p_poly, q_factors = tuple(_ulist_trim(list(p_poly))), tuple(q_factors)
            if q_residual is not None:
                q_residual = tuple(_ulist_trim(list(q_residual)))
            roots = [r for r, _ in q_factors]
            if any(r == s for i, r in enumerate(roots) for s in roots[i + 1:]):
                raise EquationError("duplicate denominator factor roots")
            if any(m < 1 for _, m in q_factors):
                raise EquationError("factor multiplicity must be positive")
            q = _expand(q_factors, q_residual)
            if not q:
                raise EquationError("denominator Q is identically zero")
            if q[0].is_zero:
                raise EquationError("Q(z, 0) must not vanish identically")
        self._set(kind=kind, a=a, b=b, c=c, p_poly=p_poly, q_factors=q_factors,
                  q_residual=q_residual, q_poly=q)

    __eq__ = ReadOnly._same_fields


def make_log_deriv(a: FieldElem, p_poly: Sequence[FieldElem],
                   q_factors: Sequence[Tuple[FieldElem, int]],
                   q_residual: Optional[Sequence[FieldElem]] = None) -> DelayDiffEq:
    return DelayDiffEq(EqKind.LOG_DERIV, a=a, p_poly=p_poly, q_factors=q_factors,
                       q_residual=q_residual)


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
    dp = len(eq.p_poly) - 1
    dq = len(eq.q_poly) - 1
    return {"num": dp, "den": dq, "map": max(dp, dq)}


def shares_root(eq: DelayDiffEq) -> bool:
    """Whether a log-deriv equation's nonzero P and its Q share a root in w,
    decided as the module docstring says: P at each supplied root, then
    Euclid's remainder sequence of P and a residual of positive degree."""
    if any(_evaluate(eq.p_poly, r).is_zero for r, _ in eq.q_factors):
        return True
    if eq.q_residual is None or len(eq.q_residual) < 2:
        return False
    a, b = list(eq.p_poly), list(eq.q_residual)
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
        rhs = compose_rational(eq.p_poly, eq.q_poly, w, offset, width)
    return rhs - a_s * wp.div(w, width)
