"""Delay-differential equation classes and their normal form.

Three equation shapes are supported, all written with the difference
w(z+1) - w(z-1) on the left:

  log-deriv        w(z+1) - w(z-1) + a(z) w'(z)/w(z) = P(z,w)/Q(z,w)
  pure-log-deriv   w(z+1) - w(z-1) + a(z) w'(z)/w(z) = b(z)
  inverse-square   w(z+1) - w(z-1) = (a(z) w'(z) + b(z) w(z)) / w(z)^2 + c(z)

Every equation also carries the derived normal form

  w(z+1) = w(z-1) + N(z, w(z), w'(z))

which is what the cascade engine consumes.  Both views are exact.

A log-deriv equation with a factored denominator expands the factors once,
when it is built: the expansion is Q when no Q is given, and must equal a
given Q.

The module also provides degree reports for the right-hand side as a
rational map of w, resultants in w, and the common-root test for P and Q.
That test reads the supplied factorization Q = prod (w - r_i)^m_i * R:
since res(P, Q) = +-prod P(r_i)^m_i * res(P, R), P and Q share a root exactly
when P vanishes at a supplied root or when res(P, R) vanishes.  The Sylvester
determinant therefore runs only on a residual R of positive degree in w, or
on Q itself when no factorization was supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .fieldelem import FieldElem
from .laurent import LaurentSeries, compose_rational, series_of_ratfunc

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

    @staticmethod
    def const(c) -> "WPoly":
        return WPoly([FieldElem.coerce(c)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> FieldElem:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == _ONE

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

    def scale(self, c: FieldElem) -> "WPoly":
        return WPoly([c * a for a in self.coeffs])

    def __add__(self, other: "WPoly") -> "WPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return WPoly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other: "WPoly") -> "WPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return WPoly(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

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

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == _ONE else f"({c})*"
                parts.append(f"{head}w" + (f"^{k}" if k > 1 else ""))
        return " + ".join(reversed(parts))


@dataclass(frozen=True)
class FactoredDenominator:
    """Denominator supplied in factored form: product of (w - root)^mult.

    An optional residual factor covers a part the supplier asserts has no
    roots rational in z; expansion must reproduce the stored denominator.
    """

    factors: Tuple[Tuple[FieldElem, int], ...]
    residual: Optional[WPoly] = None

    def __post_init__(self):
        roots = [r for r, _ in self.factors]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if roots[i] == roots[j]:
                    raise EquationError("duplicate denominator factor roots")
        for _, m in self.factors:
            if m < 1:
                raise EquationError("factor multiplicity must be positive")

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


@dataclass(frozen=True)
class DelayDiffEq:
    kind: EqKind
    a: FieldElem = _ZERO
    b: FieldElem = _ZERO
    c: FieldElem = _ZERO
    p_poly: Optional[WPoly] = None
    q_poly: Optional[WPoly] = None
    q_factors: Optional[FactoredDenominator] = None
    name: str = ""
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind in (EqKind.PURE_LOG_DERIV, EqKind.INVERSE_SQUARE):
            if self.a.is_zero:
                raise EquationError(
                    f"a(z) identically zero is outside the {self.kind.value} class"
                )
        if self.kind == EqKind.LOG_DERIV:
            if self.q_factors is not None:
                q = self.q_factors.expand()
                if self.q_poly is None:
                    object.__setattr__(self, "q_poly", q)
                elif q != self.q_poly:
                    raise EquationError(
                        "factored denominator does not expand to Q"
                    )
            if self.p_poly is None or self.q_poly is None:
                raise EquationError("log-deriv equations need both P and Q")
            if self.q_poly.is_zero:
                raise EquationError("denominator Q is identically zero")
            if self.q_poly.coefficient(0).is_zero:
                raise EquationError("Q(z, 0) must not vanish identically")


def make_log_deriv(
    a: FieldElem,
    p_poly: WPoly,
    q_factors: FactoredDenominator,
    name: str = "",
) -> DelayDiffEq:
    """Build a log-deriv equation, normalizing the denominator to monic.

    The linear factors are monic, so only a residual makes Q non-monic;
    dividing the residual and P by its leading coefficient normalizes it.
    """
    notes: Tuple[str, ...] = ()
    res = q_factors.residual
    # a zero residual is left to the equation's zero-Q check
    if res is not None and not res.is_zero and not res.is_monic:
        inv = res.leading.inverse()
        p_poly = p_poly.scale(inv)
        q_factors = FactoredDenominator(q_factors.factors, res.scale(inv))
        notes = ("denominator normalized to monic",)
    return DelayDiffEq(
        EqKind.LOG_DERIV, a=a, p_poly=p_poly, q_factors=q_factors,
        name=name, notes=notes,
    )


def make_pure_log_deriv(a: FieldElem, b: FieldElem, name: str = "") -> DelayDiffEq:
    return DelayDiffEq(EqKind.PURE_LOG_DERIV, a=a, b=b, name=name)


def make_inverse_square(
    a: FieldElem, b: FieldElem, c: FieldElem = _ZERO, name: str = ""
) -> DelayDiffEq:
    return DelayDiffEq(EqKind.INVERSE_SQUARE, a=a, b=b, c=c, name=name)


# ---------------------------------------------------------------------------
# degree data and resultants


def rational_degree(eq: DelayDiffEq) -> Dict[str, int]:
    """Degrees in w of the right-hand side P/Q, driving pole-order growth:
    ``{"num": deg P, "den": deg Q, "map": the larger}``, where "map" is the
    degree of P/Q as a map of w."""
    if eq.kind != EqKind.LOG_DERIV:
        raise ValueError("degree report applies to the log-deriv class")
    dp = eq.p_poly.degree
    dq = eq.q_poly.degree
    return {"num": dp, "den": dq, "map": max(dp, dq)}


def resultant_in_w(p: WPoly, q: WPoly) -> FieldElem:
    """Resultant with the convention lc(P)^deg(Q) * prod Q(root_i(P)).

    Zero exactly when P and Q share a root over the algebraic closure of
    the coefficient field.  Computed as a Sylvester determinant with exact
    fraction arithmetic.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of a zero polynomial")
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    pd = list(reversed(p.coeffs))
    qd = list(reversed(q.coeffs))
    rows = []
    for i in range(n):
        rows.append([_ZERO] * i + pd + [_ZERO] * (size - m - 1 - i))
    for j in range(m):
        rows.append([_ZERO] * j + qd + [_ZERO] * (size - n - 1 - j))
    return _det(rows)


def shares_root(p: WPoly, q: WPoly, q_factors: Optional[FactoredDenominator]) -> bool:
    """Whether nonzero P and Q share a root in w, decided as the module
    docstring says: at the supplied roots of Q when there are any."""
    if q_factors is None:
        return resultant_in_w(p, q).is_zero
    if any(p.evaluate(r).is_zero for r in q_factors.roots()):
        return True
    res = q_factors.residual
    return res is not None and res.degree > 0 and resultant_in_w(p, res).is_zero


def _det(rows) -> FieldElem:
    n = len(rows)
    sign = 1
    det = _ONE
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if not rows[r][col].is_zero), None
        )
        if pivot is None:
            return _ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        pv = rows[col][col]
        det = det * pv
        inv = pv.inverse()
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor.is_zero:
                continue
            rows[r] = [
                rows[r][k] - factor * rows[col][k] for k in range(n)
            ]
    return det if sign == 1 else _ZERO - det


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
