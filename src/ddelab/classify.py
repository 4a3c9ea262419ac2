"""Necessary-condition classifiers for the three delay equation classes.

Each classifier checks whether an equation passes the degree and coefficient
conditions that any non-rational meromorphic solution of slow growth forces
on the equation.  The verdicts are contrapositive by nature: a pass never
asserts that solutions exist, and a violation means every such solution is
ruled out.  When the inverse-square class passes, the witnessing parameter
triple is extracted and reconstructs the equation exactly
(``build_normal_form``).

A verdict is the dict that the report prints: ``eq_kind``, ``outcome`` and
``details``, plus ``params`` ({lam, mu, nu}) on the confined branch and
``also_branch_b`` when both log-deriv branches hold.  The triple keeps its
exact ``GaussianRational`` values; ``cli`` prints them.
"""

from __future__ import annotations

import cmath
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from .cascade import second_difference
from .fieldelem import FieldElem
from .gaussian import ZERO, GaussianRational
from .model import (
    DelayDiffEq,
    EqKind,
    make_inverse_square,
    rational_degree,
    shares_root,
)

_Z = FieldElem.var("z")


class Outcome(str, Enum):
    CONSISTENT_BRANCH_A = "consistent-branch-a"
    CONSISTENT_BRANCH_B = "consistent-branch-b"
    VIOLATES_NECESSARY_CONDITION = "violates-necessary-condition"
    HYPOTHESIS_VIOLATION = "hypothesis-violation"


def build_normal_form(lam, mu, nu) -> DelayDiffEq:
    """Equation of the confined family from its parameter triple.

    The family has a = lam + mu*z and b = nu*a - mu with c = 0, so the
    triple that ``classify`` extracts rebuilds the equation exactly.
    """
    lam, mu, nu = (FieldElem.const(GaussianRational.coerce(x)) for x in (lam, mu, nu))
    a = lam + mu * _Z
    return make_inverse_square(a=a, b=nu * a - mu)


def _verdict(eq: DelayDiffEq, outcome: Outcome, *details: str, **extra: Any) -> Dict[str, Any]:
    return {"eq_kind": eq.kind.value, "outcome": outcome.value, "details": list(details),
            **extra}


def classify_log_deriv(eq: DelayDiffEq) -> Dict[str, Any]:
    """Degree test for the rational-in-w class.

    Branch A needs the numerator degree to exceed the denominator degree by
    exactly one and stay at most three; branch B needs total degree zero or
    one.  Both can hold at once; the verdict then reports branch A and sets
    ``also_branch_b``.  Checkability requires a nonzero P with no root in
    common with Q; ``DelayDiffEq`` already rejects a denominator that is zero
    or vanishes at w = 0.  Q is not normalized: the verdict reads only
    degrees and roots, which a common factor of P and Q leaves alone.

    Common roots are decided on the factored Q (``shares_root``): P and Q
    share one exactly when P vanishes at a supplied root, or when the gcd of
    P and the residual factor, by Euclid's remainder sequence, has positive
    degree in w.
    """
    if eq.kind != EqKind.LOG_DERIV:
        raise ValueError("classifier expects the rational-in-w class")
    if eq.p_poly.is_zero:
        return _verdict(eq, Outcome.HYPOTHESIS_VIOLATION, "numerator is identically zero")
    if shares_root(eq.p_poly, eq.q_factors):
        return _verdict(eq, Outcome.HYPOTHESIS_VIOLATION,
                        "numerator and denominator share a root")

    rep = rational_degree(eq)
    dp, dq, dr = rep["num"], rep["den"], rep["map"]
    branch_a = dp == dq + 1 and dp <= 3
    branch_b = dr in (0, 1)
    if branch_a:
        details = [f"numerator degree {dp} = denominator degree {dq} + 1 <= 3"]
        if branch_b:
            details.append(f"total degree {dr} also fits the linear branch")
            return _verdict(eq, Outcome.CONSISTENT_BRANCH_A, *details, also_branch_b=True)
        return _verdict(eq, Outcome.CONSISTENT_BRANCH_A, *details)
    if branch_b:
        return _verdict(eq, Outcome.CONSISTENT_BRANCH_B, f"total degree {dr} is at most one")
    return _verdict(
        eq, Outcome.VIOLATES_NECESSARY_CONDITION,
        f"degrees (num {dp}, den {dq}, total {dr}) fit neither branch; "
        "any non-rational meromorphic solution must have hyper-order at least one",
    )


_PI_FLAG_REL_TOL = 1e-12
_PI_FLAG_MAX_P = 64


def _number_ratio(f: FieldElem, g: FieldElem) -> Optional[GaussianRational]:
    """The number c with f = c*g for nonzero g, or None when there is none.

    No quotient is formed.  With F = f.num*g.den and G = g.num*f.den, f/g = F/G
    is a number exactly when F = c*G.  Then F and G share their graded-lex
    leading monomial, so c is the ratio of their leading coefficients, and one
    exact comparison of F with c*G decides.  The parser's only variable is z,
    so no other symbol reaches ``classify``, and a number is the same as a
    constant in z.
    """
    big_f = f.num if g.den.is_constant() else f.num * g.den
    big_g = g.num if f.den.is_constant() else g.num * f.den
    if big_f.is_zero:
        return ZERO
    c = big_f.leading_coefficient() / big_g.leading_coefficient()
    return c if big_f == big_g.scale(c) else None


def _exponential_family_flag(a: FieldElem, b: FieldElem) -> Optional[str]:
    """Courtesy note when b/a sits numerically at a nonzero integer times pi*i.

    The ratio is read by ``_number_ratio``.  Numeric by necessity (pi is not
    rational); tolerance 1e-12 relative, with integer multiples searched up to
    64.  Never feeds the verdict.
    """
    ratio = _number_ratio(b, a)
    if ratio is None:
        return None
    val = complex(ratio)
    if val == 0:
        return None
    q = val / complex(0.0, cmath.pi)
    p = round(q.real)
    if p == 0 or abs(p) > _PI_FLAG_MAX_P or abs(q.imag) > _PI_FLAG_REL_TOL * abs(p):
        return None
    if abs(q.real - p) > _PI_FLAG_REL_TOL * abs(p):
        return None
    return (
        f"forcing ratio sits at {p}*pi*i: zero-free exponential solutions "
        f"C*exp({p}*pi*i*z) exist, and the zero-density hypothesis is vacuous for them"
    )


def classify_pure_log_deriv(eq: DelayDiffEq) -> Dict[str, Any]:
    """Constancy test for the pure logarithmic-derivative class."""
    if eq.kind != EqKind.PURE_LOG_DERIV:
        raise ValueError("classifier expects the pure log-derivative class")
    details = []
    flag = _exponential_family_flag(eq.a, eq.b)
    if flag:
        details.append(flag)
    if eq.a.is_constant() and eq.b.is_constant():
        return _verdict(eq, Outcome.CONSISTENT_BRANCH_A, *details)
    which = "a" if not eq.a.is_constant() else "b"
    details.insert(
        0,
        f"coefficient {which} is not constant; no non-rational solution of "
        "hyper-order below one can keep zeros dense enough",
    )
    return _verdict(eq, Outcome.VIOLATES_NECESSARY_CONDITION, *details)


def _affine_parts(a: FieldElem) -> Optional[Tuple[GaussianRational, GaussianRational]]:
    """(constant, slope) when a = constant + slope*z, else None."""
    if not a.den.is_constant():
        return None
    parts = a.num.coefficients("z")
    if len(parts) > 2 or not all(p.is_constant() for p in parts):
        return None
    inv = a.den.constant_value().inverse()
    lam, mu = [p.constant_value() * inv for p in parts] + [ZERO] * (2 - len(parts))
    return lam, mu


def classify_inverse_square(eq: DelayDiffEq) -> Dict[str, Any]:
    """Parameter extraction for the inverse-square class.

    Passes exactly when c vanishes, a is affine, and the forcing term is
    nu*a - mu for a single constant nu; the triple is returned and rebuilding
    from it reproduces the equation.  nu is read by ``_number_ratio`` as the
    number with b + mu = nu*a, without forming the quotient (b + mu)/a.
    """
    if eq.kind != EqKind.INVERSE_SQUARE:
        raise ValueError("classifier expects the inverse-square class")
    if not eq.c.is_zero:
        return _verdict(eq, Outcome.VIOLATES_NECESSARY_CONDITION,
                        "additive coefficient c is not identically zero")
    parts = _affine_parts(eq.a)
    if parts is None:
        witness = second_difference(eq.a)
        return _verdict(
            eq, Outcome.VIOLATES_NECESSARY_CONDITION,
            f"coefficient a is not affine in z; its second difference is {witness} rather "
            "than zero",
        )
    lam, mu = parts
    nu = _number_ratio(eq.b + FieldElem.const(mu), eq.a)
    if nu is None:
        return _verdict(eq, Outcome.VIOLATES_NECESSARY_CONDITION,
                        "no constant matches the forcing term: (b + slope)/a is not constant")
    return _verdict(
        eq, Outcome.CONSISTENT_BRANCH_A, f"a = {lam} + {mu}*z and b = {nu}*a - {mu}",
        params={"lam": lam, "mu": mu, "nu": nu},
    )


def classify(eq: DelayDiffEq) -> Dict[str, Any]:
    """Dispatch on the equation class."""
    if eq.kind == EqKind.LOG_DERIV:
        return classify_log_deriv(eq)
    if eq.kind == EqKind.PURE_LOG_DERIV:
        return classify_pure_log_deriv(eq)
    return classify_inverse_square(eq)
