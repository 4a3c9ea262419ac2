"""Necessary-condition classifiers for the three delay equation classes.

Each classifier checks whether an equation passes the degree and coefficient
conditions that any non-rational meromorphic solution of slow growth forces
on the equation.  The verdicts are contrapositive by nature: a pass never
asserts that solutions exist, and a violation means every such solution is
ruled out.  When the inverse-square class passes, the witnessing parameter
triple is extracted and reconstructs the equation exactly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

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


@dataclass(frozen=True)
class NormalFormParams:
    """Parameter triple of the confined inverse-square family.

    The family has a = lam + mu*z and b = nu*a - mu with c = 0; the triple
    rebuilds the equation exactly, so extraction is a round trip.
    """

    lam: GaussianRational
    mu: GaussianRational
    nu: GaussianRational

    def build(self) -> DelayDiffEq:
        a = FieldElem.const(self.lam) + FieldElem.const(self.mu) * _Z
        b = FieldElem.const(self.nu) * a - FieldElem.const(self.mu)
        return make_inverse_square(a=a, b=b, name="confined-family")

    def export(self) -> dict:
        return {"lam": str(self.lam), "mu": str(self.mu), "nu": str(self.nu)}


def build_normal_form(lam, mu, nu) -> DelayDiffEq:
    """Equation of the confined family from its parameter triple."""
    return NormalFormParams(
        GaussianRational.coerce(lam),
        GaussianRational.coerce(mu),
        GaussianRational.coerce(nu),
    ).build()


@dataclass(frozen=True)
class Verdict:
    eq_kind: EqKind
    outcome: Outcome
    details: Tuple[str, ...] = ()
    params: Optional[NormalFormParams] = None
    also_branch_b: bool = False

    def export(self) -> dict:
        out = {
            "eq_kind": self.eq_kind.value,
            "outcome": self.outcome.value,
            "details": list(self.details),
        }
        if self.params is not None:
            out["params"] = self.params.export()
        if self.also_branch_b:
            out["also_branch_b"] = True
        return out


def classify_log_deriv(eq: DelayDiffEq) -> Verdict:
    """Degree test for the rational-in-w class.

    Branch A needs the numerator degree to exceed the denominator degree by
    exactly one and stay at most three; branch B needs total degree zero or
    one.  Both can hold at once; the verdict then reports branch A and keeps
    a flag for branch B.  Checkability requires a monic denominator, a
    supplied factorization, and no common roots; ``DelayDiffEq`` already
    rejects a denominator that is zero or vanishes at w = 0.

    Common roots are decided at the supplied roots: P and Q share one exactly
    when P vanishes at one of them, or when P and a residual factor of
    positive degree in w have a zero resultant.  The Sylvester determinant of
    P and Q themselves runs only for an equation built without a factorization.
    """
    if eq.kind != EqKind.LOG_DERIV:
        raise ValueError("classifier expects the rational-in-w class")
    failed = []
    q = eq.q_poly
    if not q.is_monic:
        failed.append("denominator is not monic")
    if q.degree > 0 and eq.q_factors is None:
        failed.append("denominator factorization not supplied")
    if not eq.p_poly.is_zero and shares_root(eq.p_poly, q, eq.q_factors):
        failed.append("numerator and denominator share a root")
    if eq.p_poly.is_zero:
        failed.append("numerator is identically zero")
    if failed:
        return Verdict(eq.kind, Outcome.HYPOTHESIS_VIOLATION, tuple(failed))

    rep = rational_degree(eq)
    dp, dq, dr = rep["num"], rep["den"], rep["map"]
    branch_a = dp == dq + 1 and dp <= 3
    branch_b = dr in (0, 1)
    if branch_a:
        details = [f"numerator degree {dp} = denominator degree {dq} + 1 <= 3"]
        if branch_b:
            details.append(f"total degree {dr} also fits the linear branch")
        return Verdict(eq.kind, Outcome.CONSISTENT_BRANCH_A, tuple(details), also_branch_b=branch_b)
    if branch_b:
        return Verdict(
            eq.kind, Outcome.CONSISTENT_BRANCH_B,
            (f"total degree {dr} is at most one",),
        )
    return Verdict(
        eq.kind, Outcome.VIOLATES_NECESSARY_CONDITION,
        (
            f"degrees (num {dp}, den {dq}, total {dr}) fit neither branch; "
            "any non-rational meromorphic solution must have hyper-order at least one",
        ),
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


def classify_pure_log_deriv(eq: DelayDiffEq) -> Verdict:
    """Constancy test for the pure logarithmic-derivative class."""
    if eq.kind != EqKind.PURE_LOG_DERIV:
        raise ValueError("classifier expects the pure log-derivative class")
    details = []
    flag = _exponential_family_flag(eq.a, eq.b)
    if flag:
        details.append(flag)
    if eq.a.is_constant() and eq.b.is_constant():
        return Verdict(eq.kind, Outcome.CONSISTENT_BRANCH_A, tuple(details))
    which = "a" if not eq.a.is_constant() else "b"
    details.insert(
        0,
        f"coefficient {which} is not constant; no non-rational solution of "
        "hyper-order below one can keep zeros dense enough",
    )
    return Verdict(eq.kind, Outcome.VIOLATES_NECESSARY_CONDITION, tuple(details))


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


def classify_inverse_square(eq: DelayDiffEq) -> Verdict:
    """Parameter extraction for the inverse-square class.

    Passes exactly when c vanishes, a is affine, and the forcing term is
    nu*a - mu for a single constant nu; the triple is returned and rebuilding
    from it reproduces the equation.  nu is read by ``_number_ratio`` as the
    number with b + mu = nu*a, without forming the quotient (b + mu)/a.
    """
    if eq.kind != EqKind.INVERSE_SQUARE:
        raise ValueError("classifier expects the inverse-square class")
    if not eq.c.is_zero:
        return Verdict(
            eq.kind, Outcome.VIOLATES_NECESSARY_CONDITION,
            ("additive coefficient c is not identically zero",),
        )
    parts = _affine_parts(eq.a)
    if parts is None:
        witness = second_difference(eq.a)
        return Verdict(
            eq.kind, Outcome.VIOLATES_NECESSARY_CONDITION,
            (
                "coefficient a is not affine in z; its second difference is "
                f"{witness} rather than zero",
            ),
        )
    lam, mu = parts
    nu = _number_ratio(eq.b + FieldElem.const(mu), eq.a)
    if nu is None:
        return Verdict(
            eq.kind, Outcome.VIOLATES_NECESSARY_CONDITION,
            (
                "no constant matches the forcing term: (b + slope)/a is not "
                "constant",
            ),
        )
    params = NormalFormParams(lam, mu, nu)
    return Verdict(
        eq.kind, Outcome.CONSISTENT_BRANCH_A,
        (f"a = {lam} + {mu}*z and b = {nu}*a - {mu}",),
        params=params,
    )


def classify(eq: DelayDiffEq) -> Verdict:
    """Dispatch on the equation class."""
    if eq.kind == EqKind.LOG_DERIV:
        return classify_log_deriv(eq)
    if eq.kind == EqKind.PURE_LOG_DERIV:
        return classify_pure_log_deriv(eq)
    return classify_inverse_square(eq)
