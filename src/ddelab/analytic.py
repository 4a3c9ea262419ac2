"""Closed-form solution families, scaling limits, and reduction identities.

Three kinds of verification live here.  Numeric residual checks confirm that
the exhibited solution families (elliptic, zero-free exponential) satisfy
their delay equations at randomly sampled points.  An exact formal expansion
confirms the small-amplitude continuum limit of the confined inverse-square
family down to a third-order differential target.  A randomized algebraic
substitution confirms the reduction to the differential-difference mKdV
flow.  Residual tolerances are engineering targets; the formal expansion is
exact rational arithmetic throughout.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .fieldelem import FieldElem
from .mpoly import MPoly
from .record import ReadOnly
from .wp import PoleSignal, WeierstrassP, _parts, _reciprocal, _times


class ParamDomainError(ValueError):
    """Parameters outside the family's domain of validity."""


# the residual bound of each family's verifier, exported in its report as "tol"
_ELLIPTIC_TOL, _EXPONENTIAL_TOL, _MKDV_TOL = 1e-8, 1e-10, 1e-12


# ---------------------------------------------------------------------------
# verifier reports


class VerifierReport(ReadOnly):
    """Uniform result shape for the numeric residual checks."""

    __slots__ = ("check", "params", "samples", "max_residual", "tol")

    def __init__(self, check: str, params: Dict[str, str], samples: int,
                 max_residual: float, tol: float):
        self._set(check=check, params=params, samples=samples, max_residual=max_residual, tol=tol)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def export(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "pass": self.passed,
        }


def _accepted_draws(
    samples: int, seed: int, draw: Callable[[Random], Any], failure: str
) -> list:
    """The first ``samples`` points that ``draw`` accepts from one ``Random(seed)``.

    ``draw`` returns None to reject a candidate.  The sampler gives up with
    ``ArithmeticError(failure)`` after 80 candidates per requested point.  A
    residual check over no sample points would pass without testing.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = Random(seed)
    points = []
    for _ in range(80 * samples):
        point = draw(rng)
        if point is not None:
            points.append(point)
            if len(points) == samples:
                return points
    raise ArithmeticError(failure)


# ---------------------------------------------------------------------------
# elliptic solution family of the confined class with constant coefficient


class EllipticParams(ReadOnly):
    """Data of the elliptic family w(z) = alpha*(p(W*z) - p(W)).

    alpha is the principal square root of -lam*W/p'(W); the sign convention
    is recorded so the deliberately wrong branch stays reproducible as a
    negative control.  ``p_omega`` is p(W), evaluated once.
    """

    __slots__ = ("g2", "g3", "omega", "lam", "alpha", "sign_flipped", "engine", "p_omega")

    def __init__(self, g2: complex, g3: complex, omega: complex, lam: complex,
                 alpha: complex, sign_flipped: bool, engine: WeierstrassP, p_omega: complex):
        self._set(g2=g2, g3=g3, omega=omega, lam=lam, alpha=alpha, sign_flipped=sign_flipped,
                  engine=engine, p_omega=p_omega)

    def export(self) -> Dict[str, str]:
        return {
            "g2": str(self.g2),
            "g3": str(self.g3),
            "omega": str(self.omega),
            "lam": str(self.lam),
            "alpha": str(self.alpha),
            "sign_flipped": str(self.sign_flipped),
        }


def elliptic_params(
    g2: complex, g3: complex, omega: complex, lam: complex,
    flip_alpha_square: bool = False,
) -> EllipticParams:
    """Validate family data and fix alpha.

    Rejects omega on the pole lattice or on the half-period set: the slope
    p'(omega) enters alpha as a denominator, so it must be finite and
    nonzero for the family to exist.
    """
    if lam == 0:
        raise ParamDomainError("lam must be nonzero for the family to exist")
    engine = WeierstrassP(g2, g3)
    try:
        p_om, dp_om = engine.eval(omega)
    except PoleSignal as exc:
        raise ParamDomainError(
            f"omega = {omega} is a lattice point; p(omega) is infinite there"
        ) from exc
    if abs(dp_om) <= 1e-8 * (1.0 + abs(p_om)) ** 1.5:
        raise ParamDomainError(
            f"p'(omega) = {dp_om} vanishes (omega is a half period); "
            "alpha is undefined there"
        )
    sign = 1.0 if flip_alpha_square else -1.0
    alpha = cmath.sqrt(sign * complex(lam) * complex(omega) / dp_om)
    return EllipticParams(
        complex(g2), complex(g3), complex(omega), complex(lam),
        alpha, flip_alpha_square, engine, p_om,
    )


class EllipticSolutionModel:
    """log|w| and the exact singularity inventory of the elliptic family.

    Poles sit on the rescaled lattice (double), zeros at the two cosets of
    +-1 (simple); no root finding is involved, so the counting side of any
    measurement on this model is integer-exact.
    """

    tag = "elliptic-solution"
    even = True  # w(-z) = w(z), as p is even

    __slots__ = ("params", "_w")

    def __init__(self, params: EllipticParams):
        self.params = params
        self._w = params.engine

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        """log|w| on an array, infinite at poles; z W takes no fused product, so
        log_abs(-z) has the bits of log_abs(z)."""
        p, _, _ = self._w.eval_many(_times(z, _parts(self.params.omega)), derivative=False)
        return np.log(abs(self.params.alpha) * np.abs(p - self.params.p_omega))

    def _scaled_lattice(self, radius: float, offset: complex) -> List[complex]:
        """Points (offset*omega + l)/omega with modulus <= radius, l on the lattice.

        The point with l = 0 is ``offset`` itself, exactly, and membership is
        decided on the scaled points, in a disk padded by |offset| against
        rounding: the zeros at +-1 lie on the circle |z| = 1.
        """
        om = self.params.omega
        centre = offset * om
        pts = self._w.lattice_points_in_disk((radius + abs(offset)) * abs(om), centre)
        scaled = [offset if p == centre else p / om for p in pts]
        return [z for z in scaled if abs(z) <= radius]

    def poles_upto(self, radius: float) -> List[Tuple[complex, int]]:
        return [(p, 2) for p in self._scaled_lattice(radius, 0j)]

    def zeros_upto(self, radius: float) -> List[Tuple[complex, int]]:
        out = [(p, 1) for p in self._scaled_lattice(radius, 1.0 + 0j)]
        out += [(p, 1) for p in self._scaled_lattice(radius, -1.0 + 0j)]
        out.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
        return out

    def describe(self) -> dict:
        return {"tag": self.tag, **self.params.export()}


def verify_elliptic_family(
    params: EllipticParams,
    samples: int = 100,
    seed: int = 0,
    perturb: float = 0.0,
) -> VerifierReport:
    """Max residual of the constant-coefficient confined equation.

    The equation under test is w(z+1) - w(z-1) = lam * w'(z)/w(z)^2 with
    the other two coefficients zero.  Sample points keep a safety margin
    from the poles and zeros of w at z and z -+ 1, where the terms are
    individually singular; `perturb` is added to lam to let callers observe
    the linear response of the residual.
    """
    lam = params.lam + perturb
    om = params.omega
    alpha = params.alpha
    w = params.engine
    cell = min(abs(w.omega1), abs(w.omega2)) / abs(om)
    box = 2.5 * cell
    margin = 0.12 * cell * abs(om)

    def clear_of_singularities(rng: Random) -> Optional[complex]:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        for shift in (-1.0, 0.0, 1.0):
            u = (z + shift) * om
            if any(abs(w.reduce(v)) < margin for v in (u, u - om, u + om)):
                return None
        return z

    z = np.array(_accepted_draws(
        samples, seed, clear_of_singularities, "sampling failed to avoid the singular set"
    ))
    # p at z, z + 1 and z - 1 for every sample, in one batch; no product is fused
    p, dp, _ = w.eval_many(_times(np.concatenate([z, z + 1.0, z - 1.0]), _parts(om)))
    wz, w_next, w_prev = np.split(_times(p - params.p_omega, _parts(alpha)), 3)
    # lam w'(z) / w(z)^2, with w'(z) = alpha W p'(W z)
    quotient = _times(dp[:samples], _parts(lam * alpha * om))
    quotient = _times(quotient, _parts(_reciprocal(_times(wz, _parts(wz)))))
    worst = float(np.abs(w_next - w_prev - quotient).max())
    return VerifierReport(
        check="elliptic-family",
        params={**params.export(), "perturb": str(perturb)},
        samples=samples,
        max_residual=worst,
        tol=_ELLIPTIC_TOL,
    )


# ---------------------------------------------------------------------------
# zero-free exponential family of the log-derivative class


class ExponentialModel:
    """w(z) = C * exp(rho * z) with rho = p*pi*i; zero-free and pole-free.

    log_abs is closed form, so measurements stay finite at radii where the
    evaluator itself would overflow.
    """

    tag = "exponential"
    even = False

    __slots__ = ("C", "p", "rho")

    def __init__(self, C: complex, p: int):
        if C == 0:
            raise ParamDomainError("C = 0 collapses the family to zero")
        if p == 0:
            raise ParamDomainError("p must be a nonzero integer")
        self.C = complex(C)
        self.p = int(p)
        self.rho = complex(0.0, self.p * math.pi)

    def evaluate(self, z: complex) -> complex:
        return self.C * cmath.exp(self.rho * z)

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return math.log(abs(self.C)) - self.p * math.pi * np.imag(z)

    def poles_upto(self, radius: float) -> List[Tuple[complex, int]]:
        return []

    def zeros_upto(self, radius: float) -> List[Tuple[complex, int]]:
        return []

    def describe(self) -> dict:
        return {"tag": self.tag, "C": str(self.C), "p": str(self.p)}


def verify_exponential(
    a: FieldElem,
    p: int,
    C: complex,
    samples: int = 100,
    seed: int = 0,
    perturb_b: complex = 0.0,
) -> VerifierReport:
    """Residual of the log-derivative equation on the exponential family.

    The instance has forcing b = p*pi*i*a, for which the shift difference
    cancels identically and the log-derivative term reproduces b.  Sampling
    keeps |Im z| small enough that |w| stays within a few orders of C, so
    the reported residual measures the identity rather than float overflow.
    A number a is evaluated once; a z-dependent a at every candidate, which
    is rejected at a pole of a.  Each candidate draws the same two uniforms
    either way, so the sample set does not depend on the form of a.
    """
    model = ExponentialModel(C, p)
    im_cap = 1.5 / abs(p)
    a_number = a.eval_complex({}) if a.is_number() else None

    def clear_of_coefficient_poles(rng: Random) -> Optional[Tuple[complex, complex]]:
        z = complex(rng.uniform(-6.0, 6.0), rng.uniform(-im_cap, im_cap))
        if a_number is not None:
            return z, a_number
        try:
            return z, a.eval_complex({"z": z})
        except ZeroDivisionError:
            return None

    points = _accepted_draws(
        samples, seed, clear_of_coefficient_poles,
        "sampling failed to avoid coefficient poles",
    )
    worst = 0.0
    for z, az in points:
        bz = model.rho * az + perturb_b
        res = abs(
            model.evaluate(z + 1.0) - model.evaluate(z - 1.0) + az * model.rho - bz
        )
        worst = max(worst, res)
    return VerifierReport(
        check="exponential-family",
        params={"a": str(a), "p": str(p), "C": str(C), "perturb_b": str(perturb_b)},
        samples=samples,
        max_residual=worst,
        tol=_EXPONENTIAL_TOL,
    )


# ---------------------------------------------------------------------------
# small-amplitude continuum limit, exact in eps


# the eps order the continuum limit keeps: the eps^5 balance and the vanishing
# eps^6 need derivative symbols up to y5, and order 8 would need y6
_LIMIT_TRUNCATION = 7


def continuum_limit() -> List[MPoly]:
    """Exact eps-expansion of the confined equation under the scaling limit.

    Substitutes w = 1 - eps^2*y(t) with t = eps*z, so shifted values become
    Taylor polynomials in eps with derivative symbols yj, the derivative
    term becomes -eps^3*y1, the slope mu is zero, the leading coefficient
    is 2, and the product of the two family constants is -eps^5/3.  The
    expansion is (shift difference)*w^2 - (coefficient terms), multiplied
    through by w^2 so that it is polynomial.  Returns its coefficients of
    eps^0 .. eps^7, each a polynomial in the symbols yj, the j-th derivative
    of the limit profile at the running point; orders above 7 would need
    derivative symbols beyond y5 and are dropped as uncertified.
    """
    jmax = _LIMIT_TRUNCATION - 2
    one = MPoly.const(1)
    ys = [MPoly.var(f"y{j}") for j in range(jmax + 1)]

    def taylor_shift(sign: int) -> MPoly:
        # w(z + sign) = 1 - eps^2 * sum_j yj (sign*eps)^j / j!
        acc = MPoly()
        fact = Fraction(1)
        for j in range(jmax + 1):
            if j:
                fact *= j
            term = ys[j] * MPoly.var("eps", j).scale(Fraction(sign**j, 1) / fact)
            acc = acc + term
        return one - MPoly.var("eps", 2) * acc

    w0 = one - MPoly.var("eps", 2) * ys[0]
    wplus = taylor_shift(+1)
    wminus = taylor_shift(-1)
    wprime = -(MPoly.var("eps", 3) * ys[1])
    lam = MPoly.const(2)
    lam_nu = MPoly.var("eps", 5).scale(Fraction(-1, 3))

    expanded = (wplus - wminus) * w0 * w0 - lam * wprime - lam_nu * w0
    return expanded.coefficients("eps")[:_LIMIT_TRUNCATION + 1]


# ---------------------------------------------------------------------------
# reduction to the differential-difference mKdV flow


def mkdv_reduction_check(
    lam: complex,
    nu: complex,
    samples: int = 100,
    seed: int = 0,
    perturb: float = 0.0,
) -> VerifierReport:
    """Randomized residual of the mKdV reduction identity.

    With mu = 0 the confined equation defines the forward shift from free
    local data (w, w', backward shift); the reduction v = s^(-1/2) w with
    s = -2*lam*nu*t and a log-drifted argument must then satisfy the
    differential-difference mKdV flow identically.  The time derivative is
    taken through the chain rule in closed form, so the check is algebraic:
    residuals at randomly drawn data measure only rounding.  `perturb` is
    added to the forward-shift rule as a negative control.
    """
    if lam * nu == 0:
        raise ParamDomainError("the reduction needs lam*nu nonzero")

    def clear_of_branch_cut(rng: Random) -> Optional[Tuple[complex, ...]]:
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(w) < 0.3:
            return None
        wp = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        wm = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(t) < 0.2:
            return None
        s = -2.0 * lam * nu * t
        # principal branch; stay away from the cut so s^(-1/2) is smooth
        if s.real <= 0 and abs(s.imag) < 0.05 * abs(s):
            return None
        return w, wp, wm, t, s

    points = _accepted_draws(
        samples, seed, clear_of_branch_cut, "sampling failed to avoid the branch cut"
    )
    worst = 0.0
    for w, wp, wm, t, s in points:
        wplus = wm + (lam * wp + lam * nu * w) / (w * w) + perturb
        r = cmath.exp(-0.5 * cmath.log(s))  # s^(-1/2)
        r3 = r / s
        lhs = lam * nu * r3 * w - r * wp / (2.0 * nu * t)
        rhs = r3 * w * w * (wplus - wm)
        worst = max(worst, abs(lhs - rhs))
    return VerifierReport(
        check="mkdv-reduction",
        params={"lam": str(lam), "nu": str(nu), "perturb": str(perturb)},
        samples=samples,
        max_residual=worst,
        tol=_MKDV_TOL,
    )
