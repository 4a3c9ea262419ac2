"""Checks for the closed-form solution verifiers and scaling limits.

The expansion oracle here evaluates the defect of the slow-modulation
substitution at rational scale values with exact Fraction arithmetic and
recovers its coefficients through a Vandermonde solve, so the symbolic
expansion is confirmed against a numeric route that shares none of its
code.
"""

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from ddelab.analytic import (
    EllipticSolutionModel,
    ExponentialModel,
    ParamDomainError,
    continuum_limit,
    elliptic_params,
    mkdv_reduction_check,
    verify_elliptic_family,
    verify_exponential,
)
from ddelab.cascade import confinement_report, first_seed, run_cascade
from ddelab.classify import build_normal_form
from ddelab.fieldelem import FieldElem
from ddelab.mpoly import MPoly


def fe_const(c) -> FieldElem:
    return FieldElem.const(c)


def fe_z() -> FieldElem:
    return FieldElem.var("z")


class TestEllipticFamily:
    def params(self, **kw):
        return elliptic_params(g2=4.0, g3=1.0, omega=0.37 + 0.11j, lam=1.0, **kw)

    def test_family_satisfies_equation(self):
        report = verify_elliptic_family(self.params(), samples=100)
        assert report.passed
        assert report.samples == 100
        assert report.max_residual <= 1e-8

    def test_log_abs_is_even_to_the_bit(self):
        # the half-circle proximity relies on log|w(-z)| = log|w(z)|
        model = EllipticSolutionModel(self.params())
        rng = np.random.default_rng(53)
        z = rng.uniform(-9, 9, 4000) + 1j * rng.uniform(-9, 9, 4000)
        z = np.concatenate([z, 3.0 * np.exp(2j * np.pi * np.arange(512) / 1024)])
        assert [v.hex() for v in model.log_abs(-z).tolist()] == [
            v.hex() for v in model.log_abs(z).tolist()]

    def test_wrong_scale_sign_breaks_the_identity(self):
        bad = self.params(flip_alpha_square=True)
        report = verify_elliptic_family(bad, samples=100)
        assert not report.passed
        assert report.max_residual > 1e-3

    def test_half_period_base_is_rejected(self):
        eng = self.params().engine
        half = eng.omega1 / 2.0
        with pytest.raises(ParamDomainError):
            elliptic_params(g2=4.0, g3=1.0, omega=half, lam=1.0)

    def test_lattice_base_is_rejected(self):
        eng = self.params().engine
        with pytest.raises(ParamDomainError):
            elliptic_params(g2=4.0, g3=1.0, omega=eng.omega1, lam=1.0)

    def test_zero_coefficient_is_rejected(self):
        with pytest.raises(ParamDomainError):
            elliptic_params(g2=4.0, g3=1.0, omega=0.37 + 0.11j, lam=0.0)

    def test_residual_responds_linearly_to_perturbation(self):
        r1 = verify_elliptic_family(self.params(), perturb=1e-6).max_residual
        r2 = verify_elliptic_family(self.params(), perturb=2e-6).max_residual
        assert r1 > 1e-8
        assert abs(r2 / r1 - 2.0) < 0.3

    def test_pole_zero_layout_matches_symbolic_cascade(self):
        """Numeric inventories next to the exact singularity chain.

        The exact cascade from a simple zero gives a double pole one step
        ahead, a simple zero two steps ahead, and a regular point three
        steps ahead.  The numeric model must show the same geometry: each
        double pole has simple zeros one unit to both sides and nothing
        two units away.
        """
        eq = build_normal_form(1, 0, 0)
        pattern = run_cascade(eq, first_seed(1), 3)
        assert [pattern.entry_at(j).order for j in (1, 2, 3)] == [-2, 1, 0]
        assert confinement_report(pattern, eq)["kind"] == "confined"

        model = EllipticSolutionModel(self.params())
        poles = model.poles_upto(5.0)
        zeros = model.zeros_upto(7.0)
        assert all(m == 2 for _, m in poles)
        assert all(m == 1 for _, m in zeros)
        zpts = [q for q, _ in zeros]
        singular = [q for q, _ in poles] + zpts
        for p, _ in poles:
            for side in (1.0, -1.0):
                assert min(abs(p + side - q) for q in zpts) <= 1e-8
            assert min(abs(p + 2.0 - s) for s in singular) > 1e-2


class TestExponentialFamily:
    def test_constant_coefficient_instance(self):
        report = verify_exponential(fe_const(1), p=1, C=1.0, samples=100)
        assert report.passed
        assert report.max_residual <= 1e-10

    def test_variable_coefficient_instance(self):
        report = verify_exponential(fe_z(), p=2, C=0.5 - 1.5j, samples=100)
        assert report.passed
        assert report.max_residual <= 1e-10

    def test_forcing_offset_is_detected(self):
        report = verify_exponential(fe_const(1), p=1, C=1.0, perturb_b=1e-6)
        assert not report.passed
        assert report.max_residual == pytest.approx(1e-6, rel=1e-3)

    def test_residual_responds_linearly_to_perturbation(self):
        r1 = verify_exponential(fe_const(1), p=1, C=1.0, perturb_b=1e-6).max_residual
        r2 = verify_exponential(fe_const(1), p=1, C=1.0, perturb_b=2e-6).max_residual
        assert abs(r2 / r1 - 2.0) < 0.01

    def test_number_coefficient_is_evaluated_once(self, monkeypatch):
        calls = []
        evaluate = FieldElem.eval_complex
        monkeypatch.setattr(FieldElem, "eval_complex",
                            lambda self, values: calls.append(values) or evaluate(self, values))
        a = fe_const(Fraction(3, 4))
        report = verify_exponential(a, p=1, C=complex(0.5, 1.0), samples=100, seed=5)
        assert len(calls) <= 1 and report.samples == 100
        # the bits recorded when every candidate evaluated a
        assert report.max_residual.hex() == "0x1.01fe03f61bad0p-44"

    @pytest.mark.parametrize("a, p, C, seed, bits", [
        (fe_z() + fe_const(Fraction(1, 2)), 2, complex(1.25, -0.5), 3, "0x1.5a22073490377p-42"),
        (fe_const(1) / (fe_z() - fe_const(Fraction(1, 3))), 1, 1.0, 0, "0x1.e87573f6c42c5p-44"),
    ])
    def test_varying_coefficient_keeps_its_samples(self, a, p, C, seed, bits):
        report = verify_exponential(a, p=p, C=C, samples=100, seed=seed)
        assert report.max_residual.hex() == bits

    def test_model_inventories_are_empty(self):
        model = ExponentialModel(C=2.0, p=1)
        assert model.poles_upto(50.0) == []
        assert model.zeros_upto(50.0) == []


class TestContinuumLimit:
    def test_low_orders_vanish_identically(self):
        coeffs = continuum_limit()
        for k in (0, 1, 2, 3, 4, 6):
            assert coeffs[k].is_zero
        assert next(k for k, c in enumerate(coeffs) if not c.is_zero) == 5

    def test_leading_coefficient_closed_form(self):
        coeffs = continuum_limit()
        y0, y1, y3 = MPoly.var("y0"), MPoly.var("y1"), MPoly.var("y3")
        third = MPoly.const(Fraction(1, 3))
        expected = y0 * y1 * MPoly.const(4) - y3 * third + third
        assert (coeffs[5] - expected).is_zero

    def test_expansion_against_vandermonde_oracle(self):
        """Numeric re-expansion of the defect at a rational jet.

        The profile is the degree-5 polynomial with prescribed derivatives
        a_j at the base point, so its finite Taylor shift is exact and the
        defect becomes a plain rational polynomial in the scale; solving
        the Vandermonde system at 13 rational scale values recovers every
        coefficient without touching the symbolic pipeline.
        """
        a = [
            Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5),
            Fraction(1, 7), Fraction(-1, 4), Fraction(2, 9),
        ]

        def profile(s: Fraction) -> Fraction:
            return sum(aj * s**j / math.factorial(j) for j, aj in enumerate(a))

        def defect(e: Fraction) -> Fraction:
            w0 = 1 - e**2 * a[0]
            w_fwd = 1 - e**2 * profile(e)
            w_bwd = 1 - e**2 * profile(-e)
            slope_term = 2 * (-(e**3) * a[1])
            drift_term = (-(e**5) / 3) * w0
            return (w_fwd - w_bwd) * w0**2 - slope_term - drift_term

        degree = 12
        nodes = [Fraction(k, 7) for k in range(1, degree + 2)]
        n = degree + 1
        rows = [[x**j for j in range(n)] + [defect(x)] for x in nodes]
        for col in range(n):
            piv = next(r for r in range(col, n) if rows[r][col] != 0)
            rows[col], rows[piv] = rows[piv], rows[col]
            inv = 1 / rows[col][col]
            rows[col] = [x * inv for x in rows[col]]
            for r in range(n):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        oracle = [rows[i][n] for i in range(n)]

        coeffs = continuum_limit()
        point = {f"y{j}": a[j] for j in range(6)}
        for k in range(8):
            got = coeffs[k]
            for name, value in point.items():
                got = got.compose(name, MPoly.const(value))
            assert (got - MPoly.const(oracle[k])).is_zero, f"eps^{k}"
        assert oracle[5] == 4 * a[0] * a[1] - a[3] / 3 + Fraction(1, 3)
        assert oracle[5] != 0

    def test_coefficient_beyond_truncation_is_rejected(self):
        # orders above 7 are uncertified, so the expansion stops at eps^7
        assert len(continuum_limit()) == 8


class TestReductionToMkdv:
    def test_reference_parameters(self):
        report = mkdv_reduction_check(lam=2.0, nu=-1.0 / 6.0, samples=100)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_other_parameters(self):
        report = mkdv_reduction_check(lam=1.0 + 0.5j, nu=0.25, samples=100)
        assert report.passed

    def test_broken_shift_rule_is_detected(self):
        report = mkdv_reduction_check(lam=2.0, nu=-1.0 / 6.0, perturb=1e-8)
        assert not report.passed
        assert report.max_residual > 1e-10

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ParamDomainError):
            mkdv_reduction_check(lam=2.0, nu=0.0)
        with pytest.raises(ParamDomainError):
            mkdv_reduction_check(lam=0.0, nu=1.0)


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize(
    "check",
    [
        lambda n: verify_elliptic_family(
            elliptic_params(g2=4.0, g3=1.0, omega=0.37 + 0.11j, lam=1.0), samples=n
        ),
        lambda n: verify_exponential(fe_const(1), p=1, C=1.0, samples=n),
        lambda n: mkdv_reduction_check(lam=2.0, nu=1.0, samples=n),
    ],
    ids=["elliptic", "exponential", "mkdv"],
)
def test_verifier_without_samples_is_rejected(check, samples):
    # with no sample point the residual maximum is 0.0: a pass that tests nothing
    with pytest.raises(ValueError, match="samples"):
        check(samples)


class _ZeroRandom:
    """Stand-in for ``random.Random`` that draws 0.0 every time.

    z = 0 lies on a pole of the elliptic family and on the pole of a = 1/z,
    and w = 0 lies inside the mKdV check's excluded disk, so every candidate
    is rejected.  Each candidate draws its first two numbers before it is
    rejected.
    """

    draws = 0

    def __init__(self, seed):
        pass

    def uniform(self, lo, hi):
        type(self).draws += 1
        return 0.0


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda n: verify_elliptic_family(
            elliptic_params(g2=4.0, g3=1.0, omega=0.37 + 0.11j, lam=1.0), samples=n),
         "singular set"),
        (lambda n: verify_exponential(fe_const(1) / fe_z(), p=1, C=1.0, samples=n),
         "coefficient poles"),
        (lambda n: mkdv_reduction_check(lam=2.0, nu=1.0, samples=n), "branch cut"),
    ],
    ids=["elliptic", "exponential", "mkdv"],
)
def test_sampler_gives_up_after_eighty_candidates_per_point(monkeypatch, check, message):
    import ddelab.analytic as analytic

    monkeypatch.setattr(analytic, "Random", _ZeroRandom)
    monkeypatch.setattr(_ZeroRandom, "draws", 0)
    with pytest.raises(ArithmeticError, match=message):
        check(3)
    assert _ZeroRandom.draws == 2 * 80 * 3


def test_zero_cosets_keep_their_origin_exact():
    # the zeros +-1 + lattice/omega must contain +-1 itself, exactly: a zero
    # on the boundary circle |z| = 1 counts for n(1, 0) only then
    rng = Random(1)
    for _ in range(200):
        omega = complex(rng.uniform(0.2, 1.5), rng.uniform(-0.8, 0.8))
        model = EllipticSolutionModel(elliptic_params(g2=4.0, g3=1.0, omega=omega, lam=1.0))
        zeros = [z for z, _ in model.zeros_upto(1.0)]
        assert 1.0 + 0j in zeros, omega
        assert -1.0 + 0j in zeros, omega
