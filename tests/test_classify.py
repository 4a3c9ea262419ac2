"""Necessary-condition verdicts and parameter extraction."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddelab.cascade import confinement_report, first_seed, polynomial_blowup, run_cascade
from ddelab.classify import (
    _number_ratio,
    Outcome,
    build_normal_form,
    classify,
    classify_inverse_square,
    classify_log_deriv,
    classify_pure_log_deriv,
)
from ddelab import cli, fieldelem, model
from ddelab.corpus import load_corpus, load_demo_corpus
from ddelab.fieldelem import FieldElem
from ddelab.gaussian import gauss
from ddelab.model import (
    EqKind,
    FactoredDenominator,
    WPoly,
    make_inverse_square,
    make_log_deriv,
    make_pure_log_deriv,
)

Z = FieldElem.var("z")
ONE = FieldElem.const(1)
W0 = FieldElem.const(0)


def _wpoly(*ascending):
    return WPoly([FieldElem.coerce(c) for c in ascending])


def _log_deriv(p_coeffs, roots, a=W0):
    p = _wpoly(*p_coeffs)
    q = FactoredDenominator(tuple((FieldElem.coerce(r), 1) for r in roots), None)
    return make_log_deriv(a=a, p_poly=p, q_factors=q)


class TestLogDerivBranches:
    def test_cubic_over_quadratic_is_branch_a(self):
        # num degree 3 = den degree 2 + 1
        eq = _log_deriv([ONE, W0, W0, ONE], [Z, FieldElem.const(2) * Z])
        v = classify_log_deriv(eq)
        assert v["outcome"] == Outcome.CONSISTENT_BRANCH_A

    def test_quartic_over_quadratic_violates(self):
        eq = _log_deriv([W0, W0, W0, W0, ONE], [Z, FieldElem.const(2) * Z])
        v = classify_log_deriv(eq)
        assert v["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION

    def test_plain_forcing_is_branch_b(self):
        eq = _log_deriv([Z + ONE], [])
        v = classify_log_deriv(eq)
        assert v["outcome"] == Outcome.CONSISTENT_BRANCH_B

    def test_linear_over_constant_reports_both_branches(self):
        eq = _log_deriv([ONE, ONE], [])
        v = classify_log_deriv(eq)
        assert v["outcome"] == Outcome.CONSISTENT_BRANCH_A
        assert v["also_branch_b"]

    def test_shared_root_is_a_hypothesis_violation(self):
        # num and den both vanish at w = z
        p = _wpoly(-Z, ONE) * _wpoly(ONE, W0, ONE)
        eq = make_log_deriv(
            a=W0, p_poly=p,
            q_factors=FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1)), None),
        )
        v = classify_log_deriv(eq)
        assert v["outcome"] == Outcome.HYPOTHESIS_VIOLATION
        assert any("share a root" in d for d in v["details"])

    def test_verdict_survives_common_rescaling(self):
        # P and Q are not normalized: scaling both by c leaves the verdict alone
        p = _wpoly(ONE, W0, W0, ONE)
        q = FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1)), None)
        eq = make_log_deriv(a=W0, p_poly=p, q_factors=q)
        c = FieldElem.const(3) * Z + ONE
        scaled = make_log_deriv(
            a=W0, p_poly=WPoly([c * x for x in p.coeffs]),
            q_factors=FactoredDenominator(q.factors, WPoly([c])),
        )
        assert classify_log_deriv(scaled)["outcome"] == classify_log_deriv(eq)["outcome"]
        # Q the non-monic constant 2 + i: a polynomial right side, whose pole
        # orders polynomial_blowup reads, the only cascade of a log-deriv entry
        p = _wpoly(ONE, Z, ONE)
        c = FieldElem.const(gauss(2, 1))
        eq = make_log_deriv(a=ONE, p_poly=p, q_factors=FactoredDenominator((), None))
        scaled = make_log_deriv(
            a=ONE, p_poly=WPoly([c * x for x in p.coeffs]),
            q_factors=FactoredDenominator((), WPoly([c])),
        )
        assert classify_log_deriv(scaled) == classify_log_deriv(eq)
        assert polynomial_blowup(scaled, 3) == polynomial_blowup(eq, 3) == (2, 4, 8)

    def test_repeated_calls_agree(self):
        eq = _log_deriv([ONE, W0, W0, ONE], [Z, FieldElem.const(2) * Z])
        assert classify_log_deriv(eq) == classify_log_deriv(eq)

    def test_factored_entries_skip_the_remainder_sequence(self, monkeypatch):
        # the supplied roots decide; Euclid's remainder sequence is only for a
        # residual of positive degree in w, and these residuals are constants in w
        def refuse(a, b):
            raise AssertionError("_ulist_divmod called")

        eqs = [e.eq for e in load_demo_corpus() if e.eq.kind == EqKind.LOG_DERIV]
        eqs += [
            _log_deriv([ONE, W0, W0, ONE], [Z, FieldElem.const(2) * Z]),
            _log_deriv([FieldElem.const(-2), ONE], [FieldElem.const(2), FieldElem.const(-3)]),
            make_log_deriv(
                a=W0, p_poly=_wpoly(ONE, Z),
                q_factors=FactoredDenominator(((Z, 2),), WPoly([FieldElem.const(3) * Z + ONE])),
            ),
        ]
        monkeypatch.setattr(model, "_ulist_divmod", refuse)
        outcomes = [classify_log_deriv(eq)["outcome"] for eq in eqs]
        assert outcomes[-2] == Outcome.HYPOTHESIS_VIOLATION


class TestPureLogDerivVerdicts:
    def test_constant_pair_is_consistent(self):
        eq = make_pure_log_deriv(a=FieldElem.const(2), b=FieldElem.const(5))
        assert classify_pure_log_deriv(eq)["outcome"] == Outcome.CONSISTENT_BRANCH_A

    def test_nonconstant_coefficient_violates(self):
        eq = make_pure_log_deriv(a=Z, b=W0)
        v = classify_pure_log_deriv(eq)
        assert v["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION

    def test_zero_coefficient_is_rejected_at_construction(self):
        from ddelab.model import EquationError

        with pytest.raises(EquationError):
            make_pure_log_deriv(a=W0, b=ONE)

    def test_exponential_family_flag_fires_on_near_pi_ratio(self):
        # continued-fraction convergent of 2*pi, relative error ~1e-14; the
        # flag is numeric with 1e-12 relative tolerance
        two_pi = Fraction(10838702, 1725033)
        b = FieldElem.const(gauss(0, two_pi))
        eq = make_pure_log_deriv(a=ONE, b=b)
        v = classify_pure_log_deriv(eq)
        assert v["outcome"] == Outcome.CONSISTENT_BRANCH_A
        assert any("exponential" in d for d in v["details"])

    def test_flag_stays_quiet_away_from_the_family(self):
        eq = make_pure_log_deriv(a=ONE, b=FieldElem.const(3))
        v = classify_pure_log_deriv(eq)
        assert not v["details"]

    def test_flag_never_drives_the_verdict(self):
        two_pi = Fraction(10838702, 1725033)
        b = FieldElem.const(gauss(0, two_pi)) * Z
        eq = make_pure_log_deriv(a=Z, b=b)
        v = classify_pure_log_deriv(eq)
        assert v["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION
        assert any("exponential" in d for d in v["details"])


class TestInverseSquareExtraction:
    def test_reference_triple(self):
        eq = make_inverse_square(a=ONE + FieldElem.const(2) * Z, b=ONE + FieldElem.const(6) * Z)
        v = classify_inverse_square(eq)
        assert v["outcome"] == Outcome.CONSISTENT_BRANCH_A
        assert v["params"] == {"lam": gauss(1), "mu": gauss(2), "nu": gauss(3)}

    def test_nonzero_additive_term_violates(self):
        eq = make_inverse_square(a=ONE, b=W0, c=ONE)
        v = classify_inverse_square(eq)
        assert v["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION
        assert any("c is not identically zero" in d for d in v["details"])

    def test_nonaffine_coefficient_violates_with_witness(self):
        eq = make_inverse_square(a=Z * Z, b=ONE)
        v = classify_inverse_square(eq)
        assert v["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION
        assert any("second difference" in d for d in v["details"])

    def test_unmatched_forcing_violates(self):
        eq = make_inverse_square(a=ONE, b=Z)
        v = classify_inverse_square(eq)
        assert v["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION
        assert any("not" in d and "constant" in d for d in v["details"])

    def test_round_trip_over_random_gaussian_triples(self):
        rng = random.Random(7)
        for _ in range(25):
            lam = gauss(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            mu = gauss(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            nu = gauss(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            if lam.is_zero and mu.is_zero:
                continue
            eq = build_normal_form(lam, mu, nu)
            v = classify_inverse_square(eq)
            assert v["outcome"] == Outcome.CONSISTENT_BRANCH_A
            assert v["params"] == {"lam": lam, "mu": mu, "nu": nu}

    def test_consistent_verdict_agrees_with_confined_cascade(self):
        eq = build_normal_form(1, 2, 3)
        assert classify_inverse_square(eq)["outcome"] == Outcome.CONSISTENT_BRANCH_A
        pat = run_cascade(eq, first_seed(1), 3)
        assert confinement_report(pat, eq)["kind"] == "confined"

    def test_obstructed_verdict_agrees_with_pole_tail_cascade(self):
        eq = make_inverse_square(a=ONE, b=Z)
        assert classify_inverse_square(eq)["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION
        pat = run_cascade(eq, first_seed(1), 3)
        assert confinement_report(pat, eq)["kind"] == "simple-pole-tail"


small_gaussian = st.builds(gauss, st.integers(-3, 3), st.integers(-3, 3))
maybe_zero = st.one_of(st.just(gauss(0)), small_gaussian)


def _quadratic(c0, c1, c2):
    return FieldElem.const(c0) + FieldElem.const(c1) * Z + FieldElem.const(c2) * Z * Z


@st.composite
def inverse_square_equations(draw):
    """Equations w(z+1) - w(z-1) = (a w + b)/w^2 + c with a, b of degree <= 2.

    A third come from the confined family.  A third keep its forcing
    b = nu*a - mu, with mu the slope of a, but a may be quadratic.  A third
    have generic a, b and c.
    """
    shape = draw(st.sampled_from(["family", "quadratic-a", "generic"]))
    if shape == "family":
        lam, mu, nu = draw(small_gaussian), draw(small_gaussian), draw(small_gaussian)
        if lam.is_zero and mu.is_zero:
            lam = gauss(1)
        return build_normal_form(lam, mu, nu)
    lam, mu = draw(small_gaussian), draw(small_gaussian)
    a = _quadratic(lam, mu, draw(maybe_zero))
    if a.is_zero:
        a = ONE
    if shape == "quadratic-a":
        nu = FieldElem.const(draw(small_gaussian))
        return make_inverse_square(a=a, b=nu * a - FieldElem.const(mu))
    b = _quadratic(draw(small_gaussian), draw(small_gaussian), draw(maybe_zero))
    return make_inverse_square(a=a, b=b, c=draw(st.sampled_from([W0, ONE])))


class TestClassifyAgreesWithCascade:
    # classify states the paper's conditions in closed form; the cascade
    # follows a simple zero of w through three steps of the equation
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inverse_square_equations())
    def test_branch_a_exactly_when_a_simple_zero_confines(self, eq):
        consistent = classify(eq)["outcome"] == Outcome.CONSISTENT_BRANCH_A
        pattern = run_cascade(eq, first_seed(1), 3)
        assert consistent == (confinement_report(pattern, eq)["kind"] == "confined")


class TestDoubleZeroDoesNotConfine:
    # the family's simple zero closes at offset 3; a zero of order 2 leaves
    # poles of order 3 at offsets 1 and 3, for constant and z-dependent a
    @pytest.mark.parametrize("triple", [(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 1), (3, 2, 1)])
    def test_probed_triples(self, triple):
        self.check(build_normal_form(*triple))

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(small_gaussian, small_gaussian, small_gaussian)
    def test_drawn_triples(self, lam, mu, nu):
        self.check(build_normal_form(gauss(1) if lam.is_zero and mu.is_zero else lam, mu, nu))

    @staticmethod
    def check(eq):
        pattern = run_cascade(eq, first_seed(2), 3)
        assert [pattern.entry_at(j).order for j in (1, 2, 3)] == [-3, 2, -3]
        assert confinement_report(pattern, eq)["kind"] == "bounded-pole-chain"


nonzero_gaussian = small_gaussian.filter(lambda g: not g.is_zero)


@st.composite
def polynomial_log_deriv_equations(draw):
    """(d, q, eq): w(z+1) - w(z-1) + a w'/w = P(w) with P of w-degree d, Q = 1.

    P has coefficients in Q(i), its leading one nonzero; a is 0, 1 or z, and
    q is the order of the pole that seeds the cascade.
    """
    d = draw(st.integers(0, 4))
    coeffs = [draw(small_gaussian) for _ in range(d)] + [draw(nonzero_gaussian)]
    a = draw(st.sampled_from([W0, ONE, Z]))
    return d, draw(st.integers(1, 2)), _log_deriv(coeffs, [], a=a)


class TestClassifyAgreesWithPolynomialBlowup:
    # a polynomial right side of w-degree d >= 2 fits neither branch, and a
    # pole of order q then feeds poles of orders q d, q d^2, q d^3
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(polynomial_log_deriv_equations())
    def test_violation_exactly_when_pole_orders_grow_by_the_degree(self, case):
        d, q, eq = case
        violates = classify(eq)["outcome"] == Outcome.VIOLATES_NECESSARY_CONDITION
        orders = polynomial_blowup(eq, 3, q=q)
        assert violates == (d >= 2 and orders == (q * d, q * d**2, q * d**3))


class TestDispatch:
    def test_routes_by_kind(self):
        assert classify(make_pure_log_deriv(a=ONE, b=ONE))["eq_kind"] == EqKind.PURE_LOG_DERIV
        assert classify(make_inverse_square(a=ONE, b=W0))["eq_kind"] == EqKind.INVERSE_SQUARE
        eq = _log_deriv([Z], [])
        assert classify(eq)["eq_kind"] == EqKind.LOG_DERIV

    def test_verdict_prints_as_json(self):
        v = classify(make_pure_log_deriv(a=Z, b=W0))
        out = json.loads(cli._render_json(v))
        assert out["eq_kind"] == "pure-log-deriv"
        assert out["outcome"] == "violates-necessary-condition"
        assert isinstance(out["details"], list)
        # the confined triple prints through the writer's exact-value hook
        eq = make_inverse_square(a=ONE + FieldElem.const(2) * Z, b=ONE + FieldElem.const(6) * Z)
        out = json.loads(cli._render_json(classify(eq)))
        assert out["params"] == {"lam": "1", "mu": "2", "nu": "3"}


# ---------------------------------------------------------------------------
# the ratio helper behind nu and the exponential-family flag


_GAUSS = st.builds(
    lambda re, im, den: gauss(Fraction(re, den), Fraction(im, den)),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
)
_POLY = st.lists(_GAUSS, max_size=3).map(
    lambda cs: sum((FieldElem.const(c) * Z ** k for k, c in enumerate(cs)), W0))
_NONZERO_POLY = _POLY.filter(lambda f: not f.is_zero)
_RATIONAL = st.one_of(st.builds(lambda n, d: n / d, _POLY, _NONZERO_POLY), _POLY)
_NONZERO = _RATIONAL.filter(lambda f: not f.is_zero)


@st.composite
def _ratio_pairs(draw):
    """(f, g): unrelated, zero f, a shared factor, or f = c*g."""
    g = draw(_NONZERO)
    kind = draw(st.sampled_from(["any", "zero", "shared", "multiple"]))
    if kind == "any":
        f = draw(_RATIONAL)
    elif kind == "zero":
        f = W0
    elif kind == "shared":
        h = draw(_NONZERO)
        f, g = h * draw(_RATIONAL), h * g
    else:
        f = FieldElem.const(draw(_GAUSS)) * g
    return f, g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ratio_pairs())
def test_number_ratio_is_the_constant_quotient(pair):
    f, g = pair
    quotient = f / g
    c = _number_ratio(f, g)
    if quotient.is_number():
        assert c is not None and c == quotient.constant_value()
    else:
        assert c is None


def test_number_ratio_of_the_pinned_flag_case():
    # a = z, b = 2*pi*i*z to seven digits: the ratio is the number itself
    two_pi_i = gauss(0, Fraction(10838702, 1725033))
    assert _number_ratio(FieldElem.const(two_pi_i) * Z, Z) == two_pi_i
    assert _number_ratio(FieldElem.const(two_pi_i) * Z, Z + ONE) is None
    assert _number_ratio(W0, Z) == gauss(0)


def _batch_light_corpus(seed):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    return load_corpus(json.dumps(WORKLOADS["batch-light"].generate(seed)[0]))


@pytest.mark.parametrize("corpus", ["demo", "batch-light"])
def test_classify_reaches_no_univariate_gcd(corpus, monkeypatch):
    # the parent made 1 call on the demo and 71 on batch-light at seed 7
    entries = load_demo_corpus() if corpus == "demo" else _batch_light_corpus(7)
    calls = []
    gcd = fieldelem._gcd_with_content
    monkeypatch.setattr(fieldelem, "_gcd_with_content",
                        lambda *args: calls.append(args) or gcd(*args))
    verdicts = [classify(entry.eq) for entry in entries]
    assert len(verdicts) == len(entries) and calls == []
