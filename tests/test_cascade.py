"""Seeded local expansions stepped through the delay normal forms."""

import json
import sys
from pathlib import Path

import pytest

from ddelab import cli
from ddelab import cascade
from ddelab.cascade import (
    SeedSpec,
    at_base_point,
    confinement_report,
    first_seed,
    gamma_of,
    polynomial_blowup,
    run_cascade,
    second_difference,
    simple_pole_residue,
)
from ddelab.corpus import SCHEMA_VERSION, load_corpus, load_demo_corpus
from ddelab.fieldelem import FieldElem
from ddelab.model import (
    EqKind,
    make_inverse_square,
    make_log_deriv,
    make_pure_log_deriv,
)

Z = FieldElem.var("z")
ZHAT = FieldElem.var("zhat")
ALPHA = FieldElem.var("alpha")
ONE = FieldElem.const(1)


# an affine-confined entry with complex coefficients: before the Gaussian
# content was divided out, its leadings printed differently at start widths
# 1 and 3
AFFINE_CONFINED_012 = {
    "id": "affine-confined-012", "class": "inverse-square",
    "a": "(-2-3*i) + (1/3+4/3*i)*z", "b": "(2/3+20/3*i) + (2/3-3*i)*z", "c": "0",
}


def _path_cases():
    golden = Path(__file__).parent / "golden" / "cascade-exact-7-corpus.json"
    extra = json.dumps({"schema_version": SCHEMA_VERSION, "entries": [AFFINE_CONFINED_012]})
    demo = [e for e in load_demo_corpus() if e.eq.kind == EqKind.INVERSE_SQUARE]
    return demo + list(load_corpus(golden.read_text())) + list(load_corpus(extra))


def zero_seed(p):
    return first_seed(p)


def log_deriv_triple(a, p):
    """Expected leading coefficients for a simple-zero seed of order p."""
    ahat = at_base_point(a)
    return (
        ahat * FieldElem.const(-p),
        at_base_point(a.shift(1)),
        at_base_point(a.shift(2)) - ahat * FieldElem.const(p),
    )


class TestLogDerivativeChain:
    def test_linear_coefficient_triple(self):
        eq = make_pure_log_deriv(a=Z, b=ONE)
        pat = run_cascade(eq, zero_seed(1), 3)
        assert [e.order for e in pat.entries] == [-1, -1, -1]
        assert pat.entry_at(1).leading == -ZHAT
        assert pat.entry_at(2).leading == ZHAT + ONE
        assert pat.entry_at(3).leading == FieldElem.const(2)

    def test_order_two_seed_triple(self):
        eq = make_pure_log_deriv(a=Z, b=ONE)
        pat = run_cascade(eq, zero_seed(2), 3)
        assert pat.entry_at(1).leading == FieldElem.const(-2) * ZHAT
        assert pat.entry_at(2).leading == ZHAT + ONE
        assert pat.entry_at(3).leading == FieldElem.const(2) - ZHAT

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_cubic_coefficient_leadings_match_shift_formulas(self, p):
        a = FieldElem.const(2) * Z**3 - Z + ONE
        eq = make_pure_log_deriv(a=a, b=ONE)
        pat = run_cascade(eq, zero_seed(p), 3)
        l1, l2, l3 = log_deriv_triple(a, p)
        assert pat.entry_at(1).leading == l1
        assert pat.entry_at(2).leading == l2
        assert pat.entry_at(3).leading == l3

    def test_rational_coefficient_leadings_match_shift_formulas(self):
        a = (FieldElem.const(2) * Z**3 - Z + ONE) / (Z * Z + FieldElem.const(3))
        eq = make_pure_log_deriv(a=a, b=ONE)
        pat = run_cascade(eq, zero_seed(1), 3)
        l1, l2, l3 = log_deriv_triple(a, 1)
        assert pat.entry_at(1).leading == l1
        assert pat.entry_at(2).leading == l2
        assert pat.entry_at(3).leading == l3

    def test_second_step_leading_ignores_forcing_term(self):
        for b in (ONE, Z * Z - FieldElem.const(7)):
            eq = make_pure_log_deriv(a=Z, b=b)
            pat = run_cascade(eq, zero_seed(1), 3)
            assert pat.entry_at(2).leading == ZHAT + ONE

    def test_constant_coefficient_third_step_closes_to_forcing_difference(self):
        # with constant a the pole part cancels at the third step and the
        # finite value is the second-minus-first shift of b; K drops out
        eq = make_pure_log_deriv(a=ONE, b=Z)
        pat = run_cascade(eq, zero_seed(1), 3)
        assert pat.entry_at(3).order == 0
        expected = at_base_point(Z.shift(2) - Z.shift(1))
        assert pat.entry_at(3).leading == expected == ONE


class TestInverseSquareChain:
    def test_confined_affine_family_closes_at_three(self):
        eq = make_inverse_square(a=ONE + FieldElem.const(2) * Z, b=ONE + FieldElem.const(6) * Z)
        pat = run_cascade(eq, zero_seed(1), 3)
        assert [e.order for e in pat.entries] == [-2, 1, 0]
        verdict = confinement_report(pat, eq)
        assert verdict["kind"] == "confined"
        assert verdict["offset"] == 3
        assert verdict["witness"].is_zero
        assert verdict["witnesses"]["second_difference"].is_zero
        assert verdict["witnesses"]["residue_obstruction"].is_zero

    def test_perturbed_family_keeps_simple_pole(self):
        eq = make_inverse_square(a=ONE, b=Z)
        pat = run_cascade(eq, zero_seed(1), 4)
        assert [e.order for e in pat.entries] == [-2, 1, -1, 0]
        assert pat.entry_at(1).leading == ONE / ALPHA
        assert pat.entry_at(2).leading == -ALPHA
        assert pat.entry_at(3).leading == FieldElem.const(-2) / ALPHA
        assert pat.entry_at(4).leading == ALPHA / FieldElem.const(2)
        verdict = confinement_report(pat, eq)
        assert verdict["kind"] == "simple-pole-tail"
        assert verdict["witness"] == FieldElem.const(-2)

    def test_fourth_step_value_is_minus_alpha_shift_over_obstruction(self):
        a, b = ONE, Z
        eq = make_inverse_square(a=a, b=b)
        pat = run_cascade(eq, zero_seed(1), 4)
        expected = -ALPHA * at_base_point(a.shift(3)) / at_base_point(gamma_of(a, b))
        assert pat.entry_at(4).leading == expected

    def test_quadratic_coefficient_leaves_double_pole(self):
        eq = make_inverse_square(a=Z * Z, b=ONE)
        pat = run_cascade(eq, zero_seed(1), 3)
        assert [e.order for e in pat.entries] == [-2, 1, -2]
        verdict = confinement_report(pat, eq)
        assert verdict["kind"] == "bounded-pole-chain"
        assert verdict["witnesses"]["second_difference"] == FieldElem.const(2)
        expected = (FieldElem.const(-2) * ZHAT * ZHAT) / (
            ALPHA * (ZHAT * ZHAT + FieldElem.const(4) * ZHAT + FieldElem.const(2))
        )
        assert verdict["witness"] == expected


class TestResidueObstruction:
    def test_closed_form_values(self):
        assert gamma_of(ONE, Z) == FieldElem.const(-2)
        assert gamma_of(ONE + FieldElem.const(2) * Z, ONE + FieldElem.const(6) * Z).is_zero
        # affine a with b = k*a - mu is resonant for every k
        assert gamma_of(FieldElem.const(2) + Z, FieldElem.const(9) + FieldElem.const(5) * Z).is_zero

    def test_zero_coefficient_is_rejected(self):
        with pytest.raises(ValueError):
            gamma_of(FieldElem.const(0), Z)

    @pytest.mark.parametrize(
        "a,b",
        [
            (ONE, Z),
            ((Z * Z - FieldElem.const(2)) / (FieldElem.const(3) * Z + ONE), (Z + FieldElem.const(5)) / (Z * Z + ONE)),
            (Z + FieldElem.const(3), Z * Z),
        ],
    )
    def test_cascade_residue_matches_closed_form(self, a, b):
        eq = make_inverse_square(a=a, b=b)
        pat = run_cascade(eq, zero_seed(1), 3)
        res = simple_pole_residue(pat.entry_at(3))
        assert res * ALPHA == at_base_point(gamma_of(a, b))

    def test_second_difference_vanishes_exactly_for_affine(self):
        assert second_difference(FieldElem.const(5) * Z - FieldElem.const(3)).is_zero
        assert second_difference(Z * Z) == FieldElem.const(2)


class TestPolynomialBlowup:
    def test_quartic_map_quadruples_pole_orders(self):
        w4 = (FieldElem.const(0),) * 4 + (ONE,)
        eq = make_log_deriv(a=FieldElem.const(0), p_poly=w4, q_factors=())
        assert polynomial_blowup(eq, 3) == (4, 16, 64)

    def test_quadratic_map_doubles_pole_orders(self):
        w2 = (FieldElem.const(0),) * 2 + (ONE,)
        eq = make_log_deriv(a=FieldElem.const(0), p_poly=w2, q_factors=())
        assert polynomial_blowup(eq, 3) == (2, 4, 8)

    def test_geometric_growth_verdict(self):
        w4 = (FieldElem.const(0),) * 4 + (ONE,)
        eq = make_log_deriv(a=FieldElem.const(0), p_poly=w4, q_factors=())
        pat = run_cascade(eq, first_seed(-1), 3)
        verdict = confinement_report(pat, eq)
        assert verdict["kind"] == "exponential-order-growth"
        assert verdict["ratio"] == 4
        assert verdict["witness"] == ALPHA**64

    def test_rejects_rational_right_side(self):
        w2 = (FieldElem.const(0),) * 2 + (ONE,)
        eq = make_log_deriv(
            a=FieldElem.const(0), p_poly=w2,
            q_factors=((FieldElem.const(1), 1),),
        )
        with pytest.raises(ValueError):
            polynomial_blowup(eq, 2)


class TestReproducibility:
    def test_leadings_do_not_depend_on_window_width(self):
        a = FieldElem.const(2) * Z**3 - Z + ONE
        eq = make_pure_log_deriv(a=a, b=ONE)
        pats = [run_cascade(eq, SeedSpec(1, w), 3) for w in (1, 2, 3, 8)]
        for j in (1, 2, 3):
            for pat in pats[1:]:
                assert pat.entry_at(j).order == pats[0].entry_at(j).order
                assert pat.entry_at(j).leading == pats[0].entry_at(j).leading

    @pytest.mark.parametrize("entry", _path_cases(), ids=lambda e: e.id)
    def test_printed_reports_do_not_depend_on_the_start_width(self, entry):
        # the window width and the grouping of N decide only speed: every
        # leading prints in one normal form, whatever arithmetic made it
        request = entry.requests["cascade"]
        texts = set()
        for width in (1, 3, 8):
            pat = run_cascade(entry.eq, SeedSpec(request["order"], width), request["steps"])
            verdict = confinement_report(pat, entry.eq)
            texts.add(cli._render_json({"pattern": pat.export(), "confinement": verdict}))
        assert len(texts) == 1

    def test_verdict_coefficient_regrows_a_narrow_window(self):
        # orders -3, 2, -3: a one-coefficient window at offset 3 holds only
        # c_-3, and the bounded-pole-chain witness is c_-2
        eq = {e.id: e for e in load_demo_corpus()}["confined-basic"].eq
        verdicts = []
        for width in (1, 8):
            pat = run_cascade(eq, SeedSpec(2, width), 3)
            assert [e.order for e in pat.entries] == [-3, 2, -3]
            verdicts.append(confinement_report(pat, eq))
        assert cli._render_json(verdicts[0]) == cli._render_json(verdicts[1])
        assert verdicts[0]["kind"] == "bounded-pole-chain"
        assert str(verdicts[0]["witness"]) == "0"

    def test_repeated_runs_export_identically(self):
        eq = make_pure_log_deriv(a=Z, b=ONE)
        first = run_cascade(eq, zero_seed(1), 3).export()
        second = run_cascade(eq, zero_seed(1), 3).export()
        assert first == second


def _cascade_exact_corpus(seed):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    return load_corpus(json.dumps(WORKLOADS["cascade-exact"].generate(seed)[0]))


class TestFirstWindow:
    # every cascade reads what its caller needs in the first window, so it
    # runs once: a regrowth rebuilds the seed and replays every step
    @pytest.mark.parametrize("seed", [None, 7, 11],
                             ids=["demo", "cascade-exact-7", "cascade-exact-11"])
    def test_no_cascade_regrows(self, seed, monkeypatch):
        entries = load_demo_corpus() if seed is None else _cascade_exact_corpus(seed)
        builds, steps = [], []
        build, step = SeedSpec.build, cascade.cascade_step
        monkeypatch.setattr(SeedSpec, "build", lambda seed, width: builds.append(width)
                            or build(seed, width))
        monkeypatch.setattr(cascade, "cascade_step", lambda *args: steps.append(args[3])
                            or step(*args))
        for entry in entries:
            cli._run_cascade(entry, None)
        assert steps and builds == []


class TestTruncationCap:
    def test_cap_ends_the_pattern_after_one_last_attempt(self, monkeypatch):
        # confined-affine needs width 4 at offset 3; at a cap of 2 its
        # window there holds only zeros
        eq = {e.id: e for e in load_demo_corpus()}["confined-affine"].eq
        widths = []
        step = cascade.cascade_step

        def recording_step(eq, seed, window, j):
            widths.append(seed.width)
            return step(eq, seed, window, j)

        monkeypatch.setattr(cascade, "MAX_TRUNCATION", 2)
        monkeypatch.setattr(cascade, "cascade_step", recording_step)
        # a one-coefficient seed: zero_seed starts at the width offset 3 reads
        pat = run_cascade(eq, SeedSpec(1, 1), 3)
        assert [e.order for e in pat.entries] == [-2, 1, None]
        last = pat.entry_at(3)
        assert not last.certified
        assert last.note == "series vanishes to the truncation window"
        assert widths == [1, 1, 1, 2, 2, 2]


class _StuckSeed(SeedSpec):
    def build(self, width):
        return self


class TestRegrowth:
    def test_a_seed_that_does_not_widen_raises(self):
        # confined-affine cannot read offset 3 at width 1, so it must regrow
        eq = {e.id: e for e in load_demo_corpus()}["confined-affine"].eq
        with pytest.raises(cascade.CascadeError, match="from width 1 gave width 1"):
            run_cascade(eq, _StuckSeed(1, 1), 3)


class TestSeedValidation:
    def test_order_must_be_positive(self):
        # a signed order: 0 is neither a zero nor a pole of w
        with pytest.raises(ValueError):
            SeedSpec(0, 3)

    def test_width_must_be_at_least_one(self):
        for order, width in ((1, 0), (-1, 0), (2, -1)):
            with pytest.raises(ValueError):
                SeedSpec(order, width)

    def test_first_seed_widths(self):
        # a zero of order p is read at offset 3 in p + 2 coefficients; a pole
        # needs one to show the orders
        assert [first_seed(p).width for p in (1, 2, 3)] == [3, 4, 5]
        assert first_seed(-1) == SeedSpec(-1, 1)

    def test_pattern_export_shape(self):
        eq = make_pure_log_deriv(a=Z, b=ONE)
        rows = run_cascade(eq, zero_seed(1), 2).export()
        assert [r["offset"] for r in rows] == [1, 2]
        assert all(set(r) == {"offset", "order", "leading", "certified"} for r in rows)
