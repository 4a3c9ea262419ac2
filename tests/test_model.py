"""Equation objects, degrees, the common-root test, the normal form as a series.

``shares_root`` decides a residual by Euclid's remainder sequence.  The
resultant below, a Sylvester determinant eliminated over Q(i)(z), is kept here
as an independent reference: it is zero exactly when P and the residual share
a root, and the differential test checks the two against each other.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddelab.corpus import CorpusError, parse_equation
from ddelab.fieldelem import FieldElem
from ddelab.gaussian import gauss
from ddelab.laurent import LaurentSeries
from ddelab.model import (
    EqKind,
    EquationError,
    FactoredDenominator,
    WPoly,
    make_inverse_square,
    make_log_deriv,
    make_pure_log_deriv,
    normal_form_series,
    rational_degree,
    shares_root,
)
from ddelab.mpoly import MPoly

Z = FieldElem.var("z")
ONE = FieldElem.const(1)
ZERO = FieldElem.const(0)


def std_log_deriv():
    # Q = (w - z)(w - 2z), P = w^3 + 1, a = 1
    p = WPoly([ONE, ZERO, ZERO, ONE])
    q = FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1)))
    return make_log_deriv(ONE, p, q)


# -- WPoly and FactoredDenominator ------------------------------------------


def test_wpoly_basics():
    p = WPoly([ONE, ZERO, ZERO, ONE])  # 1 + w^3
    assert p.degree == 3
    assert p.coefficient(0) == ONE
    assert p.coefficient(2).is_zero
    assert p.evaluate(FieldElem.const(2)) == FieldElem.const(9)
    assert WPoly([ZERO]).is_zero
    assert WPoly([ZERO]).degree == -1


def test_wpoly_trailing_zero_strip():
    p = WPoly([ONE, ONE, ZERO, ZERO])
    assert p.degree == 1


def test_wpoly_arithmetic():
    p = WPoly([ONE, ZERO, ONE])
    q = p * p
    assert q.degree == 4
    assert q.coefficient(2) == FieldElem.const(2)
    assert (p * WPoly([])).is_zero


def test_factored_expand():
    f = FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1)))
    q = f.expand()
    # (w - z)(w - 2z) = w^2 - 3z w + 2z^2
    assert q.degree == 2
    assert q.coefficient(1) == FieldElem.const(-3) * Z
    assert q.coefficient(0) == FieldElem.const(2) * Z * Z
    assert q.coefficient(2) == ONE


def test_factored_multiplicity_and_duplicates():
    f = FactoredDenominator(((Z, 2),))
    assert f.expand().degree == 2
    with pytest.raises(EquationError):
        FactoredDenominator(((Z, 1), (Z, 1)))
    with pytest.raises(EquationError):
        FactoredDenominator(((Z, 0),))


@pytest.mark.parametrize("factors, residual", [
    ((), None),
    ((), WPoly([Z, ONE, FieldElem.const(3)])),
    (((Z, 2), (FieldElem.const(2) * Z, 1)), None),
    (((FieldElem.const(-1), 3), (FieldElem.const(gauss(1, 2)), 1)), None),
    (((ONE / (Z + ONE), 2), (Z * Z, 1)), WPoly([Z, ONE, FieldElem.const(3)])),
])
def test_factored_expand_equals_the_wpoly_product(factors, residual):
    product = WPoly([ONE])
    for root, mult in factors:
        for _ in range(mult):
            product = product * WPoly([ZERO - root, ONE])
    if residual is not None:
        product = product * residual
    assert FactoredDenominator(factors, residual).expand() == product


def _count_field_products(monkeypatch):
    calls = []
    mul = FieldElem.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(FieldElem, "__mul__", counting)
    return calls


@pytest.mark.parametrize("factors", [
    ((Z, 1),),
    ((Z, 2), (FieldElem.const(2) * Z, 1)),
    ((FieldElem.const(-1), 3), (FieldElem.const(gauss(1, 2)), 1), (ONE / (Z + ONE), 2)),
])
def test_expand_takes_no_product_by_the_leading_one(monkeypatch, factors):
    want = FactoredDenominator(factors).expand()
    m = sum(mult for _, mult in factors)
    calls = _count_field_products(monkeypatch)
    assert FactoredDenominator(factors).expand() == want
    assert len(calls) == m * (m - 1) // 2


@pytest.mark.parametrize("coeffs", [
    [Z],
    [ONE, Z],
    [Z + ONE, ZERO, ONE / Z, FieldElem.const(gauss(2, -1))],
])
def test_evaluate_starts_horner_at_the_top_coefficient(monkeypatch, coeffs):
    p = WPoly(coeffs)
    x = Z * Z - FieldElem.const(3)
    want = sum((c * x ** k for k, c in enumerate(coeffs)), ZERO)
    calls = _count_field_products(monkeypatch)
    assert p.evaluate(x) == want
    assert len(calls) == p.degree


# -- equation construction ---------------------------------------------------


def test_kind_hypotheses():
    with pytest.raises(EquationError):
        make_pure_log_deriv(ZERO, Z)
    with pytest.raises(EquationError):
        make_inverse_square(ZERO, ONE)
    # a == 0 is fine for log-deriv at construction time
    eq = make_log_deriv(
        ZERO, WPoly([ONE]), FactoredDenominator(((Z, 1),))
    )
    assert eq.a.is_zero


def test_q_at_zero_must_not_vanish():
    # Q = w has Q(z, 0) = 0
    with pytest.raises(EquationError):
        make_log_deriv(ONE, WPoly([ONE]), FactoredDenominator(((ZERO, 1),)))


def test_a_zero_residual_is_an_equation_error():
    # a zero residual makes Q zero; a ValueError from reading its leading
    # coefficient once escaped the corpus load with a traceback
    with pytest.raises(EquationError, match="identically zero"):
        make_log_deriv(ONE, WPoly([ONE]), FactoredDenominator(((Z, 1),), WPoly([])))


def test_make_log_deriv_expands_the_factors_once(monkeypatch):
    calls = []
    expand = FactoredDenominator.expand

    def counting(self):
        calls.append(self)
        return expand(self)

    monkeypatch.setattr(FactoredDenominator, "expand", counting)
    for residual in (None, WPoly([FieldElem.const(3) * Z + ONE, ONE, FieldElem.const(2)])):
        calls.clear()
        eq = make_log_deriv(ONE, WPoly([ONE, ONE]), FactoredDenominator(((Z, 2),), residual))
        assert len(calls) == 1
        fresh = FactoredDenominator(eq.q_factors.factors, eq.q_factors.residual)
        assert fresh.expand() == eq.q_poly


# -- degree report ------------------------------------------------------------


def test_rational_degree_examples():
    eq = std_log_deriv()
    assert rational_degree(eq) == {"num": 3, "den": 2, "map": 3}

    quartic = make_log_deriv(
        ONE, WPoly([ZERO, ZERO, ZERO, ZERO, ONE]),
        FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1))),
    )
    assert rational_degree(quartic) == {"num": 4, "den": 2, "map": 4}

    const_rhs = make_log_deriv(
        ONE, WPoly([Z]), FactoredDenominator(((ONE, 1),)),
    )
    # Q = w - 1, P = z: degrees (0, 1, 1)
    assert rational_degree(const_rhs) == {"num": 0, "den": 1, "map": 1}


def test_rational_degree_scaling_invariance():
    # multiplying P and Q by the same z-function leaves every degree unchanged
    eq = std_log_deriv()
    s = (Z * Z + 1) / FieldElem.const(3)
    f = FactoredDenominator(
        ((Z, 1), (FieldElem.const(2) * Z, 1)), residual=WPoly([s])
    )
    eq2 = make_log_deriv(ONE, WPoly([s * c for c in eq.p_poly.coeffs]), f)
    assert rational_degree(eq2) == rational_degree(eq)


# -- resultants ---------------------------------------------------------------


def resultant_in_w(p, q):
    """Resultant lc(P)^deg(Q) * prod Q(root_i(P)), as the Sylvester determinant
    of P and Q eliminated with exact fraction arithmetic."""
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    pd, qd = list(reversed(p.coeffs)), list(reversed(q.coeffs))
    rows = [[ZERO] * i + pd + [ZERO] * (size - m - 1 - i) for i in range(n)]
    rows += [[ZERO] * j + qd + [ZERO] * (size - n - 1 - j) for j in range(m)]
    det = ONE
    for col in range(size):
        pivot = next((r for r in range(col, size) if not rows[r][col].is_zero), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = ZERO - det
        pv = rows[col][col]
        det = det * pv
        inv = pv.inverse()
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if not factor.is_zero:
                rows[r] = [rows[r][k] - factor * rows[col][k] for k in range(size)]
    return det


def test_resultant_frozen_values():
    w = WPoly([ZERO, ONE])
    # Res(w, w - 1) = -1
    assert resultant_in_w(w, WPoly([-ONE, ONE])) == FieldElem.const(-1)
    # shared root w = z
    w_minus_z = WPoly([-Z, ONE])
    shared = resultant_in_w(w_minus_z, w_minus_z * WPoly([ONE, ONE]))
    assert shared.is_zero
    # Res(w^3 + 1, (w - z)(w - 2z)) = (1 + z^3)(1 + 8z^3)
    p = WPoly([ONE, ZERO, ZERO, ONE])
    q = FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1))).expand()
    expected = (ONE + Z ** 3) * (ONE + FieldElem.const(8) * Z ** 3)
    assert resultant_in_w(p, q) == expected


def test_resultant_numeric_sylvester_oracle():
    # compare against an exact numeric Sylvester determinant at random
    # rational points
    rng = random.Random(321)
    p = WPoly([ONE, ZERO, ZERO, ONE])
    q = FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1))).expand()
    res = resultant_in_w(p, q)

    def num_sylvester(pc, qc):
        m, n = len(pc) - 1, len(qc) - 1
        size = m + n
        rows = []
        for i in range(n):
            rows.append([Fraction(0)] * i + pc[::-1] + [Fraction(0)] * (size - m - 1 - i))
        for j in range(m):
            rows.append([Fraction(0)] * j + qc[::-1] + [Fraction(0)] * (size - n - 1 - j))
        det = Fraction(1)
        sign = 1
        for col in range(size):
            piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                sign = -sign
            pv = rows[col][col]
            det *= pv
            for r in range(col + 1, size):
                f = rows[r][col] / pv
                rows[r] = [rows[r][k] - f * rows[col][k] for k in range(size)]
        return det * sign

    for _ in range(5):
        z0 = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        at_z0 = MPoly.const(z0)
        val = res.compose_var("z", at_z0)
        pc = [Fraction(c.compose_var("z", at_z0).constant_value().re) for c in p.coeffs]
        qc = [Fraction(c.compose_var("z", at_z0).constant_value().re) for c in q.coeffs]
        assert val.constant_value().re == num_sylvester(pc, qc)


def test_resultant_zero_iff_root_shared():
    # both decision paths agree: determinant and factored-root evaluation
    p = WPoly([ONE, ZERO, ZERO, ONE])
    for factors in [((Z, 1), (FieldElem.const(2) * Z, 1)),
                    ((FieldElem.const(-1), 1), (Z, 1))]:
        fd = FactoredDenominator(factors)
        q = fd.expand()
        det_zero = resultant_in_w(p, q).is_zero
        root_shared = any(p.evaluate(r).is_zero for r in fd.roots())
        assert det_zero == root_shared


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small = st.integers(-2, 2)
# constant roots, and roots affine or quadratic in z
roots = st.tuples(small, small, st.sampled_from([0, 0, 1])).map(
    lambda c: FieldElem.const(c[0]) + FieldElem.const(c[1]) * Z + FieldElem.const(c[2]) * Z ** 2
)
z_polys = st.tuples(small, small).map(lambda c: FieldElem.const(c[0]) + FieldElem.const(c[1]) * Z)
# residual coefficients also take a z-denominator, so that Euclid divides by
# leading coefficients that are non-constant rational functions
residual_coeffs = st.one_of(z_polys, st.just(ONE / (Z + FieldElem.const(2))))


def _wpolys(max_degree, coeffs=z_polys):
    # the length is drawn first, so that every degree up to the maximum is common
    return st.integers(1, max_degree + 1).flatmap(
        lambda n: st.lists(coeffs, min_size=n, max_size=n)
    ).map(WPoly).filter(lambda w: not w.is_zero)


@st.composite
def root_cases(draw):
    """(P, factorization): up to two roots of multiplicity up to 2, a residual
    of degree up to 3 whose coefficients may carry a z-denominator, and P
    built to share a supplied root, the residual's roots, or neither."""
    rs = draw(st.lists(roots, max_size=2, unique_by=str))
    factors = tuple((r, draw(st.integers(1, 2))) for r in rs)
    residual = draw(st.one_of(st.none(), _wpolys(3, residual_coeffs)))
    p = draw(_wpolys(2))
    share = draw(st.sampled_from(["none", "root", "residual"]))
    if share == "root" and factors:
        p = p * WPoly([ZERO - factors[0][0], ONE])
    elif share == "residual" and residual is not None:
        p = p * residual
    return p, FactoredDenominator(factors, residual)


@SETTINGS
@given(root_cases())
@example((WPoly([ONE, ZERO, ZERO, ONE]), FactoredDenominator(((Z, 1), (FieldElem.const(2) * Z, 1)))))
@example((WPoly([ZERO - Z, ONE]), FactoredDenominator(((Z, 2),), WPoly([ONE, Z, ONE]))))
@example((WPoly([ONE, Z, ONE]), FactoredDenominator(((ONE, 1),), WPoly([ONE, Z, ONE]))))
# gcds of degree 1: a linear residual, and one root of two shared with a residual
# whose leading coefficient is 1/(z + 2)
@example((WPoly([Z, Z + 3, FieldElem.const(3)]), FactoredDenominator((), WPoly([Z, FieldElem.const(3)]))))
@example((WPoly([Z, -Z - 1, ONE]),
          FactoredDenominator((), WPoly([-Z, Z - ONE / (Z + 2), ONE / (Z + 2)]))))
def test_root_test_agrees_with_the_sylvester_determinant(case):
    p, fd = case
    q = fd.expand()
    assert shares_root(p, fd) == resultant_in_w(p, q).is_zero


# -- normal form as series ----------------------------------------------------


def test_normal_form_series_pure_log_deriv():
    # w = alpha t^p near zhat: N = b - a p/t + O(1) terms from b
    alpha = FieldElem.var("alpha")
    eq = make_pure_log_deriv(ONE, Z)
    w = LaurentSeries.monomial(alpha, 2)
    n = normal_form_series(eq, 0, w, width=6)
    assert n.coefficient(-1) == FieldElem.const(-2)
    # b(zhat + t) contributes zhat at order 0 and 1 at order 1
    zh = FieldElem.var("zhat")
    assert n.coefficient(0) == zh
    assert n.coefficient(1) == ONE


def test_normal_form_series_inverse_square():
    # w = alpha/t: a w'/w^2 + b/w + c with a=1, b=0, c=0 gives
    # w' = -alpha/t^2, w^2 = alpha^2/t^2 so N = -1/alpha + 0 t + ...
    alpha = FieldElem.var("alpha")
    eq = make_inverse_square(ONE, ZERO, ZERO)
    w = LaurentSeries.monomial(alpha, -1)
    n = normal_form_series(eq, 0, w, width=6)
    assert n.coefficient(0) == FieldElem.const(-1) / alpha
    assert n.coefficient(1).is_zero


def test_normal_form_series_log_deriv_matches_exact():
    # for a rational candidate the series of the normal form must agree with
    # the exact rational computation expanded at the same point
    eq = std_log_deriv()
    cand = Z + 3
    from ddelab.laurent import series_of_ratfunc

    w_series = series_of_ratfunc(cand, 0, 6)
    n_series = normal_form_series(eq, 0, w_series, width=6)
    wp = cand.derivative()
    exact_n = (
        eq.p_poly.evaluate(cand) / eq.q_poly.evaluate(cand)
        - eq.a * wp / cand
    )
    expected = series_of_ratfunc(exact_n, 0, 6)
    for k in range(4):
        assert n_series.coefficient(k) == expected.coefficient(k)


# -- parsing ------------------------------------------------------------------


def test_parse_pure_log_deriv_entry():
    entry = {"id": "x", "class": "pure-log-deriv", "a": "2", "b": "3"}
    eq = parse_equation(entry)
    assert eq.kind == EqKind.PURE_LOG_DERIV
    assert eq.a == FieldElem.const(2)
    assert eq.b == FieldElem.const(3)


def test_parse_log_deriv_entry():
    entry = {
        "id": "y",
        "class": "log-deriv",
        "a": "1",
        "p": ["1", "0", "0", "1"],
        "q_factors": [{"root": "z", "mult": 1}, {"root": "2*z", "mult": 1}],
    }
    eq = parse_equation(entry)
    assert eq.kind == EqKind.LOG_DERIV
    assert eq.p_poly.degree == 3
    assert eq.q_poly.degree == 2
    assert eq.q_factors.roots() == (Z, FieldElem.const(2) * Z)


def test_parse_inverse_square_zero_a_rejected():
    entry = {"id": "bad", "class": "inverse-square", "a": "0", "b": "1"}
    with pytest.raises(CorpusError):
        parse_equation(entry)


def test_parse_unknown_class():
    with pytest.raises(CorpusError):
        parse_equation({"id": "q", "class": "nope"})


def test_parse_missing_fields():
    with pytest.raises(CorpusError):
        parse_equation({"id": "q", "class": "pure-log-deriv", "a": "1"})
    with pytest.raises(CorpusError):
        parse_equation({"id": "q", "class": "log-deriv", "a": "1"})


def test_parse_boolean_multiplicity_rejected():
    # JSON true decodes to a bool, which Python also counts as the integer 1
    entry = {
        "id": "b", "class": "log-deriv", "a": "1", "p": ["1", "0", "0", "1"],
        "q_factors": [{"root": "z", "mult": True}],
    }
    with pytest.raises(CorpusError, match=r"q_factors\[0\]\.mult must be a positive integer"):
        parse_equation(entry)
