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

from ddelab import model
from ddelab.corpus import CorpusError, parse_equation
from ddelab.fieldelem import FieldElem
from ddelab.gaussian import gauss
from ddelab.laurent import LaurentSeries
from ddelab.model import (
    EqKind,
    EquationError,
    _evaluate,
    _expand,
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


def _mul(p, q):
    """The product of two coefficient sequences in w, by convolution."""
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def std_log_deriv():
    # Q = (w - z)(w - 2z), P = w^3 + 1, a = 1
    return make_log_deriv(ONE, (ONE, ZERO, ZERO, ONE), ((Z, 1), (FieldElem.const(2) * Z, 1)))


# -- coefficient tuples: evaluation, trimming, expansion ----------------------


def test_wpoly_basics():
    p = (ONE, ZERO, ZERO, ONE)  # 1 + w^3
    assert _evaluate(p, FieldElem.const(2)) == FieldElem.const(9)
    assert _evaluate((), Z) == ZERO


def test_wpoly_trailing_zero_strip():
    # DelayDiffEq trims P and R; the expansion Q is built from the trimmed R
    eq = make_log_deriv(ONE, [ONE, ONE, ZERO, ZERO], ((Z, 1),), [FieldElem.const(3), ZERO])
    assert eq.p_poly == (ONE, ONE)
    assert eq.q_residual == (FieldElem.const(3),)
    assert eq.q_poly == (FieldElem.const(-3) * Z, FieldElem.const(3))
    assert rational_degree(eq) == {"num": 1, "den": 1, "map": 1}


def test_wpoly_arithmetic():
    # _expand multiplies the linear factors by the residual
    assert _expand(((Z, 1),), (ONE, ZERO, ONE)) == (-Z, ONE, -Z, ONE)
    assert _expand((), (ONE, ZERO, ONE)) == (ONE, ZERO, ONE)
    assert _expand(((Z, 1),), ()) == ()


def test_factored_expand():
    q = _expand(((Z, 1), (FieldElem.const(2) * Z, 1)), None)
    # (w - z)(w - 2z) = w^2 - 3z w + 2z^2
    assert q == (FieldElem.const(2) * Z * Z, FieldElem.const(-3) * Z, ONE)


def test_factored_multiplicity_and_duplicates():
    assert len(_expand(((Z, 2),), None)) == 3
    with pytest.raises(EquationError, match="duplicate denominator factor roots"):
        make_log_deriv(ONE, (ONE,), ((Z, 1), (Z, 1)))
    with pytest.raises(EquationError, match="duplicate denominator factor roots"):
        make_log_deriv(ONE, (ONE,), ((Z, 1), (ONE, 2), (Z, 1)))
    with pytest.raises(EquationError, match="factor multiplicity must be positive"):
        make_log_deriv(ONE, (ONE,), ((Z, 0),))


@pytest.mark.parametrize("factors, residual", [
    ((), None),
    ((), (Z, ONE, FieldElem.const(3))),
    (((Z, 2), (FieldElem.const(2) * Z, 1)), None),
    (((FieldElem.const(-1), 3), (FieldElem.const(gauss(1, 2)), 1)), None),
    (((ONE / (Z + ONE), 2), (Z * Z, 1)), (Z, ONE, FieldElem.const(3))),
])
def test_factored_expand_equals_the_wpoly_product(factors, residual):
    product = (ONE,)
    for root, mult in factors:
        for _ in range(mult):
            product = _mul(product, (ZERO - root, ONE))
    if residual is not None:
        product = _mul(product, residual)
    assert _expand(factors, residual) == product


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
    want = _expand(factors, None)
    m = sum(mult for _, mult in factors)
    calls = _count_field_products(monkeypatch)
    assert _expand(factors, None) == want
    assert len(calls) == m * (m - 1) // 2


@pytest.mark.parametrize("coeffs", [
    (Z,),
    (ONE, Z),
    (Z + ONE, ZERO, ONE / Z, FieldElem.const(gauss(2, -1))),
])
def test_evaluate_starts_horner_at_the_top_coefficient(monkeypatch, coeffs):
    x = Z * Z - FieldElem.const(3)
    want = sum((c * x ** k for k, c in enumerate(coeffs)), ZERO)
    calls = _count_field_products(monkeypatch)
    assert _evaluate(coeffs, x) == want
    assert len(calls) == len(coeffs) - 1


# -- equation construction ---------------------------------------------------


def test_kind_hypotheses():
    with pytest.raises(EquationError):
        make_pure_log_deriv(ZERO, Z)
    with pytest.raises(EquationError):
        make_inverse_square(ZERO, ONE)
    # a == 0 is fine for log-deriv at construction time
    eq = make_log_deriv(ZERO, (ONE,), ((Z, 1),))
    assert eq.a.is_zero


def test_q_at_zero_must_not_vanish():
    # Q = w has Q(z, 0) = 0
    with pytest.raises(EquationError):
        make_log_deriv(ONE, (ONE,), ((ZERO, 1),))


@pytest.mark.parametrize("residual", [(), (ZERO,), (ZERO, ZERO)])
def test_a_zero_residual_is_an_equation_error(residual):
    # a zero residual makes Q zero; a ValueError from reading its leading
    # coefficient once escaped the corpus load with a traceback
    with pytest.raises(EquationError, match="identically zero"):
        make_log_deriv(ONE, (ONE,), ((Z, 1),), residual)


def test_make_log_deriv_expands_the_factors_once(monkeypatch):
    calls = []
    expand = model._expand

    def counting(factors, residual):
        calls.append(factors)
        return expand(factors, residual)

    monkeypatch.setattr(model, "_expand", counting)
    for residual in (None, (FieldElem.const(3) * Z + ONE, ONE, FieldElem.const(2))):
        calls.clear()
        eq = make_log_deriv(ONE, (ONE, ONE), ((Z, 2),), residual)
        assert len(calls) == 1
        assert expand(eq.q_factors, eq.q_residual) == eq.q_poly


# -- degree report ------------------------------------------------------------


def test_rational_degree_examples():
    eq = std_log_deriv()
    assert rational_degree(eq) == {"num": 3, "den": 2, "map": 3}

    quartic = make_log_deriv(
        ONE, (ZERO, ZERO, ZERO, ZERO, ONE), ((Z, 1), (FieldElem.const(2) * Z, 1)),
    )
    assert rational_degree(quartic) == {"num": 4, "den": 2, "map": 4}

    const_rhs = make_log_deriv(ONE, (Z,), ((ONE, 1),))
    # Q = w - 1, P = z: degrees (0, 1, 1)
    assert rational_degree(const_rhs) == {"num": 0, "den": 1, "map": 1}


def test_rational_degree_scaling_invariance():
    # multiplying P and Q by the same z-function leaves every degree unchanged
    eq = std_log_deriv()
    s = (Z * Z + 1) / FieldElem.const(3)
    eq2 = make_log_deriv(ONE, [s * c for c in eq.p_poly], eq.q_factors, (s,))
    assert rational_degree(eq2) == rational_degree(eq)


# -- resultants ---------------------------------------------------------------


def resultant_in_w(p, q):
    """Resultant lc(P)^deg(Q) * prod Q(root_i(P)), as the Sylvester determinant
    of P and Q eliminated with exact fraction arithmetic."""
    m, n = len(p) - 1, len(q) - 1
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    pd, qd = list(reversed(p)), list(reversed(q))
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
    w = (ZERO, ONE)
    # Res(w, w - 1) = -1
    assert resultant_in_w(w, (-ONE, ONE)) == FieldElem.const(-1)
    # shared root w = z
    w_minus_z = (-Z, ONE)
    shared = resultant_in_w(w_minus_z, _mul(w_minus_z, (ONE, ONE)))
    assert shared.is_zero
    # Res(w^3 + 1, (w - z)(w - 2z)) = (1 + z^3)(1 + 8z^3)
    p = (ONE, ZERO, ZERO, ONE)
    q = _expand(((Z, 1), (FieldElem.const(2) * Z, 1)), None)
    expected = (ONE + Z ** 3) * (ONE + FieldElem.const(8) * Z ** 3)
    assert resultant_in_w(p, q) == expected


def test_resultant_numeric_sylvester_oracle():
    # compare against an exact numeric Sylvester determinant at random
    # rational points
    rng = random.Random(321)
    p = (ONE, ZERO, ZERO, ONE)
    q = _expand(((Z, 1), (FieldElem.const(2) * Z, 1)), None)
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
        pc = [Fraction(c.compose_var("z", at_z0).constant_value().re) for c in p]
        qc = [Fraction(c.compose_var("z", at_z0).constant_value().re) for c in q]
        assert val.constant_value().re == num_sylvester(pc, qc)


def test_resultant_zero_iff_root_shared():
    # both decision paths agree: determinant and factored-root evaluation
    p = (ONE, ZERO, ZERO, ONE)
    for factors in [((Z, 1), (FieldElem.const(2) * Z, 1)),
                    ((FieldElem.const(-1), 1), (Z, 1))]:
        q = _expand(factors, None)
        det_zero = resultant_in_w(p, q).is_zero
        root_shared = any(_evaluate(p, r).is_zero for r, _ in factors)
        assert det_zero == root_shared


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small = st.integers(-2, 2)
# constant roots, and roots affine or quadratic in z; a root of 0, like a
# residual R with R(z, 0) = 0, would give Q(z, 0) = 0, which DelayDiffEq refuses
roots = st.tuples(small, small, st.sampled_from([0, 0, 1])).map(
    lambda c: FieldElem.const(c[0]) + FieldElem.const(c[1]) * Z + FieldElem.const(c[2]) * Z ** 2
).filter(lambda r: not r.is_zero)
z_polys = st.tuples(small, small).map(lambda c: FieldElem.const(c[0]) + FieldElem.const(c[1]) * Z)
# residual coefficients also take a z-denominator, so that Euclid divides by
# leading coefficients that are non-constant rational functions
residual_coeffs = st.one_of(z_polys, st.just(ONE / (Z + FieldElem.const(2))))


def _wpolys(max_degree, coeffs=z_polys):
    # the length is drawn first, so that every degree up to the maximum is common;
    # a zero top coefficient is left for DelayDiffEq to trim
    return st.integers(1, max_degree + 1).flatmap(
        lambda n: st.lists(coeffs, min_size=n, max_size=n).map(tuple)
    ).filter(lambda w: not all(c.is_zero for c in w))


@st.composite
def root_cases(draw):
    """(P, factors, R): up to two roots of multiplicity up to 2, a residual
    of degree up to 3 whose coefficients may carry a z-denominator, and P
    built to share a supplied root, the residual's roots, or neither."""
    rs = draw(st.lists(roots, max_size=2, unique_by=str))
    factors = tuple((r, draw(st.integers(1, 2))) for r in rs)
    residual = draw(st.one_of(st.none(), _wpolys(3, residual_coeffs).filter(
        lambda w: not w[0].is_zero)))
    p = draw(_wpolys(2))
    share = draw(st.sampled_from(["none", "root", "residual"]))
    if share == "root" and factors:
        p = _mul(p, (ZERO - factors[0][0], ONE))
    elif share == "residual" and residual is not None:
        p = _mul(p, residual)
    return p, factors, residual


@SETTINGS
@given(root_cases())
@example(((ONE, ZERO, ZERO, ONE), ((Z, 1), (FieldElem.const(2) * Z, 1)), None))
@example(((ZERO - Z, ONE), ((Z, 2),), (ONE, Z, ONE)))
@example(((ONE, Z, ONE), ((ONE, 1),), (ONE, Z, ONE)))
# gcds of degree 1: a linear residual, and one root of two shared with a residual
# whose leading coefficient is 1/(z + 2)
@example(((Z, Z + 3, FieldElem.const(3)), (), (Z, FieldElem.const(3))))
@example(((Z, -Z - 1, ONE), (), (-Z, Z - ONE / (Z + 2), ONE / (Z + 2))))
def test_root_test_agrees_with_the_sylvester_determinant(case):
    eq = make_log_deriv(ONE, *case)
    assert shares_root(eq) == resultant_in_w(eq.p_poly, eq.q_poly).is_zero


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
        _evaluate(eq.p_poly, cand) / _evaluate(eq.q_poly, cand)
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
    assert len(eq.p_poly) == 4
    assert len(eq.q_poly) == 3
    assert eq.q_factors == ((Z, 1), (FieldElem.const(2) * Z, 1))
    assert eq.q_residual is None


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
