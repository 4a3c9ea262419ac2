"""Truncated Laurent series with certified windows."""

from fractions import Fraction

import pytest

from ddelab.fieldelem import FieldElem
from ddelab.laurent import (
    CompositionIndeterminateError,
    LaurentSeries,
    UncertifiedOrderError,
    compose_rational,
    series_of_ratfunc,
)

ONE = FieldElem.const(1)


def fe(x):
    return FieldElem.const(x)


def test_monomial_and_order():
    m = LaurentSeries.monomial(fe(3), -2)
    assert m.order == -2
    assert m.exact
    assert m.leading == fe(3)
    assert m.coefficient(-2) == fe(3)
    assert m.coefficient(5).is_zero


def test_leading_zero_stripping():
    s = LaurentSeries(0, [fe(0), fe(0), fe(1)], exact=False)
    assert s.lo == 2
    assert s.order == 2


def test_zero_to_window_has_no_order():
    s = LaurentSeries(0, [fe(0)] * 4, exact=False)
    assert s.order is None
    with pytest.raises(UncertifiedOrderError):
        _ = s.leading


def test_exact_zero_is_canonical():
    a = LaurentSeries.zero(0, exact=True)
    b = LaurentSeries.zero(5, exact=True)
    assert a == b
    assert a.order is None


def test_add_window_propagation():
    # exact + window: result certified only to the window's hi
    a = LaurentSeries(0, [fe(1), fe(1)], exact=True)
    b = LaurentSeries(0, [fe(1)] * 3, exact=False)
    c = a + b
    assert not c.exact
    assert c.coefficient(0) == fe(2)
    assert c.coefficient(1) == fe(2)
    assert c.coefficient(2) == fe(1)
    with pytest.raises(Exception):
        c.coefficient(3)


def test_mul_window_width():
    a = LaurentSeries(-1, [fe(1)] * 4, exact=False)  # certified width 4
    b = LaurentSeries(2, [fe(1)] * 6, exact=False)  # certified width 6
    c = a * b
    assert c.order == 1
    assert c.stored_hi - c.lo == 4


def test_exact_mul_is_full_convolution():
    a = LaurentSeries(0, [fe(1), fe(1)], exact=True)  # 1 + t
    b = a * a
    assert b.exact
    assert b.coefficient(0) == fe(1)
    assert b.coefficient(1) == fe(2)
    assert b.coefficient(2) == fe(1)
    assert b.coefficient(17).is_zero


def test_pow_matches_repeated_mul():
    a = LaurentSeries(-1, [fe(1), fe(2), fe(3)], exact=True)
    assert a ** 3 == a * a * a


def test_inverse_of_monomial_stays_exact():
    m = LaurentSeries.monomial(fe(2), 3)
    inv = m.inverse(8)
    assert inv.exact
    assert inv.order == -3
    assert inv.leading == fe(Fraction(1, 2))


def test_inverse_geometric_series():
    # 1/(1 - t) = sum t^k, frozen from the geometric series
    s = LaurentSeries(0, [fe(1), fe(-1)], exact=True)
    inv = s.inverse(6)
    for k in range(6):
        assert inv.coefficient(k) == fe(1)
    assert s * inv == LaurentSeries(0, [fe(1)] + [fe(0)] * 5, exact=False) + LaurentSeries.zero(6)


def test_inverse_errors():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(0, exact=True).inverse(4)
    with pytest.raises(UncertifiedOrderError):
        LaurentSeries(0, [fe(0)] * 3, exact=False).inverse(4)


def test_exact_series_has_no_implicit_inverse_width():
    s = LaurentSeries(0, [fe(1), fe(-1)], exact=True)
    with pytest.raises(ValueError):
        s.inverse()
    with pytest.raises(ValueError):
        LaurentSeries.monomial(1).div(s)
    with pytest.raises(ValueError):
        s.derivative().div(s)


def test_window_over_distinct_denominators():
    zh, alpha, K = (FieldElem.var(v) for v in ("zhat", "alpha", "K"))
    cs = [ONE / (zh - 1), ONE / ((zh - 1) * (zh - 1)), alpha / (K + zh), fe(0)]
    s = LaurentSeries(0, cs, exact=False)
    for k, c in enumerate(cs):
        assert s.coefficient(k) == c
    unit = s * s.inverse(4)
    assert (unit.lo, unit.stored_hi) == (0, 4)
    assert unit.coefficient(0) == ONE
    assert all(unit.coefficient(k).is_zero for k in range(1, 4))


def test_derivative():
    s = LaurentSeries(-1, [fe(1), fe(5), fe(3)], exact=True)  # t^-1 + 5 + 3t
    d = s.derivative()
    assert d.coefficient(-2) == fe(-1)
    assert d.coefficient(-1).is_zero
    assert d.coefficient(0) == fe(3)
    assert d.exact


def test_log_derivative_of_monomial():
    # d/dt log(alpha t^p) = p/t exactly; the cascade forms w'/w this way
    alpha = FieldElem.var("alpha")
    for p in (-2, 1, 3):
        m = LaurentSeries.monomial(alpha, p)
        ld = m.derivative().div(m)
        assert ld.order == -1
        assert ld.leading == fe(p)


def test_log_derivative_of_unit_series():
    # d/dt log(K + alpha t) = alpha/(K + alpha t) = alpha/K - alpha^2/K^2 t + ...
    K = FieldElem.var("K")
    alpha = FieldElem.var("alpha")
    s = LaurentSeries(0, [K, alpha], exact=True)
    ld = s.derivative().div(s, 4)
    assert ld.coefficient(0) == alpha / K
    assert ld.coefficient(1) == FieldElem.const(-1) * alpha * alpha / (K * K)


def test_compose_rational_geometric_oracle():
    # (w+1)/(w-1) at w = 1/t equals (1+t)/(1-t) = 1 + 2t + 2t^2 + ...
    # oracle computed independently with Fractions:
    expected = [Fraction(1)] + [Fraction(2)] * 7
    S = LaurentSeries.monomial(fe(1), -1)
    r = compose_rational([ONE, ONE], [fe(-1), ONE], S, 0, 8)
    for k, c in enumerate(expected):
        assert r.coefficient(k) == fe(c)


def test_compose_rational_polynomial_case():
    # w^2 at w = alpha/t is alpha^2/t^2, exact
    alpha = FieldElem.var("alpha")
    S = LaurentSeries.monomial(alpha, -1)
    r = compose_rational([fe(0), fe(0), ONE], [ONE], S, 0, 4)
    assert r.order == -2
    assert r.leading == alpha * alpha


def test_compose_rational_indeterminate():
    # denominator w at w = series with unknown order
    S = LaurentSeries(0, [fe(0)] * 3, exact=False)
    with pytest.raises((CompositionIndeterminateError, UncertifiedOrderError)):
        compose_rational([ONE], [fe(0), ONE], S, 0, 4)


def test_series_of_ratfunc():
    # (z+1)/(z-1) expanded at z = zhat + 0: constant term is (zhat+1)/(zhat-1)
    z = FieldElem.var("z")
    zh = FieldElem.var("zhat")
    f = (z + 1) / (z - 1)
    s = series_of_ratfunc(f, 0, 4)
    assert s.coefficient(0) == (zh + 1) / (zh - 1)
    # derivative term: f'(zhat) = -2/(zhat-1)^2
    assert s.coefficient(1) == fe(-2) / ((zh - 1) * (zh - 1))


def test_series_of_ratfunc_polynomial_exact():
    z = FieldElem.var("z")
    zh = FieldElem.var("zhat")
    s = series_of_ratfunc(z * z, 1, 8)  # (zhat + 1 + t)^2
    assert s.exact
    assert s.coefficient(0) == (zh + 1) * (zh + 1)
    assert s.coefficient(1) == fe(2) * (zh + 1)
    assert s.coefficient(2) == fe(1)
    assert s.coefficient(3).is_zero


def test_scale():
    s = LaurentSeries(0, [fe(1), fe(2)], exact=True)
    assert (s * LaurentSeries.monomial(3)).coefficient(1) == fe(6)
