"""Rational functions as exact fractions of sparse polynomials."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddelab.fieldelem import FieldElem
from ddelab.gaussian import GaussianRational, gauss
from ddelab.mpoly import MPoly


Z = FieldElem.var("z")
ONE = FieldElem.const(1)


def rand_rf(rng, maxdeg=2):
    def rand_poly():
        p = MPoly()
        for d in range(maxdeg + 1):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = p + MPoly.const(c) * MPoly.var("z") ** d
        return p

    num = rand_poly()
    den = rand_poly()
    while den.is_zero:
        den = rand_poly()
    return FieldElem(num, den)


def test_construction_and_zero():
    assert FieldElem.const(0).is_zero
    assert not Z.is_zero
    with pytest.raises(ZeroDivisionError):
        FieldElem(MPoly.const(1), MPoly())


def test_cross_multiplication_equality():
    # z/(z+1) == (z^2)/(z^2+z) without any gcd machinery
    a = Z / (Z + 1)
    b = (Z * Z) / (Z * Z + Z)
    assert a == b
    assert (a - b).is_zero


def test_shift_examples():
    # z^2 shifted by +1
    assert (Z * Z).shift(1) == Z * Z + 2 * Z + 1
    # 1/z shifted by -1
    assert (ONE / Z).shift(-1) == ONE / (Z - 1)
    # shifting is a homomorphism
    rng = random.Random(3)
    for _ in range(10):
        f, g = rand_rf(rng), rand_rf(rng)
        assert (f * g).shift(2) == f.shift(2) * g.shift(2)
        assert (f + g).shift(-1) == f.shift(-1) + g.shift(-1)


def test_shift_derivative_commute():
    rng = random.Random(11)
    for _ in range(10):
        f = rand_rf(rng)
        assert f.shift(1).derivative() == f.derivative().shift(1)


def test_derivative_quotient_rule():
    f = (Z + 1) / (Z - 1)
    # f' = -2/(z-1)^2
    expected = FieldElem.const(-2) / ((Z - 1) * (Z - 1))
    assert f.derivative() == expected


def test_field_axioms_randomized():
    rng = random.Random(29)
    for _ in range(15):
        a, b, c = rand_rf(rng), rand_rf(rng), rand_rf(rng)
        assert (a + b) * c == a * c + b * c
        assert a - a == FieldElem.const(0)
        if not a.is_zero:
            assert a / a == ONE
            assert a * a.inverse() == ONE


def test_pow():
    f = Z + 1
    assert f ** 3 == f * f * f
    assert f ** 0 == ONE
    assert f ** -2 == ONE / (f * f)


def test_subs_and_eval():
    f = (Z + 1) / (Z - 1)
    assert f.compose_var("z", MPoly.const(3)) == gauss(2)
    with pytest.raises(ZeroDivisionError):
        f.compose_var("z", MPoly.const(1))
    assert abs(f.eval_complex({"z": 3.0}) - 2.0) < 1e-15


_TABLES = ((), ("z",), ("alpha",), ("z", "alpha"), ("z", "alpha", "K"))
_TERMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                         st.builds(gauss, st.integers(-2, 2), st.integers(-1, 1)), max_size=3)


@st.composite
def _polynomial_pairs(draw):
    """Two polynomials in z and alpha, often equal, each on a table that holds
    its variables and maybe others."""
    def on_some_table(terms):
        used = {v for e in terms for v, k in zip(("z", "alpha"), e) if k}
        table = draw(st.sampled_from([t for t in _TABLES if used <= set(t)]))
        index = {"z": 0, "alpha": 1}
        return FieldElem(MPoly(table, {
            tuple(e[index[v]] if v in index else 0 for v in table): c
            for e, c in terms.items()
        }))

    f_terms = draw(_TERMS)
    g_terms = draw(st.one_of(st.just(f_terms), _TERMS))
    return on_some_table(f_terms), on_some_table(g_terms), f_terms == g_terms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_polynomial_pairs())
def test_polynomial_equality_agrees_with_cross_multiplication(pair):
    f, g, same_terms = pair
    assert (f == g) == (f.num * g.den - g.num * f.den).is_zero
    if same_terms:
        assert f == g


def test_is_constant_and_number():
    assert ONE.is_number()
    assert (Z / Z).is_number()
    a = FieldElem.var("alpha")
    f = a / (a + 1)
    assert f.is_constant()
    assert not f.is_number()
    assert ONE.constant_value() == gauss(1)


def test_affine_second_difference_vanishes():
    # a(z) = lam + mu*z has a(z+2) - 2a(z+1) + a(z) == 0
    lam = FieldElem.var("lam")
    mu = FieldElem.var("mu")
    a = lam + mu * Z
    second = a.shift(2) - FieldElem.const(2) * a.shift(1) + a
    assert second.is_zero


def test_reduction_keeps_fractions_small():
    # iterated arithmetic on 1/(z-1) should not blow up degrees
    f = ONE / (Z - 1)
    acc = f
    for k in range(8):
        acc = acc + f.shift(k) * f
    assert acc.den.degree("z") <= 12


def test_univariate_den_cancellation():
    # (z^2-1)/(z-1) must reduce so that z=1 is evaluable
    f = (Z * Z - 1) / (Z - 1)
    assert f == Z + 1
    assert f.compose_var("z", MPoly.const(1)) == gauss(2)


def test_str_roundtrip_sanity():
    f = (Z + 1) / (Z - 1)
    s = str(f)
    assert "z" in s and "/" in s


# -- the Gaussian content --------------------------------------------------------


def test_gaussian_content_of_the_denominator_is_divided_out():
    g = FieldElem.const(gauss(2, 1))
    x, y, z = (FieldElem.var(v) for v in "xyz")
    assert str((g * x * y + g * z) / (g * x)) == "(x*y+z)/x"


_GAUSS = st.builds(gauss, st.integers(-6, 6), st.integers(-6, 6))
_SCALE = st.builds(lambda c, d: c / gauss(d), _GAUSS.filter(bool), st.integers(1, 4))
_VAR_POLY = st.dictionaries(st.integers(0, 3), _GAUSS, min_size=1, max_size=4)


@st.composite
def _univariate_core_fractions(draw):
    """n/d with n in z, alpha, K, and d a monomial times a polynomial in one
    variable: the denominators whose printed form is unique."""
    n = MPoly(("z", "alpha", "K"), draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), _GAUSS, min_size=1, max_size=5)))
    v = draw(st.sampled_from(("z", "alpha")))
    core = MPoly((v,), {(e,): c for e, c in draw(_VAR_POLY).items()})
    mono = MPoly(("z", "alpha"), {draw(st.tuples(*[st.integers(0, 2)] * 2)): gauss(1)})
    d = core * mono
    if d.is_zero:
        d = mono
    return n, d


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_SCALE, _univariate_core_fractions())
def test_a_gaussian_factor_of_both_parts_leaves_the_form(gamma, fraction):
    n, d = fraction
    plain = FieldElem(n, d)
    scaled = FieldElem(n.scale(gamma), d.scale(gamma))
    assert str(scaled) == str(plain)
    assert scaled == plain


def _leadings_and_witnesses(report):
    if isinstance(report, dict):
        for key, value in report.items():
            if key in ("leading", "witness") and isinstance(value, str):
                yield value
            elif key == "witnesses":
                yield from value.values()
            else:
                yield from _leadings_and_witnesses(value)
    elif isinstance(report, list):
        for value in report:
            yield from _leadings_and_witnesses(value)


def _evaluate(text):
    """A printed form, rebuilt by FieldElem arithmetic on its literals."""
    names = {name: FieldElem.var(name) for name in re.findall(r"[A-Za-z_]\w*", text)}
    names.update(F=FieldElem.const, i=FieldElem.const(GaussianRational(0, 1)))
    python = re.sub(r"(\^)?(\d+)", lambda m: "**" + m[2] if m[1] else f"F({m[2]})", text)
    return eval(python, names)


@pytest.mark.parametrize("golden", ["demo-cascade.json", "cascade-exact-7-cascade.json"])
def test_real_golden_forms_print_as_before(golden):
    report = json.loads((Path(__file__).parent / "golden" / golden).read_text())
    texts = sorted(set(_leadings_and_witnesses(report)))
    assert texts and not any("i" in re.sub(r"[A-Za-z_]\w+", "", t) for t in texts)
    assert [str(_evaluate(t)) for t in texts] == texts
