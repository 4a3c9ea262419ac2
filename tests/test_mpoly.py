"""Sparse multivariate polynomials over Q(i)."""

import random
from fractions import Fraction

import pytest

from ddelab import mpoly
from ddelab.exprparse import parse_expression
from ddelab.gaussian import ONE, gauss
from ddelab.mpoly import MPoly


def rand_poly(rng, vars_=("z", "alpha"), nterms=4, maxdeg=3):
    p = MPoly()
    for _ in range(nterms):
        c = gauss(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        m = MPoly.const(c)
        for v in vars_:
            m = m * MPoly.var(v) ** rng.randint(0, maxdeg)
        p = p + m
    return p


def test_constructors():
    z = MPoly.var("z")
    assert MPoly().is_zero
    assert MPoly.const(3).constant_value() == gauss(3)
    assert z.degree("z") == 1
    assert z.degree("alpha") == 0
    assert MPoly().degree("z") == -1


def test_arithmetic_basics():
    z = MPoly.var("z")
    p = (z + 1) * (z - 1)
    assert p == z * z - 1
    assert (z + 1) ** 2 == z * z + 2 * z + 1
    assert p - p == MPoly()


def test_ring_axioms_randomized():
    rng = random.Random(17)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_cross_variable_alignment():
    z = MPoly.var("z")
    w = MPoly.var("alpha")
    p = z * w + z
    assert p.degree("z") == 1
    assert p.degree("alpha") == 1
    assert p - z * w == z


def test_derivative():
    z = MPoly.var("z")
    p = z ** 3 + 2 * z
    assert p.derivative("z") == 3 * z ** 2 + 2
    assert p.derivative("alpha").is_zero
    # product rule, randomized
    rng = random.Random(5)
    for _ in range(10):
        a, b = rand_poly(rng), rand_poly(rng)
        lhs = (a * b).derivative("z")
        rhs = a.derivative("z") * b + a * b.derivative("z")
        assert lhs == rhs


def test_compose_shift():
    z = MPoly.var("z")
    p = z ** 2
    shifted = p.compose("z", z + 1)
    assert shifted == z ** 2 + 2 * z + 1
    # shift by -1 then +1 is identity
    back = shifted.compose("z", z - 1)
    assert back == p


def test_compose_into_other_variable():
    z = MPoly.var("z")
    a = MPoly.var("alpha")
    p = z ** 2 + z
    q = p.compose("z", a + 1)
    assert q == a ** 2 + 3 * a + 2


def test_eval_complex():
    z = MPoly.var("z")
    p = z ** 2 + 1
    assert abs(p.eval_complex({"z": 2j}) - (-3.0)) < 1e-15


def test_subs_values_exact():
    z = MPoly.var("z")
    a = MPoly.var("alpha")
    p = z * a + a ** 2
    v = p.compose("z", MPoly.const(gauss(2))).compose("alpha", MPoly.const(gauss(3)))
    assert v == gauss(15)


def test_content_and_leading():
    z = MPoly.var("z")
    p = 4 * z ** 2 + 2 * z
    assert p.content() == Fraction(2)
    assert p.leading_coefficient() == gauss(4)


def test_min_exponents_and_shift():
    z = MPoly.var("z")
    a = MPoly.var("alpha")
    p = z ** 2 * a + z ** 3 * a ** 2
    common = MPoly._common_key([p])
    assert MPoly._make({common: ONE}) == z ** 2 * a
    assert p._divide_key(common) == 1 + z * a


def test_exponents_stay_below_two_to_the_31():
    # each exponent has a 31-bit field of the key; reaching 2^31 raises
    # instead of carrying into the neighbouring variable's field
    x, y = MPoly.var("gx"), MPoly.var("gy")
    big = MPoly.var("gx", 2 ** 30)
    top = big * MPoly.var("gx", 2 ** 30 - 1) * y
    assert (top.degree("gx"), top.degree("gy")) == (2 ** 31 - 1, 1)
    assert str(top) == f"gx^{2 ** 31 - 1}*gy"
    for product in (lambda: big * big, lambda: (big * y) * big, lambda: top * x,
                    lambda: MPoly.var("gx", 2 ** 16) ** 2 ** 15,
                    lambda: MPoly.dot([(big, big)]),
                    lambda: MPoly.convolve([big], [y * big], 1)):
        with pytest.raises(OverflowError):
            product()
    # no squaring past the last bit: the power is below 2^31
    assert (MPoly.var("gx", 2 ** 16) ** (2 ** 15 - 1)).degree("gx") == 2 ** 31 - 2 ** 16
    assert (top.degree("gx"), top.degree("gy")) == (2 ** 31 - 1, 1)


def test_outside_exponents_are_checked():
    for make in (lambda: MPoly.var("gx", 2 ** 31),
                 lambda: MPoly(("gx", "gy"), {(0, 2 ** 31): ONE}),
                 lambda: MPoly(("gx",), {(-1,): ONE})):
        with pytest.raises(OverflowError):
            make()
    with pytest.raises(ValueError):
        MPoly(("gx", "gy"), {(1,): ONE})


def test_a_cancelled_variable_is_gone():
    # a polynomial is its term map: a variable that cancels leaves no trace
    z, alpha = MPoly.var("z"), MPoly.var("alpha")
    p = (z + alpha) - alpha
    assert p.terms == z.terms
    assert str(p) == "z"
    assert p.used_vars() == ("z",)
    assert p.degree("alpha") == 0
    assert [q.terms for q in p.coefficients("alpha")] == [z.terms]
    assert p.derivative("alpha") == MPoly()
    assert p.compose("alpha", z + 7).terms == z.terms


def test_every_zero_is_the_empty_map():
    z, alpha = MPoly.var("z"), MPoly.var("alpha")
    p = z * alpha + 3
    zeros = [p - p, p * 0, MPoly.dot([(p, z), (-p, z)]), parse_expression("z - z").num]
    for zero in zeros:
        assert zero == MPoly() and zero.terms == {}
        assert str(zero) == "0"
        assert zero.used_vars() == ()


def test_an_unseen_name_gets_no_slot():
    p = MPoly.var("z") * MPoly.var("alpha") + 1
    before = dict(mpoly._SHIFTS)
    name = "never_seen_anywhere"
    assert p.degree(name) == 0
    assert p.derivative(name) == MPoly()
    assert p.coefficients(name) == [p]
    assert p.compose(name, MPoly.var("z")) is p
    assert name not in p.used_vars()
    assert mpoly._SHIFTS == before
