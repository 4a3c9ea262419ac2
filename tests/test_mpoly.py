"""Sparse multivariate polynomials over Q(i)."""

import random
from fractions import Fraction

from ddelab.gaussian import gauss
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
    mins = p.min_exponents()
    by_var = dict(zip(p.vars, mins))
    assert by_var["z"] == 2 and by_var["alpha"] == 1
    q = p.shift_exponents(mins)
    assert q == 1 + z * a
