"""Exact arithmetic in Q(i)."""

import random
from fractions import Fraction

import pytest

from ddelab.gaussian import GaussianRational, gauss, I, ONE, ZERO


def test_construction_and_coercion():
    g = gauss("2/3", "-1/4")
    assert g.re == Fraction(2, 3)
    assert g.im == Fraction(-1, 4)
    assert GaussianRational.coerce(5) == gauss(5)
    assert GaussianRational.coerce(Fraction(1, 2)) == gauss("1/2")
    assert GaussianRational.coerce(g) is g


def test_basic_identities():
    assert ZERO.is_zero
    assert ONE * I == I
    assert I * I == -ONE
    assert I ** 4 == ONE
    assert (ONE + I) * (ONE - I) == gauss(2)


def test_inverse_and_division():
    g = gauss(3, 4)
    assert g * g.inverse() == ONE
    assert g / g == ONE
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_norm_and_conjugate():
    g = gauss(3, 4)
    assert g.norm() == Fraction(25)
    assert g.conjugate() == gauss(3, -4)
    assert g * g.conjugate() == gauss(25)


def test_pow_negative():
    g = gauss(1, 1)
    assert g ** -2 == (g * g).inverse()
    assert g ** 0 == ONE


def test_field_axioms_randomized():
    rng = random.Random(20260801)

    def rand_g():
        return gauss(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(50):
        a, b, c = rand_g(), rand_g(), rand_g()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inverse() == ONE


def test_complex_embedding():
    g = gauss("1/2", "1/3")
    z = complex(g)
    assert abs(z - (0.5 + 1j / 3)) < 1e-15


def test_hash_consistency():
    assert hash(gauss(1, 2)) == hash(gauss(1, 2))
    d = {gauss(1, 2): "x"}
    assert d[gauss(1, 2)] == "x"


def test_str_rendering():
    assert str(gauss(3)) == "3"
    assert str(gauss(0, 1)) == "i"
    assert str(gauss(0, -1)) == "-i"
    assert str(ZERO) == "0"
