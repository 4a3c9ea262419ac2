"""Specialization oracle for the exact cascade.

A specialization commutes with field arithmetic.  Put numbers alpha0 and K0
in place of the seed symbols alpha and K of the symbolic pattern, and every
order and leading must equal exactly what a cascade run from a seed built
with those numbers gives.  The one exception is a point at which a
symbolic leading's numerator or denominator vanishes (Schwartz, J. ACM 27,
1980): such a point is checked exactly, reported, and replaced by the next
point of a fixed-seed draw.  zhat stays symbolic throughout.

Commutation alone cannot see a fault in code that never touches alpha and
K, such as the Taylor expansion of the coefficients or the normal form: the
symbolic and the numeric run would share it.  So each point also runs a
reference cascade written here from the equations' defining forms, with
plain truncated series over FieldElem and Taylor coefficients from repeated
z-derivatives, and so independent of ``laurent`` and ``normal_form_series``.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

from ddelab import cascade
from ddelab.cascade import first_seed, run_cascade
from ddelab.corpus import load_demo_corpus
from ddelab.fieldelem import FieldElem
from ddelab.gaussian import gauss
from ddelab.model import EqKind, rational_degree
from ddelab.mpoly import MPoly
from test_classify import inverse_square_equations, polynomial_log_deriv_equations

_ZERO = FieldElem.const(0)
_MAX_REFERENCE_WIDTH = 64
_POINTS_PER_CASE = 4


# ---------------------------------------------------------------------------
# the reference cascade


class _Series:
    """Coefficient e of a series in t is c[e - lo]: zero below lo, and from
    the end of c up to hi; unknown from hi on (inf for a Laurent polynomial)."""

    def __init__(self, lo, c, hi=math.inf):
        # leading zeros are known zeros: dropping them keeps products and
        # inverses from losing known coefficients
        c = list(c)
        while c and c[0].is_zero:
            c.pop(0)
            lo += 1
        self.lo, self.c, self.hi = (0 if hi == math.inf and not c else lo), c, hi

    @property
    def end(self):
        return self.lo + len(self.c)

    def at(self, e):
        assert e < self.hi
        return self.c[e - self.lo] if self.lo <= e < self.end else _ZERO

    def __add__(self, o):
        lo, hi = min(self.lo, o.lo), min(self.hi, o.hi)
        top = min(hi, max(self.end, o.end))
        return _Series(lo, [self.at(e) + o.at(e) for e in range(lo, top)], hi)

    def __neg__(self):
        return _Series(self.lo, [-x for x in self.c], self.hi)

    def __sub__(self, o):
        return self + (-o)

    @property
    def is_exact_zero(self):
        return not self.c and self.hi == math.inf

    def __mul__(self, o):
        if self.is_exact_zero or o.is_exact_zero:
            return _Series(0, [])
        lo = self.lo + o.lo
        hi = min(self.hi + o.lo, o.hi + self.lo)
        out = [_ZERO] * max(min(hi, self.end + o.end - 1) - lo, 0)
        for i, x in enumerate(self.c):
            for j, y in enumerate(o.c):
                if i + j < len(out) and x and y:
                    out[i + j] = out[i + j] + x * y
        return _Series(lo, out, hi)

    def order(self):
        """The first exponent with a nonzero coefficient; None if none is known."""
        return next((e for e in range(self.lo, self.end) if self.at(e)), None)

    def inverse(self, width):
        v = self.order()
        if v is None:
            raise ZeroDivisionError("no known nonzero coefficient")
        n = int(min(width, self.hi - v))
        u = [self.at(v + k) for k in range(n)]
        b = [1 / u[0]]
        for k in range(1, n):
            b.append(-sum((u[j] * b[k - j] for j in range(1, k + 1)), _ZERO) / u[0])
        return _Series(-v, b, -v + n)

    def derivative(self):
        return _Series(self.lo - 1, [x * (self.lo + i) for i, x in enumerate(self.c)], self.hi - 1)


def _taylor(r, offset, width):
    """r(zhat + offset + t): coefficient m is the m-th z-derivative over m!."""
    at = MPoly.var("zhat") + MPoly.const(offset)
    polynomial = r.den.degree("z") <= 0
    n = r.num.degree("z") + 1 if polynomial else width
    coeffs, d = [], r
    for m in range(n):
        coeffs.append(d.compose_var("z", at) / math.factorial(m))
        d = d.derivative()
    return _Series(0, coeffs, math.inf if polynomial else width)


def _poly_in_w(coeffs, w, offset, width):
    acc, power = _Series(0, []), _Series(0, [FieldElem.const(1)])
    for c in coeffs:
        acc = acc + _taylor(c, offset, width) * power
        power = power * w
    return acc


def _reference_step(eq, before, w, offset, width):
    """w(z+1) = w(z-1) + N(z, w, w') at z = zhat + offset + t."""
    dw = w.derivative()
    if eq.kind == EqKind.INVERSE_SQUARE:
        # w(z+1) - w(z-1) = (a w' + b w) / w^2 + c
        a, b, c = (_taylor(f, offset, width) for f in (eq.a, eq.b, eq.c))
        return before + (a * dw + b * w) * (w * w).inverse(width) + c
    # w(z+1) - w(z-1) + a w'/w = P(w)/Q(w)
    p = _poly_in_w(eq.p_poly.coeffs, w, offset, width)
    q = _poly_in_w(eq.q_poly.coeffs, w, offset, width)
    return before + p * q.inverse(width) - _taylor(eq.a, offset, width) * dw * w.inverse(width)


def _reference_pattern(eq, order, steps, alpha0, k0):
    """The series at offsets 1..steps, at the least doubled width that shows
    every order."""
    width = 2
    while True:
        window = {-1: _Series(0, [FieldElem.const(k0)]), 0: _Series(order, [FieldElem.const(alpha0)])}
        for j in range(steps):
            window[j + 1] = _reference_step(eq, window[j - 1], window[j], j, width)
            if window[j + 1].order() is None:
                break
        else:
            return [window[j] for j in range(1, steps + 1)]
        assert width < _MAX_REFERENCE_WIDTH, "the reference cascade shows no order"
        width *= 2


# ---------------------------------------------------------------------------
# the oracle


def _at_point(poly, alpha0, k0):
    return poly.compose("alpha", MPoly.const(alpha0)).compose("K", MPoly.const(k0))


def _numeric_pattern(eq, order, steps, alpha0, k0):
    with mock.patch.object(cascade, "_ALPHA", FieldElem.const(alpha0)), \
            mock.patch.object(cascade, "_K", FieldElem.const(k0)):
        pattern = run_cascade(eq, first_seed(order), steps)
    assert all(e.certified for e in pattern.entries), pattern.export()
    return [e.series for e in pattern.entries]


def _same_germ(series, reference):
    """Order, leading and every coefficient that both windows certify."""
    top = min(series.hi, reference.hi)
    if top == math.inf:
        top = max(series.stored_hi, reference.end)
    return (series.order, series.leading) == (reference.order(), reference.at(reference.order())) \
        and all(series.coefficient(e) == reference.at(e) for e in range(series.order, top))


def compare_at(eq, order, steps, symbolic, alpha0, k0):
    """Compare the specialized symbolic pattern with the numeric and the
    reference cascade at one point, up to the first vanishing leading.

    The numeric and the reference cascade describe the same germ, so they
    must also agree on every coefficient that both windows certify.
    Returns the vanishings found, each as (offset, "numerator" or
    "denominator"); the offsets before the first are compared all the same.
    """
    expected, vanished = [], []
    for entry in symbolic.entries:
        num = _at_point(entry.leading.num, alpha0, k0)
        den = _at_point(entry.leading.den, alpha0, k0)
        vanished = [(entry.offset, part) for part, x in (("numerator", num), ("denominator", den))
                    if x.is_zero]
        if vanished:
            break
        expected.append((entry.order, FieldElem(num, den)))
    if expected:
        n = len(expected)
        numeric = _numeric_pattern(eq, order, n, alpha0, k0)
        assert [(s.order, s.leading) for s in numeric] == expected
        for offset, (s, r) in enumerate(zip(numeric, _reference_pattern(eq, order, n, alpha0, k0)), 1):
            assert _same_germ(s, r), f"offset {offset}: {s} against the reference {r.lo}, {r.c}"
    return vanished


def _points(seed):
    rng = random.Random(seed)

    def draw():
        den = rng.randint(1, 7)
        return gauss(Fraction(rng.randint(-9, 9), den), Fraction(rng.randint(-9, 9), den))

    while True:
        alpha0, k0 = draw(), draw()
        if not alpha0.is_zero:
            yield alpha0, k0


def check(label, eq, order, steps):
    """Run the oracle at fixed-seed points until one compares every offset.

    Each vanishing met on the way is printed, so a draw is never dropped
    without a trace; a case whose every point vanishes fails.
    """
    symbolic = run_cascade(eq, first_seed(order), steps)
    assert all(e.certified for e in symbolic.entries), symbolic.export()
    for alpha0, k0 in itertools.islice(_points(1980), _POINTS_PER_CASE):
        vanished = compare_at(eq, order, steps, symbolic, alpha0, k0)
        if not vanished:
            return
        for offset, part in vanished:
            print(f"{label}: at alpha = {alpha0}, K = {k0} the {part} of the "
                  f"leading at offset {offset} vanishes")
    pytest.fail(f"{label}: every point met a vanishing leading")


def _demo_cases():
    for entry in load_demo_corpus():
        request = entry.requests["cascade"]
        if entry.eq.kind == EqKind.INVERSE_SQUARE:
            yield entry.id, entry.eq, request["order"], request["steps"]
        elif entry.eq.kind == EqKind.LOG_DERIV and rational_degree(entry.eq)["den"] == 0:
            yield entry.id, entry.eq, -request["order"], request["steps"]


@pytest.mark.parametrize("case", list(_demo_cases()), ids=lambda case: case[0])
def test_demo_cascades_commute_with_specialization(case):
    check(*case)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(inverse_square_equations())
def test_inverse_square_cascades_commute_with_specialization(eq):
    check("inverse-square", eq, 1, 3)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(polynomial_log_deriv_equations())
def test_polynomial_cascades_commute_with_specialization(case):
    _, q, eq = case
    check("polynomial", eq, -q, 3)


def test_a_vanishing_leading_is_reported_and_the_offsets_before_it_compared():
    # confined-basic closes at offset 3 with the leading 5*K, which K = 0 kills
    _, eq, order, steps = next(c for c in _demo_cases() if c[0] == "confined-basic")
    symbolic = run_cascade(eq, first_seed(order), steps)
    assert str(symbolic.entry_at(3).leading) == "5*K"
    assert compare_at(eq, order, steps, symbolic, gauss(1), gauss(0)) == [(3, "numerator")]
    assert compare_at(eq, order, steps, symbolic, gauss(2, -1), gauss(3)) == []
