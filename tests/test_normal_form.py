"""Property tests for the fraction normal form, through the public API only.

``FieldElem`` reduces one numerator over its denominator, and
``LaurentSeries.canonical`` reduces a whole window over one shared
denominator; both must keep every value and land on a fixed point.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddelab.fieldelem import FieldElem
from ddelab.gaussian import GaussianRational
from ddelab.laurent import LaurentSeries
from ddelab.mpoly import MPoly

VARS = ("z", "zhat", "alpha")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small_int = st.integers(-3, 3)
rational = st.builds(Fraction, small_int, st.integers(1, 3))
gaussian = st.builds(GaussianRational, rational, st.one_of(st.just(Fraction(0)), rational))
real = st.builds(GaussianRational, rational)

# the gcd in z leaves the constant 1+i, which is not a unit and must still fold
Z_PLUS_1 = MPoly.var("z") + MPoly.const(1)
ONE_PLUS_I = MPoly.const(GaussianRational(Fraction(1), Fraction(1)))


def polys(vars_=VARS, coeffs=gaussian, max_terms=3):
    """Sums of at most ``max_terms`` terms of degree at most 2 in each of ``vars_``."""
    exps = st.tuples(*[st.integers(0, 2) for _ in vars_])
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: MPoly(vars_, terms)
    )


nonzero_polys = polys().filter(lambda p: not p.is_zero)


@st.composite
def univariate_fraction(draw):
    """(num, den, h): den and h in one variable.

    h has rational coefficients: the content and unit step fixes a
    denominator's scale only up to a rational factor, so a non-real leading
    coefficient of h may survive it.
    """
    v = draw(st.sampled_from(VARS))
    den = draw(polys((v,)).filter(lambda p: not p.is_zero))
    h = draw(polys((v,), coeffs=real).filter(lambda p: not p.is_zero))
    return draw(polys()), den, h


@SETTINGS
@given(polys(), nonzero_polys)
def test_reduction_keeps_the_value(num, den):
    f = FieldElem(num, den)
    assert f.num * den == num * f.den


@SETTINGS
@given(polys(), nonzero_polys)
@example(ONE_PLUS_I * Z_PLUS_1, ONE_PLUS_I * Z_PLUS_1)
def test_reduction_is_idempotent(num, den):
    f = FieldElem(num, den)
    g = FieldElem(f.num, f.den)
    assert g.num == f.num and g.den == f.den


@SETTINGS
@given(univariate_fraction())
@example((MPoly.const(1), ONE_PLUS_I, Z_PLUS_1))
def test_univariate_common_factor_cancels(case):
    num, den, h = case
    f = FieldElem(num, den)
    g = FieldElem(num * h, den * h)
    assert g.num == f.num and g.den == f.den


@SETTINGS
@given(st.lists(st.tuples(polys(), nonzero_polys), min_size=1, max_size=3))
def test_canonical_keeps_every_coefficient(pairs):
    coeffs = [FieldElem(n, d) for n, d in pairs]
    assume(not coeffs[0].is_zero)
    s = LaurentSeries(0, coeffs, exact=False)
    c = s.canonical()
    assert (c.lo, len(c.nums)) == (0, len(coeffs))
    for k, fe in enumerate(coeffs):
        assert c.coefficient(k) == fe
