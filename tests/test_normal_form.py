"""Property tests for the exact algebra core, through the public API only.

``FieldElem`` reduces one numerator over its denominator, and
``LaurentSeries.canonical`` reduces a whole window over one shared
denominator; both must keep every value and land on a fixed point.
Polynomials skip that reduction, and must come out exactly as if they had
gone through it.
``GaussianRational`` and ``MPoly`` must obey the commutative ring laws, and
a ``LaurentSeries`` must invert to 1 on its window and differentiate
products by the Leibniz rule.
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


mixed_polys = st.sampled_from([("z",), ("zhat", "z"), VARS]).flatmap(polys)


@st.composite
def poly_pairs(draw):
    """Two polynomials in drawn variable tables; some pairs cancel under + or -.

    The tables keep ``mpoly``'s canonical order, as every table the package
    builds does; the general path would re-sort any other.
    """
    tables = st.sampled_from([(), ("z",), ("zhat",), ("z", "alpha"), VARS])
    a = draw(tables.flatmap(polys))
    b = draw(st.one_of(tables.flatmap(polys), st.just(-a), st.just(a)))
    return a, b


@SETTINGS
@given(poly_pairs())
@example((Z_PLUS_1, Z_PLUS_1))
@example((Z_PLUS_1, -Z_PLUS_1))
def test_polynomial_fast_path_matches_the_reduced_form(pair):
    a, b = pair
    f, g = FieldElem(a), FieldElem(b)
    # the general path, through _reduce: a fresh 1 is not the shared one
    one = MPoly.const(1)
    cases = [
        (f + g, FieldElem(a * one + b * one, one * one)),
        (f - g, FieldElem(a * one - b * one, one * one)),
        (-f, FieldElem(-a, one)),
        (f * g, FieldElem(a * b, one * one)),
        (f, FieldElem(a, one)),
    ]
    for fast, general in cases:
        assert fast.num.terms == general.num.terms
        assert fast.den.terms == general.den.terms
        assert str(fast) == str(general)


@SETTINGS
@given(gaussian, gaussian, gaussian)
def test_gaussian_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@SETTINGS
@given(mixed_polys, mixed_polys, mixed_polys)
def test_mpoly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


# windowed series with 2 or 3 known, nonzero coefficients, from t^-2 .. t^2;
# denominators in one variable keep the gcds cheap
series = st.builds(
    lambda lo, cs: LaurentSeries(lo, cs, exact=False),
    st.integers(-2, 2),
    st.lists(
        st.builds(
            FieldElem,
            polys(max_terms=2).filter(lambda p: not p.is_zero),
            polys(("zhat",), max_terms=2).filter(lambda p: not p.is_zero),
        ),
        min_size=2, max_size=3,
    ),
)


@SETTINGS
@given(series, st.integers(1, 3))
def test_series_times_its_inverse_is_one_on_the_window(s, width):
    unit = s * s.inverse(width)
    assert unit.lo == 0 and unit.hi == min(width, len(s.nums))
    assert unit.coefficient(0) == FieldElem.const(1)
    for k in range(1, unit.hi):
        assert unit.coefficient(k).is_zero


@SETTINGS
@given(series, series)
def test_derivative_obeys_leibniz(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    for k in range(min(lhs.lo, rhs.lo), min(lhs.hi, rhs.hi)):
        assert lhs.coefficient(k) == rhs.coefficient(k)
