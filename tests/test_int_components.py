"""The component rule of the exact core, and the Taylor expansion by binomials.

A ``GaussianRational`` component is an ``int`` when it is integral and a
``Fraction`` with denominator > 1 otherwise; it is never a float and never
an integral ``Fraction``.  Each operation is checked against a reference
written with ``Fraction`` pairs only.

``laurent._taylor_poly`` expands with integer binomial weights; the
reference below is the derivative-and-factorial definition of a Taylor
coefficient, p^(m)(c) / m!.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from ddelab.cascade import first_seed, run_cascade
from ddelab.corpus import load_demo_corpus
from ddelab.fieldelem import FieldElem
from ddelab.gaussian import I, ONE, GaussianRational
from ddelab.laurent import LaurentSeries, _taylor_poly
from ddelab.model import EqKind
from ddelab.mpoly import MPoly

VARS = ("z", "zhat", "alpha")
SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# integral Fractions such as 4/2 are drawn on purpose: they must come out as ints
rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
pairs = st.tuples(rational, st.one_of(st.just(Fraction(0)), rational))
nonzero_pairs = pairs.filter(lambda p: p[0] or p[1])


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def canonical_pair(g: GaussianRational):
    """(re, im) as Fractions, after checking the component rule."""
    assert is_canonical(g.re) and is_canonical(g.im), repr(g)
    return Fraction(g.re), Fraction(g.im)


def gr(p) -> GaussianRational:
    return GaussianRational(*p)


# -- the Fraction-pair reference ----------------------------------------------


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, n):
    base = ref_inverse(x) if n < 0 else x
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


@SETTINGS
@given(pairs, nonzero_pairs, st.integers(-4, 4))
def test_gaussian_operations_keep_the_component_rule(x, y, n):
    a, b = gr(x), gr(y)
    cases = [
        (a + b, (x[0] + y[0], x[1] + y[1])),
        (a - b, (x[0] - y[0], x[1] - y[1])),
        (a * b, ref_mul(x, y)),
        (a / b, ref_mul(x, ref_inverse(y))),
        (b.inverse(), ref_inverse(y)),
        (b ** n, ref_pow(y, n)),
        (a + 3, (x[0] + 3, x[1])),
        (a * Fraction(2, 3), (x[0] * Fraction(2, 3), x[1] * Fraction(2, 3))),
        (GaussianRational.coerce(x[0]), (x[0], Fraction(0))),
    ]
    for got, want in cases:
        assert canonical_pair(got) == want
    assert canonical_pair(a) == x and hash(a) == hash(x)


# -- polynomials -------------------------------------------------------------


RefPoly = dict  # exponent tuple over VARS -> (re, im) Fractions


def ref_poly_mul(p: RefPoly, q: RefPoly) -> RefPoly:
    out: RefPoly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            c = ref_mul(c1, c2)
            cur = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (cur[0] + c[0], cur[1] + c[1])
    return {e: c for e, c in out.items() if c[0] or c[1]}


def ref_poly_add(p: RefPoly, q: RefPoly) -> RefPoly:
    out = dict(p)
    for e, c in q.items():
        cur = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (cur[0] + c[0], cur[1] + c[1])
    return {e: c for e, c in out.items() if c[0] or c[1]}


def ref_compose(p: RefPoly, i: int, q: RefPoly) -> RefPoly:
    out: RefPoly = {}
    for e, c in p.items():
        term = {e[:i] + (0,) + e[i + 1:]: c}
        for _ in range(e[i]):
            term = ref_poly_mul(term, q)
        out = ref_poly_add(out, term)
    return out


def to_mpoly(p: RefPoly) -> MPoly:
    return MPoly(VARS, {e: gr(c) for e, c in p.items()})


def to_ref(p: MPoly, names=VARS) -> RefPoly:
    """The terms of p over ``names``, after checking the component rule."""
    out: RefPoly = {}
    used = p.used_vars()
    for exps, c in p.sorted_terms():
        by_var = dict(zip(used, exps))
        out[tuple(by_var.get(v, 0) for v in names)] = canonical_pair(c)
    return out


ref_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2) for _ in VARS]), nonzero_pairs, max_size=4
)


@SETTINGS
@given(ref_polys, ref_polys, ref_polys, rational, st.sampled_from(range(len(VARS))))
def test_mpoly_operations_keep_the_component_rule(p, q, r, f, i):
    a, b, c = to_mpoly(p), to_mpoly(q), to_mpoly(r)
    v = VARS[i]
    scaled = {e: (x[0] * f, x[1] * f) for e, x in p.items()} if f else {}
    derived = {
        e[:i] + (e[i] - 1,) + e[i + 1:]: (x[0] * e[i], x[1] * e[i])
        for e, x in p.items() if e[i]
    }
    assert to_ref(a * b) == ref_poly_mul(p, q)
    assert to_ref(MPoly.dot([(a, b), (c, a)])) == ref_poly_add(
        ref_poly_mul(p, q), ref_poly_mul(r, p)
    )
    assert to_ref(a.scale(f)) == scaled
    assert to_ref(a.derivative(v)) == derived
    assert to_ref(a.compose(v, b)) == ref_compose(p, i, q)

    content = a.content()
    assert type(content) is Fraction
    parts = [x for pair in p.values() for x in pair if x]
    if parts:
        num, den = 0, 1
        for x in parts:
            num = gcd(num, x.numerator)
            den = den * x.denominator // gcd(den, x.denominator)
        assert content == Fraction(num, den)
    else:
        assert content == 1


# -- packed keys against the tuple reference -------------------------------------

# Names first seen here, out of printing order: their slots run u3, u1, u2,
# while every table prints them u1, u2, u3, after z.
for _name in ("u3", "u1", "u2"):
    MPoly.var(_name)
TABLE = ("z", "u1", "u2", "u3")


def ref_neg(p: RefPoly) -> RefPoly:
    return {e: (-c[0], -c[1]) for e, c in p.items()}


def ref_graded(e):
    return sum(e), e


def ref_str(p: RefPoly) -> str:
    """``MPoly.__str__`` of p over TABLE, from the tuples alone."""
    out = ""
    for e, c in sorted(p.items(), key=lambda kv: ref_graded(kv[0]), reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(TABLE, e) if k)
        cs = str(gr(c))
        compound = "+" in cs[1:] or "-" in cs[1:]
        if not mono:
            body = f"({cs})" if compound else cs
        elif cs in ("1", "-1"):
            body = cs[:-1] + mono
        elif compound or (cs.endswith("i") and cs not in ("i", "-i")):
            body = f"({cs})*{mono}"
        else:
            body = f"{cs}*{mono}"
        out += body if not out or body.startswith("-") else "+" + body
    return out or "0"


@st.composite
def table_polys(draw):
    """(MPoly, RefPoly over TABLE) in a drawn table in printing order."""
    table = draw(st.sampled_from([(), ("z",), ("u1", "u3"), ("z", "u2"), ("u1", "u2", "u3"), TABLE]))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2) for _ in table]),
                                 nonzero_pairs, max_size=4))
    ref = {tuple(dict(zip(table, e)).get(v, 0) for v in TABLE): c for e, c in terms.items()}
    return MPoly(table, {e: gr(c) for e, c in terms.items()}), ref


def test_fresh_slots_are_out_of_printing_order():
    from ddelab import mpoly

    assert mpoly._SHIFTS["u3"] < mpoly._SHIFTS["u1"] < mpoly._SHIFTS["u2"]


@SETTINGS
@given(table_polys(), table_polys(), st.sampled_from(TABLE))
def test_packed_keys_match_the_tuple_reference(pa, pb, v):
    (a, p), (b, q) = pa, pb
    i = TABLE.index(v)
    results = [(a, p), (a + b, ref_poly_add(p, q)), (a - b, ref_poly_add(p, ref_neg(q))),
               (a * b, ref_poly_mul(p, q))]
    for got, want in results:
        assert to_ref(got, TABLE) == want
        assert str(got) == ref_str(want)
        lead = want[max(want, key=ref_graded)] if want else (0, 0)
        assert canonical_pair(got.leading_coefficient()) == lead
        assert got.used_vars() == tuple(w for j, w in enumerate(TABLE) if any(e[j] for e in want))
        assert got.degree(v) == max((e[i] for e in want), default=-1)
        assert got.total_degree() == max((sum(e) for e in want), default=-1)
        slices = [{e[:i] + (0,) + e[i + 1:]: c for e, c in want.items() if e[i] == k}
                  for k in range(got.degree(v) + 1)]
        assert [to_ref(c, TABLE) for c in got.coefficients(v)] == slices

        mins = tuple(min((e[j] for e in want), default=0) for j in range(len(TABLE)))
        common = MPoly._common_key([got])
        assert to_ref(MPoly._make({common: ONE}), TABLE) == {mins: (1, 0)}
        shifted = {tuple(x - m for x, m in zip(e, mins)): c for e, c in want.items()}
        assert to_ref(got._divide_key(common), TABLE) == shifted
    assert (a == b) == (p == q)


def test_demo_cascade_windows_keep_the_component_rule():
    walked = 0
    for entry in load_demo_corpus():
        if entry.eq.kind != EqKind.INVERSE_SQUARE:
            continue
        request = entry.requests["cascade"]
        seed = first_seed(request["order"])
        pattern = run_cascade(entry.eq, seed, request["steps"])
        for step in pattern.entries:
            for poly in (step.series.den,) + step.series.nums:
                for c in poly.terms.values():
                    canonical_pair(c)
                    walked += 1
    assert walked > 0


# -- the Taylor expansion ------------------------------------------------------


def reference_taylor(p: MPoly, offset, width: int) -> LaurentSeries:
    """Coefficient m is the m-th derivative at zhat + offset over m!."""
    center = MPoly.var("zhat") + MPoly.const(offset)
    coeffs = []
    cur = p
    fact = Fraction(1)
    m = 0
    while m < width and not cur.is_zero:
        val = cur.compose("z", center)
        coeffs.append(FieldElem(val) * FieldElem.const(Fraction(1) / fact))
        cur = cur.derivative("z")
        m += 1
        fact *= m
    return LaurentSeries(0, coeffs, exact=cur.is_zero)


z_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 1)),
    nonzero_pairs,
    max_size=5,
).map(to_mpoly)

offsets = st.one_of(
    st.sampled_from([0, 1, -2, Fraction(1, 2), GaussianRational(Fraction(1, 2), Fraction(1, 3)), I]),
    pairs.map(gr),
)


@SETTINGS
@given(z_polys, offsets, st.integers(1, 6))
def test_taylor_expansion_matches_the_derivative_definition(p, offset, width):
    got = _taylor_poly(p, offset, width)
    want = reference_taylor(p, offset, width)
    assert got.exact == want.exact == (p.degree("z") < width)
    assert got.lo == want.lo
    assert len(got.nums) == len(want.nums)
    for e in range(got.lo, got.stored_hi):
        g, w = got.coefficient(e), want.coefficient(e)
        assert g.num == w.num and g.den == w.den
        assert (str(g.num), str(g.den), str(g)) == (str(w.num), str(w.den), str(w))
        for poly in (g.num, g.den):
            for c in poly.terms.values():
                canonical_pair(c)
