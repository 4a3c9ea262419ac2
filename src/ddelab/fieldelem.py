"""Fraction field over the multivariate polynomial ring.

A FieldElem is a quotient num/den of MPoly values with den != 0.  The zero
test and equality are decided by cross-multiplication, which needs no gcd
machinery and is exact.  Fractions are allowed to be non-reduced; correctness
never depends on canonical form.

This module holds the one normal form of the exact core, ``_reduce(den,
nums)``.  It reduces fractions nums[k]/den that share one denominator:
``FieldElem`` passes its single numerator, and ``LaurentSeries.canonical``
the whole window of a series.  Without general multivariate gcds it keeps
sizes workable in four steps:

* the monomial dividing the denominator and every numerator is cancelled,
* a constant denominator, also one that the next step leaves, is folded
  into the numerators,
* when the denominator, less its own monomial factor, involves a single
  variable, its gcd with the numerators' content in that variable is
  cancelled (plain Euclid in one variable over Q(i)),
* the content of the denominator is moved into the numerators: its rational
  content, then the gcd in Z[i] of the Gaussian integers that leaves (a unit
  when they are all real), and a unit that rotates its leading coefficient
  into the closed first quadrant.

So the form is unique, whatever arithmetic made it, when the denominator less
its monomial factor involves at most one variable: that core shares no factor
with every numerator, is primitive over Z[i] and has a fixed leading
coefficient.  A multivariate core can still depend on the arithmetic.

A factor is cancelled only when every numerator shares it: finer
cancellation would regrow when the window is put back over one denominator.
``_tighten`` is the first two steps alone, which every new series window gets.
Its monomial is the per-slot minimum of all the terms' packed keys (see
``mpoly``), and dividing it out subtracts that one int from each key.

Polynomials skip ``_reduce``.  For a constant denominator ``_reduce`` always
hands back the one shared ``_ONE_MP``, so ``den is _ONE_MP`` tells a
polynomial apart at the cost of a pointer test.  Over that denominator
``_reduce`` returns the numerator unchanged, so ``FieldElem(num)`` does the
same without calling it, and ``+``, ``-``, unary ``-`` and ``*`` of two
polynomials build their result from ``num +- num`` or ``num * num`` alone.
The result is exactly the one the general path gives, down to the term map:
that path would only multiply by the constant 1 and then reduce over it.
``==`` of two polynomials compares the numerators, which is
cross-multiplication less its two products by 1.

Rational functions of the distinguished variable ``z`` are FieldElems whose
function-field variable is ``z``; other symbols act as constants.
``FieldElem.shift`` and ``FieldElem.derivative`` implement the shift
z -> z + c (c a Gaussian integer is the intended use, though any exact
constant works) and d/dz.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from .gaussian import I, ONE, ZERO, GaussianRational
from .mpoly import _EXP_MASK, MPoly, _content, _shift

Coeffish = Union[int, Fraction, GaussianRational]
# a dense univariate coefficient list, low to high, over Q(i); _ulist_trim and
# _ulist_divmod take one over Q(i)(z) as well, a FieldElem list, for model
ULi = List[GaussianRational]

_ONE_MP = MPoly.const(1)


class FieldElem:
    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = _ONE_MP
        elif den.is_zero:
            raise ZeroDivisionError("zero denominator")
        else:
            den, (num,) = _reduce(den, [num])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(c: Coeffish) -> "FieldElem":
        return FieldElem(MPoly.const(c))

    @staticmethod
    def var(name: str) -> "FieldElem":
        return FieldElem(MPoly.var(name))

    @staticmethod
    def coerce(x) -> "FieldElem":
        if isinstance(x, FieldElem):
            return x
        if isinstance(x, MPoly):
            return FieldElem(x)
        if isinstance(x, (int, Fraction, GaussianRational)):
            return FieldElem.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to FieldElem")

    # -- predicates ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def is_constant(self) -> bool:
        """Constant as a function of z (may involve other symbols)."""
        return self.num.degree("z") <= 0 and self.den.degree("z") <= 0

    def is_number(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> GaussianRational:
        if not self.is_number():
            raise ValueError("element is not a constant")
        if self.is_zero:
            return ZERO
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "FieldElem":
        o = FieldElem.coerce(other)
        if self.den is _ONE_MP and o.den is _ONE_MP:
            return FieldElem(self.num + o.num)
        return FieldElem(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        if self.den is _ONE_MP:
            return FieldElem(-self.num)
        return FieldElem(-self.num, self.den)

    def __sub__(self, other) -> "FieldElem":
        o = FieldElem.coerce(other)
        if self.den is _ONE_MP and o.den is _ONE_MP:
            return FieldElem(self.num - o.num)
        return self + (-o)

    def __rsub__(self, other) -> "FieldElem":
        return FieldElem.coerce(other) - self

    def __mul__(self, other) -> "FieldElem":
        o = FieldElem.coerce(other)
        if self.den is _ONE_MP and o.den is _ONE_MP:
            return FieldElem(self.num * o.num)
        return FieldElem(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElem":
        o = FieldElem.coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero field element")
        return FieldElem(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "FieldElem":
        return FieldElem.coerce(other) / self

    def __pow__(self, n: int) -> "FieldElem":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return (FieldElem.const(1) / self) ** (-n)
        return FieldElem(self.num ** n, self.den ** n)

    def inverse(self) -> "FieldElem":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElem(self.den, self.num)

    # -- function-field operations -------------------------------------------------

    def shift(self, c: Coeffish) -> "FieldElem":
        """Substitute z -> z + c."""
        return self.compose_var("z", MPoly.var("z") + MPoly.const(c))

    def derivative(self, var: str = "z") -> "FieldElem":
        n, d = self.num, self.den
        return FieldElem(n.derivative(var) * d - n * d.derivative(var), d * d)

    def compose_var(self, var: str, replacement: MPoly) -> "FieldElem":
        return FieldElem(self.num.compose(var, replacement), self.den.compose(var, replacement))

    def eval_complex(self, values: Mapping[str, complex]) -> complex:
        d = self.den.eval_complex(values)
        if d == 0:
            raise ZeroDivisionError("evaluation lands on a pole")
        return self.num.eval_complex(values) / d

    # -- comparison and display ------------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            o = FieldElem.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den is _ONE_MP and o.den is _ONE_MP:
            return self.num == o.num
        return (self.num * o.den - o.num * self.den).is_zero

    def __hash__(self):
        raise TypeError("FieldElem is not hashable")

    def __str__(self) -> str:
        if self.den is _ONE_MP:
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if any(ch in ns[1:] for ch in "+-"):
            ns = f"({ns})"
        if any(ch in ds[1:] for ch in "+-") or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"FieldElem({self})"


# -- the normal form -------------------------------------------------------------


def _reduce(den: MPoly, nums: List[MPoly]) -> Tuple[MPoly, List[MPoly]]:
    """Normal form of the fractions ``nums[k]/den``: the module docstring's
    four steps, in order, unique for a univariate core.  The last step scales
    once, by 1/content over the Gaussian content times the unit.

    A constant denominator always comes back as the shared ``_ONE_MP``, the
    invariant behind the polynomial fast paths of ``FieldElem``.
    """
    if all(n.is_zero for n in nums):
        return _ONE_MP, nums
    den, nums = _tighten(den, nums)
    if den.is_constant():
        return den, nums

    # univariate den core: strip the den's own monomial prefactor, then fold
    # the shrinking gcd through the numerators' coefficient slices
    dmono = MPoly._common_key([den])
    core = den._divide_key(dmono) if dmono else den
    dvars = core.used_vars()
    if len(dvars) == 1:
        v = dvars[0]
        g = _as_univariate(core, v)
        for n in nums:
            if len(g) == 1:
                break
            if not n.is_zero:
                g = _gcd_with_content(g, n, v)
        if len(g) > 1:
            core = _from_univariate(_ulist_divexact(_as_univariate(core, v), g), v)
            den = core * MPoly._make({dmono: ONE}) if dmono else core
            nums = [n if n.is_zero else _divide_content(n, v, g) for n in nums]
            if den.is_constant():
                return _tighten(den, nums)

    inv = GaussianRational(Fraction(1) / den.content())
    if any(c.im for c in den.terms.values()):
        inv = inv / _gaussian_gcd(c * inv for c in den.terms.values())
    inv = inv * _first_quadrant_unit(den.leading_coefficient() * inv)
    if inv != ONE:
        den = den.scale(inv)
        nums = [n.scale(inv) for n in nums]
    return den, nums


def _tighten(den: MPoly, nums: List[MPoly]) -> Tuple[MPoly, List[MPoly]]:
    """The first two steps of ``_reduce`` alone: no gcd, no unit."""
    if not den.is_constant():
        common = MPoly._common_key([den, *nums])
        if common:
            den = den._divide_key(common)
            nums = [n if n.is_zero else n._divide_key(common) for n in nums]
    if den.is_constant():
        c = den.constant_value()
        if c != ONE:
            inv = c.inverse()
            nums = [n.scale(inv) for n in nums]
        return _ONE_MP, nums
    return den, nums


def _first_quadrant_unit(lead: GaussianRational) -> GaussianRational:
    """Unit u with u*lead in the closed first quadrant (re > 0, im >= 0)."""
    cand = lead
    unit = ONE
    for _ in range(4):
        if cand.re > 0 and cand.im >= 0:
            return unit
        cand = cand * I
        unit = unit * I
    return ONE  # lead == 0 cannot happen for a nonzero denominator


def _gaussian_gcd(coeffs: Iterable[GaussianRational]) -> GaussianRational:
    """A gcd in Z[i] of Gaussian integers, by Euclid with rounded quotients."""
    g = (0, 0)
    for c in coeffs:
        b = (c.re, c.im)
        while b != (0, 0) and g[0] * g[0] + g[1] * g[1] != 1:
            n = b[0] * b[0] + b[1] * b[1]
            qr = (2 * (g[0] * b[0] + g[1] * b[1]) + n) // (2 * n)
            qi = (2 * (g[1] * b[0] - g[0] * b[1]) + n) // (2 * n)
            g, b = b, (g[0] - qr * b[0] + qi * b[1], g[1] - qr * b[1] - qi * b[0])
    return GaussianRational(*g)


def _gcd_with_content(g: ULi, p: MPoly, v: str) -> ULi:
    """Fold gcd(g, content of p in v), slice by slice with early exit."""
    if not p.degree(v):
        return [ONE]
    for _, lst in _slices(p, v):
        g = _ulist_gcd(g, lst)
        if len(g) == 1:
            break
    return g


# -- univariate helpers over Q(i) ------------------------------------------------


def _as_univariate(p: MPoly, v: str) -> ULi:
    """The coefficients of p in v, for a p that involves no other variable."""
    return [c.constant_value() for c in p.coefficients(v)]


def _from_univariate(lst: ULi, v: str) -> MPoly:
    return MPoly((v,), {(i,): c for i, c in enumerate(lst) if not c.is_zero})


def _slices(p: MPoly, v: str) -> Iterator[Tuple[int, ULi]]:
    """The coefficients of p in v, one list per monomial (a key) in the other vars."""
    s = _shift(v)
    groups: Dict[int, Dict[int, GaussianRational]] = {}
    for key, c in p.terms.items():
        e = key >> s & _EXP_MASK
        groups.setdefault(key - (e << s), {})[e] = c
    for rest, grp in groups.items():
        lst = [ZERO] * (max(grp) + 1)
        for e, c in grp.items():
            lst[e] = c
        yield rest, _ulist_trim(lst)


def _divide_content(p: MPoly, v: str, g: ULi) -> MPoly:
    s = _shift(v)
    terms: Dict[int, GaussianRational] = {}
    for rest, lst in _slices(p, v):
        for e, c in enumerate(_ulist_divexact(lst, g)):
            if not c.is_zero:
                terms[rest + (e << s)] = c
    return MPoly._make(terms)


def _ulist_trim(a: ULi) -> ULi:
    while a and a[-1].is_zero:
        a.pop()
    return a


def _ulist_divmod(a: ULi, b: ULi) -> tuple[ULi, ULi]:
    """Quotient and remainder over any field with ``*``, ``-``, ``inverse()`` and
    ``is_zero``: Q(i) lists for ``_reduce``, ``FieldElem`` lists for ``model.shares_root``."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = list(a)
    q: ULi = [ZERO] * max(0, len(a) - len(b) + 1)
    binv = b[-1].inverse()
    for i in range(len(r) - len(b), -1, -1):
        c = r[i + len(b) - 1] * binv
        if c.is_zero:
            continue
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] = r[i + j] - c * bj
    return _ulist_trim(q), _ulist_trim(r)


def _ulist_divexact(a: ULi, b: ULi) -> ULi:
    q, r = _ulist_divmod(a, b)
    if r:
        raise ArithmeticError("inexact univariate division")
    return q


def _ulist_primitive(a: ULi) -> ULi:
    """Divide out the rational content, keeping coefficients integral."""
    scale = 1 / _content(a)
    if scale == 1:
        return a
    coeff = GaussianRational.coerce(scale)
    return [c * coeff for c in a]


def _ulist_gcd(a: ULi, b: ULi) -> ULi:
    """Monic gcd via Euclid with content-normalized remainders.

    Keeping each remainder primitive bounds coefficient growth; a monic
    Euclid over the rationals blows up denominators exponentially.
    """
    a, b = _ulist_primitive(list(a)), _ulist_primitive(list(b))
    while b:
        if len(b) == 1:
            a, b = b, []
            break
        _, r = _ulist_divmod(a, b)
        a, b = b, _ulist_primitive(r)
    if not a:
        return []
    lead = a[-1]
    if lead != ONE:
        inv = lead.inverse()
        a = [c * inv for c in a]
    return a
