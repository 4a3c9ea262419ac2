"""Fraction field over the multivariate polynomial ring.

A FieldElem is a quotient num/den of MPoly values with den != 0.  The zero
test and equality are decided by cross-multiplication, which needs no gcd
machinery and is exact.  Fractions are allowed to be non-reduced; correctness
never depends on canonical form.

Normalization applied on construction keeps sizes workable without general
multivariate gcds:

* common monomial factors of num and den are cancelled,
* constant denominators are absorbed into the numerator,
* when the denominator involves a single variable, the gcd of the denominator
  with the numerator's content in that variable is cancelled (plain Euclid in
  one variable over Q(i)),
* the rational content of the denominator is moved into the numerator and the
  denominator's leading coefficient is rotated into the closed first quadrant
  by a unit of Q(i), giving a deterministic sign convention.

Rational functions of the distinguished variable ``z`` are FieldElems whose
function-field variable is ``z``; other symbols act as constants.
``FieldElem.shift`` and ``FieldElem.derivative`` implement the shift
z -> z + c (c a Gaussian integer is the intended use, though any exact
constant works) and d/dz.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple, Union

from .gaussian import ONE, ZERO, GaussianRational
from .mpoly import MPoly, _ordered_vars

Coeffish = Union[int, Fraction, GaussianRational]
ULi = List[GaussianRational]  # dense univariate coefficient list, low to high


class FieldElem:
    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.const(1)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = _reduce(num, den)
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

    def is_constant(self, var: str = "z") -> bool:
        """Constant as a function of one variable (may involve other symbols)."""
        return self.num.degree(var) <= 0 and self.den.degree(var) <= 0

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
        return FieldElem(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return FieldElem(-self.num, self.den)

    def __sub__(self, other) -> "FieldElem":
        return self + (-FieldElem.coerce(other))

    def __rsub__(self, other) -> "FieldElem":
        return FieldElem.coerce(other) - self

    def __mul__(self, other) -> "FieldElem":
        o = FieldElem.coerce(other)
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

    def shift(self, c: Coeffish, var: str = "z") -> "FieldElem":
        """Substitute var -> var + c."""
        repl = MPoly.var(var) + MPoly.const(c)
        return FieldElem(self.num.compose(var, repl), self.den.compose(var, repl))

    def derivative(self, var: str = "z") -> "FieldElem":
        n, d = self.num, self.den
        return FieldElem(n.derivative(var) * d - n * d.derivative(var), d * d)

    def compose_var(self, var: str, replacement: MPoly) -> "FieldElem":
        return FieldElem(self.num.compose(var, replacement), self.den.compose(var, replacement))

    def subs_values(self, values: Mapping[str, Coeffish]) -> "FieldElem":
        den = self.den.subs_values(values)
        if den.is_zero:
            raise ZeroDivisionError("substitution lands on a pole")
        return FieldElem(self.num.subs_values(values), den)

    def eval_complex(self, values: Mapping[str, complex]) -> complex:
        d = self.den.eval_complex(values)
        if d == 0:
            raise ZeroDivisionError("evaluation lands on a pole")
        return self.num.eval_complex(values) / d

    def degree_pair(self, var: str = "z") -> Tuple[int, int]:
        return self.num.degree(var), self.den.degree(var)

    def used_vars(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.num.used_vars()) | set(self.den.used_vars())))

    # -- comparison and display ------------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            o = FieldElem.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero

    def __hash__(self):
        raise TypeError("FieldElem is not hashable")

    def __str__(self) -> str:
        if self.den == MPoly.const(1):
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if any(ch in ns[1:] for ch in "+-"):
            ns = f"({ns})"
        if any(ch in ds[1:] for ch in "+-") or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"FieldElem({self})"


# -- reduction pipeline ------------------------------------------------------------


def _reduce(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    if num.is_zero:
        return MPoly(), MPoly.const(1)

    # cancel common monomial factors
    vars_, n_terms, d_terms = MPoly._aligned(num, den)
    num = MPoly(vars_, n_terms)
    den = MPoly(vars_, d_terms)
    nmin = num.min_exponents()
    dmin = den.min_exponents()
    delta = tuple(min(a, b) for a, b in zip(nmin, dmin))
    if any(delta):
        num = num.shift_exponents(delta)
        den = den.shift_exponents(delta)

    # constant denominator folds into the numerator
    if den.is_constant():
        c = den.constant_value()
        if c != ONE:
            num = num.scale(c.inverse())
        return num, MPoly.const(1)

    # single-variable denominator core: cancel its gcd with the numerator
    # content (the den may keep a monomial prefactor the num lacks)
    dmono = den.min_exponents()
    core = den.shift_exponents(dmono) if any(dmono) else den
    dvars = core.used_vars()
    if len(dvars) == 1:
        v = dvars[0]
        dlist = _as_univariate(core, v)
        clist = _content_in(num, v)
        g = _ulist_gcd(dlist, clist)
        if len(g) > 1:
            core = _from_univariate(_ulist_divexact(dlist, g), v)
            num = _divide_content(num, v, g)
            den = core * MPoly(den.vars, {dmono: ONE}) if any(dmono) else core

    # rational content and unit normalization of the denominator
    c = den.content()
    if c != 1:
        inv = GaussianRational(Fraction(1) / c)
        num = num.scale(inv)
        den = den.scale(inv)
    lead = den.leading_coefficient()
    unit = _first_quadrant_unit(lead)
    if unit != ONE:
        num = num.scale(unit)
        den = den.scale(unit)
    return num, den


def _first_quadrant_unit(lead: GaussianRational) -> GaussianRational:
    """Unit u with u*lead in the closed first quadrant (re > 0, im >= 0)."""
    from .gaussian import I

    cand = lead
    unit = ONE
    for _ in range(4):
        if cand.re > 0 and cand.im >= 0:
            return unit
        cand = cand * I
        unit = unit * I
    return ONE  # lead == 0 cannot happen for a nonzero denominator


def _reduce_many(den: MPoly, nums: "list[MPoly]") -> "tuple[MPoly, list[MPoly]]":
    """Jointly reduce a shared denominator against a family of numerators.

    Cancels only factors common to the denominator and every numerator; any
    finer per-entry cancellation would regrow when the family is put back
    over one denominator, so this is as small as the shared form gets.
    """
    live = [n for n in nums if not n.is_zero]
    if not live:
        return MPoly.const(1), [MPoly() for _ in nums]

    union = _ordered_union([den] + live)
    den = MPoly(union, den._embed(union))
    nums = [n if n.is_zero else MPoly(union, n._embed(union)) for n in nums]

    # common monomial factor across the den and every live numerator
    delta = list(den.min_exponents())
    for n in nums:
        if n.is_zero:
            continue
        delta = [min(a, b) for a, b in zip(delta, n.min_exponents())]
    if any(delta):
        delta_t = tuple(delta)
        den = den.shift_exponents(delta_t)
        nums = [n if n.is_zero else n.shift_exponents(delta_t) for n in nums]

    if den.is_constant():
        c = den.constant_value()
        if c != ONE:
            inv = c.inverse()
            nums = [n.scale(inv) for n in nums]
        return MPoly.const(1), nums

    # univariate den core: strip the den's own monomial prefactor, then fold
    # the shrinking gcd through the numerators' coefficient slices
    dmono = den.min_exponents()
    core = den.shift_exponents(dmono) if any(dmono) else den
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
            den = core * MPoly(den.vars, {dmono: ONE}) if any(dmono) else core
            if den.vars != union:
                den = MPoly(union, den._embed(union))
            nums = [n if n.is_zero else _divide_content(n, v, g) for n in nums]

    c = den.content()
    if c != 1:
        inv = GaussianRational(Fraction(1) / c)
        den = den.scale(inv)
        nums = [n.scale(inv) for n in nums]
    lead = den.leading_coefficient()
    unit = _first_quadrant_unit(lead)
    if unit != ONE:
        den = den.scale(unit)
        nums = [n.scale(unit) for n in nums]
    return den, nums


def _ordered_union(ps: "list[MPoly]"):
    names: set = set()
    for p in ps:
        names.update(p.vars)
    return _ordered_vars(names)


def _gcd_with_content(g: ULi, p: MPoly, v: str) -> ULi:
    """Fold gcd(g, content of p in v), slice by slice with early exit."""
    if v not in p.vars:
        return [ONE]
    i = p.vars.index(v)
    groups: Dict[tuple, Dict[int, GaussianRational]] = {}
    for exps, c in p.terms.items():
        rest = exps[:i] + exps[i + 1:]
        groups.setdefault(rest, {})[exps[i]] = c
    for grp in groups.values():
        lst = [ZERO] * (max(grp) + 1)
        for e, c in grp.items():
            lst[e] = c
        g = _ulist_gcd(g, _ulist_trim(lst))
        if len(g) == 1:
            return g
    return g


# -- univariate helpers over Q(i) ------------------------------------------------


def _as_univariate(p: MPoly, v: str) -> ULi:
    i = p.vars.index(v)
    out: ULi = [ZERO] * (p.degree(v) + 1)
    for exps, c in p.terms.items():
        out[exps[i]] = out[exps[i]] + c
    return _ulist_trim(out)


def _from_univariate(lst: ULi, v: str) -> MPoly:
    return MPoly((v,), {(i,): c for i, c in enumerate(lst) if not c.is_zero})


def _content_in(p: MPoly, v: str) -> ULi:
    """Gcd of the coefficients of p viewed in (other vars)[v]."""
    if v not in p.vars:
        return [ONE]
    i = p.vars.index(v)
    groups: Dict[tuple, Dict[int, GaussianRational]] = {}
    for exps, c in p.terms.items():
        rest = exps[:i] + exps[i + 1:]
        groups.setdefault(rest, {})[exps[i]] = c
    g: ULi = []
    for grp in groups.values():
        lst = [ZERO] * (max(grp) + 1)
        for e, c in grp.items():
            lst[e] = c
        g = _ulist_gcd(g, _ulist_trim(lst)) if g else _ulist_trim(lst)
        if len(g) == 1:
            return [ONE]
    return g or [ONE]


def _divide_content(p: MPoly, v: str, g: ULi) -> MPoly:
    i = p.vars.index(v)
    groups: Dict[tuple, Dict[int, GaussianRational]] = {}
    for exps, c in p.terms.items():
        rest = exps[:i] + exps[i + 1:]
        groups.setdefault(rest, {})[exps[i]] = c
    terms: Dict[tuple, GaussianRational] = {}
    for rest, grp in groups.items():
        lst = [ZERO] * (max(grp) + 1)
        for e, c in grp.items():
            lst[e] = c
        q = _ulist_divexact(_ulist_trim(lst), g)
        for e, c in enumerate(q):
            if c.is_zero:
                continue
            key = rest[:i] + (e,) + rest[i:]
            terms[key] = c
    return MPoly(p.vars, terms)


def _ulist_trim(a: ULi) -> ULi:
    while a and a[-1].is_zero:
        a.pop()
    return a


def _ulist_divmod(a: ULi, b: ULi) -> tuple[ULi, ULi]:
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
    if not a:
        return a
    num_gcd = 0
    den_lcm = 1
    for c in a:
        for f in (c.re, c.im):
            if f:
                num_gcd = math.gcd(num_gcd, abs(f.numerator))
                den_lcm = den_lcm * f.denominator // math.gcd(
                    den_lcm, f.denominator
                )
    if num_gcd == 0:
        return a
    scale = GaussianRational.coerce(Fraction(int(den_lcm), int(num_gcd)))
    if scale == ONE:
        return a
    return [c * scale for c in a]


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
