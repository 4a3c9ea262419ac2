"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial carries its own ordered variable tuple plus a map from exponent
vectors to nonzero GaussianRational coefficients.  Variable tuples follow a
fixed session ordering (``z`` first, then the symbolic base point ``zhat``,
seed symbols, parameter symbols, scaling symbols, then anything else
alphabetically), so polynomials built independently align without surprises.
Binary operations re-embed both operands into the union table; introducing a
new symbol therefore never invalidates existing polynomials.

Coefficient-level zero tests are exact, so ``is_zero`` and equality are
decidable, and dropping zero coefficients on construction keeps the term map
canonical.

Products accumulate raw (re, im) components and wrap them once.  Since an
integral component is a Python ``int`` (see ``gaussian``), products of
integral coefficients run on ints and build no ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add as _iadd
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .gaussian import ONE, ZERO, GaussianRational

Exponents = Tuple[int, ...]
Terms = Dict[Exponents, GaussianRational]
Coeffish = Union[int, Fraction, GaussianRational]

# Session-wide variable priority; unknown names sort alphabetically after these.
_CANONICAL = (
    "z", "zhat", "alpha", "K", "lam", "mu", "nu", "k",
    "eps", "y0", "y1", "y2", "y3", "y4", "y5", "y6", "y7", "y8",
)
_CANON_INDEX = {name: i for i, name in enumerate(_CANONICAL)}


def _var_key(name: str) -> tuple:
    if name in _CANON_INDEX:
        return (0, _CANON_INDEX[name], "")
    return (1, 0, name)


def _ordered_vars(names: Iterable[str]) -> Tuple[str, ...]:
    return tuple(sorted(set(names), key=_var_key))


class MPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Tuple[str, ...] = (), terms: Mapping[Exponents, GaussianRational] | None = None):
        object.__setattr__(self, "vars", tuple(vars))
        clean: Terms = {}
        if terms:
            for exps, c in terms.items():
                if c.is_zero:
                    continue
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Coeffish) -> "MPoly":
        g = GaussianRational.coerce(c)
        if g.is_zero:
            return MPoly()
        return MPoly((), {(): g})

    @staticmethod
    def var(name: str, exp: int = 1) -> "MPoly":
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        if exp == 0:
            return MPoly.const(1)
        return MPoly((name,), {(exp,): ONE})

    @classmethod
    def _make(cls, vars: Tuple[str, ...], terms: Terms) -> "MPoly":
        # trusted constructor: terms must already be zero-free with aligned keys
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    # -- structural properties --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero:
            return ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.vars), ZERO) if self.vars else self.terms[()]

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def used_vars(self) -> Tuple[str, ...]:
        """Variables that actually occur with positive exponent."""
        out = []
        for i, v in enumerate(self.vars):
            if any(e[i] for e in self.terms):
                out.append(v)
        return tuple(out)

    # -- alignment ---------------------------------------------------------

    def _embed(self, newvars: Tuple[str, ...]) -> Terms:
        if newvars == self.vars:
            return dict(self.terms)
        idx = [newvars.index(v) for v in self.vars]
        width = len(newvars)
        out: Terms = {}
        for exps, c in self.terms.items():
            vec = [0] * width
            for j, e in enumerate(exps):
                vec[idx[j]] = e
            out[tuple(vec)] = c
        return out

    @staticmethod
    def _aligned(p: "MPoly", q: "MPoly") -> tuple[Tuple[str, ...], Terms, Terms]:
        if p.vars == q.vars:
            return p.vars, dict(p.terms), dict(q.terms)
        union = _ordered_vars(p.vars + q.vars)
        return union, p._embed(union), q._embed(union)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "MPoly":
        if isinstance(x, MPoly):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return MPoly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to MPoly")

    def __add__(self, other) -> "MPoly":
        o = MPoly._coerce(other)
        vars_, a, b = MPoly._aligned(self, o)
        for exps, c in b.items():
            cur = a.get(exps)
            if cur is None:
                a[exps] = c
                continue
            re = cur.re + c.re
            im = cur.im + c.im
            if re or im:
                a[exps] = GaussianRational(re, im)
            else:
                del a[exps]
        return MPoly._make(vars_, a)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.vars, {e: GaussianRational(-c.re, -c.im) for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-MPoly._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return MPoly._coerce(other) - self

    @staticmethod
    def _accumulate_product(acc: dict, a: Terms, b: Terms) -> None:
        # raw schoolbook product of term maps into (re, im) component pairs;
        # wrapping back into GaussianRational happens once, in _from_raw
        for e1, c1 in a.items():
            r1, i1 = c1.re, c1.im
            if not i1:
                for e2, c2 in b.items():
                    key = tuple(map(_iadd, e1, e2))
                    cur = acc.get(key)
                    if cur is None:
                        acc[key] = [r1 * c2.re, r1 * c2.im]
                    else:
                        cur[0] += r1 * c2.re
                        if c2.im:
                            cur[1] += r1 * c2.im
            else:
                for e2, c2 in b.items():
                    key = tuple(map(_iadd, e1, e2))
                    r2, i2 = c2.re, c2.im
                    cur = acc.get(key)
                    if cur is None:
                        acc[key] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
                    else:
                        cur[0] += r1 * r2 - i1 * i2
                        cur[1] += r1 * i2 + i1 * r2

    @staticmethod
    def _from_raw(vars_: Tuple[str, ...], acc: dict) -> "MPoly":
        terms: Terms = {}
        for key, (re, im) in acc.items():
            if re or im:
                terms[key] = GaussianRational(re, im)
        return MPoly._make(vars_, terms)

    def __mul__(self, other) -> "MPoly":
        o = MPoly._coerce(other)
        if self.is_zero or o.is_zero:
            return MPoly()
        vars_, a, b = MPoly._aligned(self, o)
        acc: dict = {}
        MPoly._accumulate_product(acc, a, b)
        return MPoly._from_raw(vars_, acc)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Sequence[tuple["MPoly", "MPoly"]]) -> "MPoly":
        """Sum of pairwise products, accumulated in one pass.

        Equivalent to ``sum(p * q for p, q in pairs)`` but each operand is
        aligned to the union variable table once and no intermediate
        polynomials are materialized.
        """
        live = [(p, q) for p, q in pairs if not p.is_zero and not q.is_zero]
        if not live:
            return MPoly()
        names: set = set()
        for p, q in live:
            names.update(p.vars)
            names.update(q.vars)
        union = _ordered_vars(names)
        cache: dict = {}
        acc: dict = {}
        for p, q in live:
            tp = cache.get(id(p))
            if tp is None:
                tp = p.terms if p.vars == union else p._embed(union)
                cache[id(p)] = tp
            tq = cache.get(id(q))
            if tq is None:
                tq = q.terms if q.vars == union else q._embed(union)
                cache[id(q)] = tq
            MPoly._accumulate_product(acc, tp, tq)
        return MPoly._from_raw(union, acc)

    @staticmethod
    def convolve(avec: Sequence["MPoly"], bvec: Sequence["MPoly"], width: int) -> list["MPoly"]:
        """Windowed Cauchy product of two coefficient vectors.

        Entry k of the result is ``sum(avec[i] * bvec[k-i])``; entries at or
        beyond ``width`` are dropped.  Inputs are aligned once and products
        accumulate into raw component maps, one per output slot.
        """
        names: set = set()
        for p in avec:
            names.update(p.vars)
        for p in bvec:
            names.update(p.vars)
        union = _ordered_vars(names)
        araw = [None if p.is_zero else (p.terms if p.vars == union else p._embed(union)) for p in avec]
        braw = [None if p.is_zero else (p.terms if p.vars == union else p._embed(union)) for p in bvec]
        accs: list[dict] = [dict() for _ in range(width)]
        for i, ta in enumerate(araw):
            if ta is None or i >= width:
                continue
            top = width - i
            for j, tb in enumerate(braw):
                if j >= top:
                    break
                if tb is None:
                    continue
                MPoly._accumulate_product(accs[i + j], ta, tb)
        return [MPoly._from_raw(union, acc) for acc in accs]

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        out = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c: Coeffish) -> "MPoly":
        g = GaussianRational.coerce(c)
        if g.is_zero:
            return MPoly()
        if not g.im:
            gr = g.re
            return MPoly._make(self.vars, {e: GaussianRational(v.re * gr, v.im * gr) for e, v in self.terms.items()})
        return MPoly._make(self.vars, {e: v * g for e, v in self.terms.items()})

    # -- calculus and substitution ------------------------------------------

    def derivative(self, var: str) -> "MPoly":
        if var not in self.vars:
            return MPoly()
        i = self.vars.index(var)
        out: Terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1:]
            out[key] = GaussianRational(c.re * e, c.im * e)
        return MPoly._make(self.vars, out)

    def coefficients(self, var: str) -> list["MPoly"]:
        """``[P_0, ..., P_d]`` with ``self = sum(P_e * var^e)`` and d the
        degree in ``var``; each ``P_e`` is free of ``var``."""
        if not self.terms:
            return []
        if var not in self.vars:
            return [self]
        i = self.vars.index(var)
        rest_vars = self.vars[:i] + self.vars[i + 1:]
        by_exp: Dict[int, Terms] = {}
        for exps, c in self.terms.items():
            by_exp.setdefault(exps[i], {})[exps[:i] + exps[i + 1:]] = c
        return [MPoly._make(rest_vars, by_exp.get(e, {})) for e in range(max(by_exp) + 1)]

    def compose(self, var: str, replacement: "MPoly") -> "MPoly":
        """Substitute a polynomial for one variable."""
        if var not in self.vars:
            return self
        # Horner in the replacement
        out = MPoly()
        for pe in reversed(self.coefficients(var)):
            out = out * replacement
            if pe.terms:
                out = out + pe
        return out

    def eval_complex(self, values: Mapping[str, complex]) -> complex:
        missing = [v for v in self.used_vars() if v not in values]
        if missing:
            raise ValueError(f"unassigned variables: {missing}")
        total = 0j
        for exps, c in self.terms.items():
            term = complex(c)
            for v, e in zip(self.vars, exps):
                if e:
                    term *= complex(values[v]) ** e
            total += term
        return total

    # -- normalization helpers ----------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content over all coefficient components."""
        nums: list[int] = []
        dens: list[int] = []
        for c in self.terms.values():
            for part in (c.re, c.im):
                if part:
                    nums.append(abs(part.numerator))
                    dens.append(part.denominator)
        if not nums:
            return Fraction(1)
        gn = 0
        for n in nums:
            gn = gcd(gn, n)
        ld = 1
        for d in dens:
            ld = ld * d // gcd(ld, d)
        return Fraction(int(gn), int(ld))

    def leading_coefficient(self) -> GaussianRational:
        """Coefficient of the graded-lex leading monomial (canonical var order)."""
        if self.is_zero:
            return ZERO
        key = max(self.terms, key=lambda e: (sum(e), e))
        return self.terms[key]

    def min_exponents(self) -> Exponents:
        if self.is_zero:
            return (0,) * len(self.vars)
        return tuple(min(e[i] for e in self.terms) for i in range(len(self.vars)))

    def shift_exponents(self, delta: Exponents) -> "MPoly":
        """Divide by the monomial with the given exponent vector (must divide)."""
        out: Terms = {}
        for exps, c in self.terms.items():
            key = tuple(e - d for e, d in zip(exps, delta))
            if any(x < 0 for x in key):
                raise ValueError("monomial does not divide polynomial")
            out[key] = c
        return MPoly(self.vars, out)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        vars_, a, b = MPoly._aligned(self, other)
        return a == b

    def __hash__(self):
        raise TypeError("MPoly is not hashable")

    def sorted_terms(self) -> list[tuple[Exponents, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exps) if e
            )
            cs = str(c)
            if mono:
                if cs == "1":
                    body = mono
                elif cs == "-1":
                    body = f"-{mono}"
                elif ("+" in cs[1:]) or ("-" in cs[1:]) or cs.endswith("i") and cs not in ("i", "-i"):
                    body = f"({cs})*{mono}"
                else:
                    body = f"{cs}*{mono}"
            else:
                body = cs if ("+" not in cs[1:] and "-" not in cs[1:]) else f"({cs})"
            if pieces and not body.startswith("-"):
                pieces.append("+" + body)
            else:
                pieces.append(body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MPoly({self})"
