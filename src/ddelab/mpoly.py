"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a map from packed monomials to nonzero GaussianRational
coefficients, and nothing else.  Each variable name owns one 32-bit slot of
an int key for the whole session, assigned when the name is first seen, so
all polynomials key x^a*y^b as ``(a << slot(x)) + (b << slot(y))``: a product
term's key is the sum of two keys, equality compares term maps, and a new
symbol never re-keys an existing polynomial.

The top bit of each slot is a guard, so exponents stay below 2^31.  Outside
input (the constructor and ``var``) is packed by one checked function, which
refuses an exponent that is negative or >= 2^31 with ``OverflowError``, and a
product raises it when a result key meets a guard bit.  Two valid exponents
sum to less than 2^32, and internal subtraction only removes a monomial that
divides every term, so no slot carries or borrows.

A polynomial's variables are the slots that are nonzero in some key, read in
a fixed session order (``z`` first, then the symbolic base point ``zhat``,
seed symbols, parameter symbols, scaling symbols, then anything else
alphabetically), not in the order in which slots were assigned.
``used_vars``, ``sorted_terms``, ``leading_coefficient`` and printing read
keys as exponent tuples over those variables.  A name that owns no slot
occurs in no polynomial, and asking about it assigns none.

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
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .gaussian import ONE, ZERO, GaussianRational

Exponents = Tuple[int, ...]
Terms = Dict[int, GaussianRational]
Coeffish = Union[int, Fraction, GaussianRational]

# Session-wide variable priority; unknown names sort alphabetically after these.
_CANONICAL = (
    "z", "zhat", "alpha", "K", "lam", "mu", "nu", "k",
    "eps", "y0", "y1", "y2", "y3", "y4", "y5", "y6", "y7", "y8",
)
_CANON_INDEX = {name: i for i, name in enumerate(_CANONICAL)}

_SLOT_BITS = 32
_EXP_MASK = (1 << (_SLOT_BITS - 1)) - 1  # the exponent bits of a slot, and the largest exponent
_SHIFTS: Dict[str, int] = {}  # variable name -> bit offset of its slot, fixed once assigned
_ORDER: List[Tuple[str, int]] = []  # the (name, offset) pairs of _SHIFTS in printing order
_GUARD = 0  # the top bit of every assigned slot


def _content(coeffs: Iterable[GaussianRational]) -> Fraction:
    """The gcd of the numerators over the lcm of the denominators of the
    nonzero components of ``coeffs``; 1 when there is none."""
    num_gcd, den_lcm = 0, 1
    for c in coeffs:
        for part in (c.re, c.im):
            if part:
                num_gcd = gcd(num_gcd, abs(part.numerator))
                den_lcm = den_lcm * part.denominator // gcd(den_lcm, part.denominator)
    return Fraction(num_gcd, den_lcm) if num_gcd else Fraction(1)


def _shift(name: str) -> int:
    """The bit offset of a variable's slot, assigned on first sight."""
    global _GUARD
    s = _SHIFTS.get(name)
    if s is None:
        s = _SHIFTS[name] = _SLOT_BITS * len(_SHIFTS)
        _GUARD |= 1 << (s + _SLOT_BITS - 1)
        _ORDER.append((name, s))
        _ORDER.sort(key=lambda vs: _var_key(vs[0]))
    return s


def _pack(names: Sequence[str], exps: Sequence[int]) -> int:
    """The key of an exponent tuple over ``names``, checked: outside input enters here."""
    key = 0
    for v, e in zip(names, exps, strict=True):
        if not 0 <= e <= _EXP_MASK:
            raise OverflowError(f"exponent {e} of {v} is outside [0, 2^31)")
        key += e << _shift(v)
    return key


def _slot_min(a: int, b: int) -> int:
    """The per-slot minimum of two keys."""
    # a slot's guard bit survives (a | guard) - b exactly where a's exponent >= b's
    b_smaller = (((a | _GUARD) - b) & _GUARD) >> (_SLOT_BITS - 1)
    take_b = b_smaller * _EXP_MASK
    return (b & take_b) | (a & ~take_b)


def _var_key(name: str) -> tuple:
    if name in _CANON_INDEX:
        return (0, _CANON_INDEX[name], "")
    return (1, 0, name)


class MPoly:
    __slots__ = ("terms",)

    def __init__(self, names: Sequence[str] = (), terms: Mapping[Exponents, GaussianRational] | None = None):
        """The polynomial with the given exponent tuples over ``names``; the
        names only say how to pack the tuples, and are not kept."""
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if not c.is_zero:
                    self.terms[_pack(names, exps)] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: Coeffish) -> "MPoly":
        g = GaussianRational.coerce(c)
        if g.is_zero:
            return MPoly()
        return MPoly._make({0: g})

    @staticmethod
    def var(name: str, exp: int = 1) -> "MPoly":
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        if exp == 0:
            return MPoly.const(1)
        return MPoly._make({_pack((name,), (exp,)): ONE})

    @classmethod
    def _make(cls, terms: Terms) -> "MPoly":
        # trusted constructor: terms must already be zero-free and guard-free
        self = object.__new__(cls)
        self.terms = terms
        return self

    # -- structural properties --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero:
            return ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0]

    def _table(self) -> List[Tuple[str, int]]:
        """The (name, offset) pairs of the variables that occur, in printing order."""
        bits = 0
        for k in self.terms:
            bits |= k
        return [(v, s) for v, s in _ORDER if bits >> s & _EXP_MASK]

    def _exponent_terms(self) -> Iterable[Tuple[Exponents, GaussianRational]]:
        """The terms with their keys read as exponent tuples over ``used_vars``."""
        slots = [s for _, s in self._table()]
        return ((tuple(k >> s & _EXP_MASK for s in slots), c) for k, c in self.terms.items())

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        s = _SHIFTS.get(var)
        return 0 if s is None else max(k >> s & _EXP_MASK for k in self.terms)

    def used_vars(self) -> Tuple[str, ...]:
        """Variables that actually occur with positive exponent."""
        return tuple(v for v, _ in self._table())

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
        a = dict(self.terms)
        for key, c in o.terms.items():
            cur = a.get(key)
            if cur is None:
                a[key] = c
                continue
            re = cur.re + c.re
            im = cur.im + c.im
            if re or im:
                a[key] = GaussianRational(re, im)
            else:
                del a[key]
        return MPoly._make(a)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._make({e: GaussianRational(-c.re, -c.im) for e, c in self.terms.items()})

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
                    key = e1 + e2
                    cur = acc.get(key)
                    if cur is None:
                        acc[key] = [r1 * c2.re, r1 * c2.im]
                    else:
                        cur[0] += r1 * c2.re
                        if c2.im:
                            cur[1] += r1 * c2.im
            else:
                for e2, c2 in b.items():
                    key = e1 + e2
                    r2, i2 = c2.re, c2.im
                    cur = acc.get(key)
                    if cur is None:
                        acc[key] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
                    else:
                        cur[0] += r1 * r2 - i1 * i2
                        cur[1] += r1 * i2 + i1 * r2

    @staticmethod
    def _from_raw(acc: dict) -> "MPoly":
        guard = _GUARD
        terms: Terms = {}
        for key, (re, im) in acc.items():
            if key & guard:
                raise OverflowError("a product exponent reached 2^31")
            if re or im:
                terms[key] = GaussianRational(re, im)
        return MPoly._make(terms)

    def __mul__(self, other) -> "MPoly":
        o = MPoly._coerce(other)
        if self.is_zero or o.is_zero:
            return MPoly()
        acc: dict = {}
        MPoly._accumulate_product(acc, self.terms, o.terms)
        return MPoly._from_raw(acc)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Sequence[tuple["MPoly", "MPoly"]]) -> "MPoly":
        """Sum of pairwise products, accumulated in one pass.

        Equivalent to ``sum(p * q for p, q in pairs)`` but no intermediate
        polynomials are materialized.
        """
        live = [(p, q) for p, q in pairs if not p.is_zero and not q.is_zero]
        if not live:
            return MPoly()
        acc: dict = {}
        for p, q in live:
            MPoly._accumulate_product(acc, p.terms, q.terms)
        return MPoly._from_raw(acc)

    @staticmethod
    def convolve(avec: Sequence["MPoly"], bvec: Sequence["MPoly"], width: int) -> list["MPoly"]:
        """Windowed Cauchy product of two coefficient vectors.

        Entry k of the result is ``sum(avec[i] * bvec[k-i])``; entries at or
        beyond ``width`` are dropped.  Products accumulate into raw component
        maps, one per output slot.
        """
        accs: list[dict] = [dict() for _ in range(width)]
        for i, pa in enumerate(avec[:width]):
            if pa.is_zero:
                continue
            for j, pb in enumerate(bvec[:width - i]):
                if not pb.is_zero:
                    MPoly._accumulate_product(accs[i + j], pa.terms, pb.terms)
        return [MPoly._from_raw(acc) for acc in accs]

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        out = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c: Coeffish) -> "MPoly":
        g = GaussianRational.coerce(c)
        if g.is_zero:
            return MPoly()
        if not g.im:
            gr = g.re
            return MPoly._make({e: GaussianRational(v.re * gr, v.im * gr) for e, v in self.terms.items()})
        return MPoly._make({e: v * g for e, v in self.terms.items()})

    # -- calculus and substitution ------------------------------------------

    def derivative(self, var: str) -> "MPoly":
        s = _SHIFTS.get(var)
        if s is None:
            return MPoly()
        out: Terms = {}
        for key, c in self.terms.items():
            e = key >> s & _EXP_MASK
            if e:
                out[key - (1 << s)] = GaussianRational(c.re * e, c.im * e)
        return MPoly._make(out)

    def coefficients(self, var: str) -> list["MPoly"]:
        """``[P_0, ..., P_d]`` with ``self = sum(P_e * var^e)`` and d the
        degree in ``var``; each ``P_e`` is free of ``var``."""
        if not self.terms:
            return []
        s = _SHIFTS.get(var)
        if s is None:
            return [self]
        by_exp: Dict[int, Terms] = {}
        for key, c in self.terms.items():
            e = key >> s & _EXP_MASK
            by_exp.setdefault(e, {})[key - (e << s)] = c
        return [MPoly._make(by_exp.get(e, {})) for e in range(max(by_exp) + 1)]

    def compose(self, var: str, replacement: "MPoly") -> "MPoly":
        """Substitute a polynomial for one variable."""
        s = _SHIFTS.get(var)
        if s is None or not any(k >> s & _EXP_MASK for k in self.terms):
            return self
        # Horner in the replacement
        out = MPoly()
        for pe in reversed(self.coefficients(var)):
            out = out * replacement
            if pe.terms:
                out = out + pe
        return out

    def eval_complex(self, values: Mapping[str, complex]) -> complex:
        table = self._table()
        missing = [v for v, _ in table if v not in values]
        if missing:
            raise ValueError(f"unassigned variables: {missing}")
        total = 0j
        for key, c in self.terms.items():
            term = complex(c)
            for v, s in table:
                e = key >> s & _EXP_MASK
                if e:
                    term *= complex(values[v]) ** e
            total += term
        return total

    # -- normalization helpers ----------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content over all coefficient components."""
        return _content(self.terms.values())

    def leading_coefficient(self) -> GaussianRational:
        """Coefficient of the graded-lex leading monomial (canonical var order)."""
        if self.is_zero:
            return ZERO
        return max(self._exponent_terms(), key=lambda kv: (sum(kv[0]), kv[0]))[1]

    @staticmethod
    def _common_key(polys: Iterable["MPoly"]) -> int:
        """The key of the largest monomial dividing every term of ``polys``,
        their per-slot minimum; 0 when there is no term."""
        common = None
        for p in polys:
            for key in p.terms:
                common = key if common is None else _slot_min(common, key)
                if not common:
                    return 0
        return common or 0

    def _divide_key(self, m: int) -> "MPoly":
        """Divide by the monomial with key m, which must divide every term."""
        return MPoly._make({k - m: c for k, c in self.terms.items()})

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("MPoly is not hashable")

    def sorted_terms(self) -> list[tuple[Exponents, GaussianRational]]:
        return sorted(self._exponent_terms(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = self.used_vars()
        pieces = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(names, exps) if e
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
