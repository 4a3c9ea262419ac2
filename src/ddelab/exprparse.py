"""Recursive-descent parser for exact rational-function expressions.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' exponent)*
    atom    := INTEGER | 'i' | NAME | '(' expr ')'
    exponent:= ['-'] INTEGER

INTEGER is a run of Unicode decimal digits (regex ``\\d``), exactly the digits
``int()`` reads; NAME is a letter or ``_`` followed by letters, digits and
``_``.  Rationals are written as quotients (``3/4``), which the general
division rule handles.  ``i`` is the imaginary unit and ``z`` the one
variable; any other NAME is an unknown symbol.  Any error carries a 1-based
line and column.  Limits bound the work of one text, each a ``ParseError`` at
the token that passes it: parentheses and unary minus signs nest at most 100
deep; an INTEGER has at most 8192 bits; a power x^n needs |n| * (total degree
of x) <= 64 and |n| * (bit length of x's largest numerator or denominator)
<= 8192; and the result of every ``+``, ``-``, ``*`` and ``/`` has total
degree <= 64 and bit length <= 8192 in the same sense.  ``_size`` reads both
in one pass over a value's terms: ``z`` is the one variable, so a packed key
is z's exponent in z's slot, and the largest key gives the total degree.

Numbers are folded while parsing, and polynomials stay in the ring: a value
stays a ``GaussianRational`` until it meets a variable, then an ``MPoly`` until
it is divided by a non-number, raised to a negative power or meets a
``FieldElem``; there it is lifted and the ``FieldElem`` operator runs.  An
``MPoly`` step is the one that the ``FieldElem`` polynomial fast path takes,
except that a product or quotient by a number scales each term: the product
by a one-term constant gives that term map, and the quotient the one that
``FieldElem``'s normal form gives.
The result is therefore the same as unfolded parsing, down to every term map
of the result.
"""

from __future__ import annotations

import math
import operator
import re
from typing import List, Tuple, Union

from .fieldelem import FieldElem
from .gaussian import I, ONE, GaussianRational
from .mpoly import MPoly, _shift

Value = Union[GaussianRational, MPoly, FieldElem]
# kind (INT, NAME, OP, END), text, offset; only an OP's text is punctuation,
# so the parser tells operators apart by text alone
Token = Tuple[str, str, int]

# leading whitespace is skipped; BAD catches any other character
_TOKEN = re.compile(
    r"\s*(?:(?P<INT>\d+)|(?P<NAME>\w+)|(?P<OP>[-+*/^()])|(?P<END>\Z)|(?P<BAD>.))"
)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_MAX_DEPTH, _MAX_DEGREE, _MAX_BITS = 100, 64, 8192
_Z = MPoly.var("z")  # an MPoly is never changed after it is built, so every z shares one


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _error(message: str, text: str, offset: int) -> ParseError:
    start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - start + 1)


def _tokenize(text: str) -> List[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m[kind]
        # a NAME must start with a letter or '_'; \w also admits numerals such as '²'
        if kind == "BAD" or kind == "NAME" and not (tok[0].isalpha() or tok[0] == "_"):
            raise _error(f"unexpected character {tok[0]!r}", text, m.start(kind))
        if kind == "INT" and len(tok) * math.log2(10) > _MAX_BITS:
            raise _error(f"integer beyond {_MAX_BITS} bits", text, m.start(kind))
        tokens.append((kind, tok, m.start(kind)))
    return tokens


def _lift(x: Value) -> FieldElem:
    if type(x) is GaussianRational:
        return FieldElem.const(x)
    return FieldElem(x) if type(x) is MPoly else x


def _size(value: Value) -> Tuple[int, int]:
    """Total degree, and bit length of the largest numerator or denominator."""
    if type(value) is GaussianRational:
        items = ((0, value),)
    elif type(value) is MPoly:
        items = value.terms.items()
    else:
        items = [*value.num.terms.items(), *value.den.terms.items()]
    key = top = 0
    for k, c in items:
        re, im = c.re, c.im
        if k > key:
            key = k
        top = max(top, abs(re.numerator), re.denominator, abs(im.numerator), im.denominator)
    return key >> _shift("z"), top.bit_length()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def error(self, message: str, tok: Token) -> ParseError:
        return _error(message, self.text, tok[2])

    def parse(self) -> FieldElem:
        value = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            raise self.error(f"unexpected {tok[1]!r}", tok)
        return _lift(value)

    def expr(self) -> Value:
        value = self.term()
        while True:
            tok = self.tokens[self.pos]
            if tok[1] not in ("+", "-"):
                return value
            self.pos += 1
            value = self.apply(tok, value, self.term())

    def term(self) -> Value:
        value = self.factor()
        while True:
            tok = self.tokens[self.pos]
            if tok[1] not in ("*", "/"):
                return value
            self.pos += 1
            rhs = self.factor()
            if tok[1] == "/" and rhs.is_zero:
                raise self.error("division by zero", tok)
            value = self.apply(tok, value, rhs)

    def apply(self, tok: Token, lhs: Value, rhs: Value) -> Value:
        """``lhs op rhs`` for the operator token: in Q(i) while both are numbers,
        in the ring while neither is a ``FieldElem`` and no divisor has a
        variable, and in ``FieldElem`` otherwise (module docstring)."""
        op, left, right = tok[1], type(lhs), type(rhs)
        if FieldElem in (left, right) or op == "/" and right is MPoly and not rhs.is_constant():
            value = _BINARY[op](_lift(lhs), _lift(rhs))
        elif op == "*" and left is not right:  # no FieldElem: a number times a polynomial
            value = rhs.scale(lhs) if left is GaussianRational else lhs.scale(rhs)
        elif MPoly in (left, right):
            lhs = MPoly.const(lhs) if left is GaussianRational else lhs
            if op == "/":
                c = rhs.constant_value() if right is MPoly else rhs
                value = lhs if c == ONE else lhs.scale(c.inverse())
            else:
                value = _BINARY[op](lhs, rhs)
        else:
            value = _BINARY[op](lhs, rhs)
        degree, bits = _size(value)
        if degree > _MAX_DEGREE or bits > _MAX_BITS:
            raise self.error(f"result beyond degree {_MAX_DEGREE} or {_MAX_BITS} bits", tok)
        return value

    def factor(self) -> Value:
        # each '(' and unary '-' starts a factor: the open factors count the nesting
        tok = self.tokens[self.pos]
        if self.depth == _MAX_DEPTH and tok[1] in ("(", "-"):
            raise self.error(f"nested deeper than {_MAX_DEPTH}", tok)
        self.depth += 1
        if tok[1] == "-":
            self.pos += 1
            value = -self.factor()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> Value:
        value = self.atom()
        while self.tokens[self.pos][1] == "^":
            tok = self.tokens[self.pos]
            self.pos += 1
            n = self.exponent()
            if n < 0 and value.is_zero:
                raise self.error("zero raised to a negative power", tok)
            degree, bits = _size(value)
            if abs(n) * degree > _MAX_DEGREE or abs(n) * bits > _MAX_BITS:
                raise self.error(f"power beyond degree {_MAX_DEGREE} or {_MAX_BITS} bits", tok)
            if n < 0 and type(value) is MPoly:
                value = _lift(value)
            value = value ** n
        return value

    def exponent(self) -> int:
        sign = 1
        if self.tokens[self.pos][1] == "-":
            self.pos += 1
            sign = -1
        kind, text, _ = tok = self.tokens[self.pos]
        if kind != "INT":
            raise self.error("expected an integer exponent", tok)
        self.pos += 1
        return sign * int(text)

    def atom(self) -> Value:
        kind, text, _ = tok = self.tokens[self.pos]
        self.pos += 1
        if kind == "INT":
            return GaussianRational(int(text))
        if kind == "NAME":
            if text == "i":
                return I
            if text == "z":
                return _Z
            raise self.error(f"unknown symbol {text!r}", tok)
        if text == "(":
            value = self.expr()
            if self.tokens[self.pos][1] != ")":
                raise self.error("expected ')'", self.tokens[self.pos])
            self.pos += 1
            return value
        raise self.error(f"unexpected {text or 'end of input'!r}", tok)


def parse_expression(text: str) -> FieldElem:
    """Parse an exact rational expression into a FieldElem."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}", 1, 1)
    return _Parser(text).parse()
