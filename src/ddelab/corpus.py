"""Equation corpus: JSON batches of equations with optional analysis requests.

A corpus is a JSON object {"schema_version": 1, "entries": [...]}.  Each
entry has an ``id``, a ``class``, an optional ``note``, the class's
coefficient expressions in the exact rational grammar (log-deriv: ``a``,
``p``, ``q_factors``, ``q_residual``; pure-log-deriv: ``a``, ``b``;
inverse-square: ``a``, ``b``, ``c``), and optionally the requests below.
Expressions stay strings so corpora remain diffable and writable by hand.
Everything, requests included, is converted and checked when the corpus
loads, before any analysis starts.  The requests, by ``kind``:

    cascade (any class; every entry)  steps, order, seed
    verify elliptic (inverse-square)  samples, g2, g3, omega
    verify exponential (pure-log-deriv)  samples, p, C
    verify mkdv (inverse-square)  samples
    nev elliptic (inverse-square)  r_min, r_max, radii, g2, g3, omega
    nev exponential (pure-log-deriv)  r_min, r_max, radii, p, C

Fields, with defaults in brackets: ``steps`` an integer from 1 to 4, and
from 3 on an inverse-square entry, whose confinement verdict reads the cascade
at offsets 1 to 3 [3]; ``order`` an integer from 1 to 3 [1]; ``seed``
"zero-of-w" or "pole-of-w", and "zero-of-w" on an inverse-square entry
["zero-of-w"]: a pole of w recurs every other step there (orders 0, -p, 0,
...), so offset 3 is regular and the verdict would read a chain that closes.
No run reads ``seed``, since the class fixes it: a zero of w on an
inverse-square entry, a pole (``polynomial_blowup``) on a log-deriv one.  It
stays, validated as above, because the workload corpora write it and the demo
corpus text that ``config_hash`` reads carries it.  ``samples`` an integer
from 1 to 10000 [100]; ``p`` a nonzero integer at most 64 in absolute value [1];
``C``, ``g2``, ``g3`` and ``omega`` a finite number or an [re, im] pair of
finite numbers, ``C`` also nonzero [C: 1; the others required]; ``r_min`` <
``r_max`` positive finite numbers [1, 16]; ``radii`` an integer from 2 to 500
[24].  The caps on ``steps``, ``order``, ``samples`` and ``radii`` bound the
work of one request, and the cap on ``p`` the error of the exponential
verifier, which grows with |p|; 64 is the range ``classify`` searches for p.
``_REQUESTS`` gives the reason for each.  The multiplicities of ``q_factors``
sum to at most 64, which bounds the expansion of the denominator at load, and
``p`` and ``q_residual`` hold at most 65 coefficients each, which bounds the
degrees in ``classify``'s common-root test but not the cost of its gcd
(``_MAX_DEGREE`` gives the times).  An error names its entry by ``id``, or by
position when the ``id`` itself is wrong.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Mapping, Sequence
from importlib import resources
from typing import Any, Callable, Dict, Tuple

from .exprparse import ParseError, parse_expression
from .fieldelem import FieldElem
from .model import (
    DelayDiffEq,
    EqKind,
    EquationError,
    make_inverse_square,
    make_log_deriv,
    make_pure_log_deriv,
)
from .record import ReadOnly

SCHEMA_VERSION = 1

_DEMO_RESOURCE = "demo_corpus.json"


class CorpusError(ValueError):
    """A corpus file or entry does not match the schema."""


_CLASS_TAGS = {kind.value: kind for kind in EqKind}

_CLASS_FIELDS = {
    EqKind.LOG_DERIV: {"a", "p", "q_factors", "q_residual"},
    EqKind.PURE_LOG_DERIV: {"a", "b"},
    EqKind.INVERSE_SQUARE: {"a", "b", "c"},
}

# the load expands the factored denominator Q in w: two factors took 0.05 s at degree 64, 0.4 s
# at 128 and 3.5 s at 512, and multiplicities of 10^6 stalled the load.  classify runs Euclid on
# P and the residual, so each holds at most 65 coefficients: P of 65 "1"s took 3.4 s beside
# w^2 + w + z and 490 s beside w^2/(z+2) + w/3 + z.  The cap bounds n, not that cost
_MAX_DEGREE = 64


def _is_number(value: Any) -> bool:
    # JSON true/false decode to bool, which is an int subclass
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value: Any) -> complex:
    # json reads NaN and Infinity as floats
    if _is_number(value):
        z = complex(value)
    elif (
        isinstance(value, Sequence)
        and not isinstance(value, str)
        and len(value) == 2
        and all(_is_number(x) for x in value)
    ):
        z = complex(value[0], value[1])
    else:
        raise ValueError(f"expected a number or [re, im] pair, got {value!r}")
    if not cmath.isfinite(z):
        raise ValueError(f"must be finite, got {value!r}")
    return z


def _as_nonzero_complex(value: Any) -> complex:
    z = _as_complex(value)
    if z == 0:
        raise ValueError(f"must be nonzero, got {value!r}")
    return z


def _as_int(*rules: Tuple[str, Callable[[int], bool]]) -> Callable[[Any], int]:
    def convert(value: Any) -> int:
        if not (_is_number(value) and isinstance(value, int)):
            raise ValueError(f"expected an integer, got {value!r}")
        for rule, ok in rules:
            if not ok(value):
                raise ValueError(f"must be {rule}, got {value!r}")
        return value
    return convert


def _as_radius(value: Any) -> float:
    if not _is_number(value):
        raise ValueError(f"expected a number, got {value!r}")
    radius = float(value)
    if not 0 < radius < math.inf:
        raise ValueError(f"must be positive and finite, got {value!r}")
    return radius


def _as_seed(value: Any) -> str:
    seeds = ["zero-of-w", "pole-of-w"]
    if value not in seeds:
        raise ValueError(f"expected one of {seeds}, got {value!r}")
    return value


_POSITIVE = ("at least 1", lambda n: n >= 1)
# samples sets the size of one p batch (3 points a sample); the slowest demo
# verify takes 0.2 s at 10000 samples
_SAMPLES = {"samples": (_as_int(_POSITIVE, ("at most 10000", lambda n: n <= 10_000)), 100)}
_LATTICE = {"g2": (_as_complex, None), "g3": (_as_complex, None), "omega": (_as_complex, None)}
# the exponential verifier's residual grows about as 2e-13 |p| at C = 1: it passes at p = 100
# and fails its 1e-10 tolerance at 1000, and 10^400 overflowed a float; 64 is classify's range
_P = _as_int(("nonzero", lambda n: n != 0),
             ("at most 64 in absolute value", lambda n: abs(n) <= 64))
_FAMILY = {"p": (_P, 1), "C": (_as_nonzero_complex, 1 + 0j)}
_GRID = {
    "r_min": (_as_radius, 1.0),
    "r_max": (_as_radius, 16.0),
    # one proximity quadrature a radius; the demo's elliptic table takes 0.5 s at 500
    "radii": (_as_int(("at least 2", lambda n: n >= 2), ("at most 500", lambda n: n <= 500)), 24),
}

# request -> kind -> (entry class the kind needs, or None for any;
# {field: (converter, default)}).  A default of None marks a required field,
# and any other is stored as it stands, so it is already a converted value;
# the kind None, a request without a ``kind`` field.
_REQUESTS = {
    "cascade": {None: (None, {
        # the demo's slowest cascade (confined-affine) takes 0.05 s at 4 steps, over 100 s at 5
        "steps": (_as_int(_POSITIVE, ("at most 4", lambda n: n <= 4)), 3),
        # the seed's order, and polynomial_blowup's q: the whole demo cascade takes 0.15 s at
        # order 3 and 2.2 s at 4, and did not finish in 60 s at 8
        "order": (_as_int(_POSITIVE, ("at most 3", lambda n: n <= 3)), 1),
        "seed": (_as_seed, "zero-of-w"),
    })},
    "verify": {
        "elliptic": (EqKind.INVERSE_SQUARE, {**_SAMPLES, **_LATTICE}),
        "exponential": (EqKind.PURE_LOG_DERIV, {**_SAMPLES, **_FAMILY}),
        "mkdv": (EqKind.INVERSE_SQUARE, _SAMPLES),
    },
    "nev": {
        "elliptic": (EqKind.INVERSE_SQUARE, {**_GRID, **_LATTICE}),
        "exponential": (EqKind.PURE_LOG_DERIV, {**_GRID, **_FAMILY}),
    },
}


# class -> every field an entry of that class may carry
_FIELDS = {kind: {"id", "class", "note", *_REQUESTS, *fields}
           for kind, fields in _CLASS_FIELDS.items()}


class CorpusEntry(ReadOnly):
    """One validated corpus row: the parsed equation and its requests.

    ``requests`` maps each request the entry carries, and always ``cascade``,
    to its converted fields, defaults filled in.
    """

    __slots__ = ("id", "eq", "requests")

    def __init__(self, id: str, eq: DelayDiffEq, requests: Mapping[str, Mapping[str, Any]]):
        self._set(id=id, eq=eq, requests=requests)


def parse_equation(raw: Mapping[str, Any],
                   parsed: Dict[str, FieldElem] | None = None) -> DelayDiffEq:
    """Exact equation from one corpus entry mapping.

    ``parsed`` maps expression texts to their parsed values: a text found
    there is not parsed again, and one parsed here is added.
    """
    entry_id = raw.get("id", "<missing id>")
    if parsed is None:
        parsed = {}

    def expr(name: str, text: Any) -> FieldElem:
        if not isinstance(text, str):
            raise CorpusError(f"entry {entry_id!r}: field {name!r} must be an expression string")
        value = parsed.get(text)
        if value is None:
            try:
                value = parsed[text] = parse_expression(text)
            except ParseError as exc:
                raise CorpusError(f"entry {entry_id!r}: field {name!r}: {exc}") from exc
        return value

    tag = raw.get("class")
    kind = _CLASS_TAGS.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise CorpusError(
            f"entry {entry_id!r}: unknown class {tag!r}; expected one of "
            f"{sorted(_CLASS_TAGS)}"
        )
    required = ("a", "p", "q_factors") if kind == EqKind.LOG_DERIV else ("a", "b")
    missing = [f for f in required if f not in raw]
    if missing:
        raise CorpusError(f"entry {entry_id!r}: missing fields {missing}")
    try:
        if kind == EqKind.LOG_DERIV:
            a = expr("a", raw["a"])
            p_field = raw["p"]
            if (not isinstance(p_field, Sequence) or isinstance(p_field, str) or not p_field
                    or len(p_field) > _MAX_DEGREE + 1):
                raise CorpusError(
                    f"entry {entry_id!r}: 'p' must be a nonempty list of at most "
                    f"{_MAX_DEGREE + 1} coefficient expressions, constant term first"
                )
            p_poly = tuple(expr(f"p[{i}]", c) for i, c in enumerate(p_field))
            factors = []
            q_field = raw["q_factors"]
            if not isinstance(q_field, Sequence) or isinstance(q_field, str):
                raise CorpusError(f"entry {entry_id!r}: 'q_factors' must be a list")
            for i, item in enumerate(q_field):
                if not (isinstance(item, Mapping) and {"root"} <= set(item) <= {"root", "mult"}):
                    raise CorpusError(f"entry {entry_id!r}: q_factors[{i}] must be {{root, mult}}")
                mult = item.get("mult", 1)
                room = _MAX_DEGREE - sum(m for _, m in factors)
                if not (_is_number(mult) and isinstance(mult, int) and 0 < mult <= room):
                    raise CorpusError(
                        f"entry {entry_id!r}: q_factors[{i}].mult must be a positive integer, "
                        f"and the multiplicities at most {_MAX_DEGREE} in all, got {mult!r}"
                    )
                root = expr(f"q_factors[{i}].root", item["root"])
                if any(root == r for r, _ in factors):
                    raise CorpusError(f"entry {entry_id!r}: field 'q_factors[{i}].root': "
                                      "repeats the root of an earlier factor")
                factors.append((root, mult))
            residual = None
            if raw.get("q_residual") is not None:
                res_field = raw["q_residual"]
                if (not isinstance(res_field, Sequence) or isinstance(res_field, str)
                        or len(res_field) > _MAX_DEGREE + 1):
                    raise CorpusError(f"entry {entry_id!r}: 'q_residual' must be a list of at "
                                      f"most {_MAX_DEGREE + 1} coefficient expressions")
                residual = tuple(expr(f"q_residual[{i}]", c) for i, c in enumerate(res_field))
            return make_log_deriv(a, p_poly, tuple(factors), residual)
        if kind == EqKind.PURE_LOG_DERIV:
            return make_pure_log_deriv(a=expr("a", raw["a"]), b=expr("b", raw["b"]))
        return make_inverse_square(
            a=expr("a", raw["a"]), b=expr("b", raw["b"]), c=expr("c", raw.get("c", "0"))
        )
    except EquationError as exc:
        # a log-deriv entry can fail only on its denominator
        fields = "fields 'q_factors', 'q_residual': " if kind == EqKind.LOG_DERIV else ""
        raise CorpusError(f"entry {entry_id!r}: {fields}{exc}") from exc


def _request(entry_id: str, eq_kind: EqKind, name: str, raw: Any) -> Dict[str, Any]:
    """Converted fields of one request, defaults filled in."""
    entry = f"entry {entry_id!r}"
    if not isinstance(raw, Mapping):
        raise CorpusError(f"{entry}: {name!r} request must be an object")
    kinds = _REQUESTS[name]
    kind = None if None in kinds else raw.get("kind")
    if kind not in tuple(kinds):  # by equality: a JSON kind may be a list
        raise CorpusError(f"{entry}: field '{name}.kind': expected one of {sorted(kinds)}, "
                          f"got {kind!r}")
    needs, fields = kinds[kind]
    if needs not in (None, eq_kind):
        raise CorpusError(f"{entry}: field '{name}.kind': {kind!r} needs a {needs.value} "
                          f"entry, not {eq_kind.value}")
    out: Dict[str, Any] = {} if kind is None else {"kind": kind}
    unknown = set(raw) - set(fields) - set(out)
    if unknown:
        raise CorpusError(f"{entry}: {name!r} request: unknown fields {sorted(unknown)}")
    for key, (convert, default) in fields.items():
        if key not in raw:
            if default is None:
                raise CorpusError(f"{entry}: field '{name}.{key}' is required")
            out[key] = default
            continue
        try:
            out[key] = convert(raw[key])
        except (ValueError, OverflowError) as exc:
            raise CorpusError(f"{entry}: field '{name}.{key}': {exc}") from exc
    # the one range that spans two fields
    if "r_min" in out and out["r_min"] >= out["r_max"]:
        raise CorpusError(f"{entry}: field '{name}.r_min': must be below r_max = "
                          f"{out['r_max']!r}, got {out['r_min']!r}")
    # the ranges that depend on the class: the confinement verdict of an
    # inverse-square cascade reads the entries at offsets 1 to 3, and follows a
    # zero of w; a pole of w recurs every other step (orders 0, -p, 0, ...), so
    # offset 3 would be regular and read as a chain that closes
    if name == "cascade" and eq_kind == EqKind.INVERSE_SQUARE:
        if out["steps"] < 3:
            raise CorpusError(f"{entry}: field 'cascade.steps': must be at least 3 on an "
                              f"inverse-square entry, got {out['steps']!r}")
        if out["seed"] != "zero-of-w":
            raise CorpusError(f"{entry}: field 'cascade.seed': must be 'zero-of-w' on an "
                              f"inverse-square entry, got {out['seed']!r}")
    return out


def _validate_entry(raw: Any, parsed: Dict[str, FieldElem], position: int) -> CorpusEntry:
    if not isinstance(raw, Mapping):
        raise CorpusError(f"entry {position}: must be a JSON object")
    entry_id = raw.get("id")
    if not isinstance(entry_id, str) or not entry_id:
        raise CorpusError(f"entry {position}: field 'id' must be a nonempty string")
    eq = parse_equation(raw, parsed)
    unknown = raw.keys() - _FIELDS[eq.kind]
    if unknown:
        raise CorpusError(f"entry {entry_id!r}: unknown fields {sorted(unknown)}")
    requests = {
        name: _request(entry_id, eq.kind, name, raw.get(name, {}))
        for name in _REQUESTS if name in raw or name == "cascade"
    }
    return CorpusEntry(entry_id, eq, requests)


def load_corpus(text: str) -> Tuple[CorpusEntry, ...]:
    """Validate a corpus from its JSON text.

    Each distinct expression text is parsed once per call, and entries that
    repeat a text share its value (a ``FieldElem`` is immutable).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, nesting, or an integer too long
        raise CorpusError(f"corpus is not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise CorpusError("corpus document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CorpusError(
            f"corpus schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    entries_field = doc.get("entries")
    if not isinstance(entries_field, Sequence) or isinstance(entries_field, str):
        raise CorpusError("corpus 'entries' must be a list")
    entries: Dict[str, CorpusEntry] = {}
    parsed: Dict[str, FieldElem] = {}
    for position, raw in enumerate(entries_field):
        entry = _validate_entry(raw, parsed, position)
        if entry.id in entries:
            raise CorpusError(f"duplicate entry id {entry.id!r}")
        entries[entry.id] = entry
    return tuple(entries.values())


def demo_corpus_text() -> str:
    """Raw JSON text of the built-in demonstration corpus."""
    return resources.files(__package__).joinpath("data", _DEMO_RESOURCE).read_text()


def load_demo_corpus() -> Tuple[CorpusEntry, ...]:
    return load_corpus(demo_corpus_text())
