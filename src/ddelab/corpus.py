"""Equation corpus: JSON batches of equations with optional analysis requests.

A corpus is a JSON object {"schema_version": 1, "entries": [...]} where each
entry carries an id, an equation class tag, coefficient expressions in the
exact rational grammar, and optionally structured requests for cascade,
verifier, or measurement runs.  Expressions stay strings so corpora remain
diffable and writable by hand; everything is validated before any analysis
starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Dict, Mapping, Sequence, Tuple, Union

from .exprparse import ParseError, parse_expression
from .model import (
    DelayDiffEq,
    EqKind,
    EquationError,
    FactoredDenominator,
    WPoly,
    make_inverse_square,
    make_log_deriv,
    make_pure_log_deriv,
)

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

_REQUEST_FIELDS = {"cascade", "verify", "nev"}

_COMMON_FIELDS = {"id", "class", "note"}


@dataclass(frozen=True)
class CorpusEntry:
    """One validated corpus row: the parsed equation plus its requests."""

    id: str
    kind: EqKind
    eq: DelayDiffEq
    note: str = ""
    requests: Mapping[str, Any] = field(default_factory=dict)


def _expr(entry_id: str, name: str, text: Any):
    if not isinstance(text, str):
        raise CorpusError(f"entry {entry_id!r}: field {name!r} must be an expression string")
    try:
        return parse_expression(text)
    except ParseError as exc:
        raise CorpusError(f"entry {entry_id!r}: field {name!r}: {exc}") from exc


def parse_equation(raw: Mapping[str, Any]) -> DelayDiffEq:
    """Exact equation from one corpus entry mapping."""
    entry_id = raw.get("id", "<missing id>")
    tag = raw.get("class")
    kind = _CLASS_TAGS.get(tag)
    if kind is None:
        raise CorpusError(
            f"entry {entry_id!r}: unknown class {tag!r}; expected one of "
            f"{sorted(_CLASS_TAGS)}"
        )
    required = ("a", "p", "q_factors") if kind == EqKind.LOG_DERIV else ("a", "b")
    missing = [f for f in required if f not in raw]
    if missing:
        raise CorpusError(f"entry {entry_id!r}: missing fields {missing}")
    name = str(entry_id)
    try:
        if kind == EqKind.LOG_DERIV:
            a = _expr(entry_id, "a", raw["a"])
            p_field = raw["p"]
            if not isinstance(p_field, Sequence) or isinstance(p_field, str) or not p_field:
                raise CorpusError(
                    f"entry {entry_id!r}: 'p' must be a nonempty list of "
                    "coefficient expressions, constant term first"
                )
            p_poly = WPoly([_expr(entry_id, f"p[{i}]", c) for i, c in enumerate(p_field)])
            factors = []
            q_field = raw["q_factors"]
            if not isinstance(q_field, Sequence) or isinstance(q_field, str):
                raise CorpusError(f"entry {entry_id!r}: 'q_factors' must be a list")
            for i, item in enumerate(q_field):
                if not isinstance(item, Mapping) or set(item) - {"root", "mult"}:
                    raise CorpusError(
                        f"entry {entry_id!r}: q_factors[{i}] must be "
                        "{{root, mult}}"
                    )
                mult = item.get("mult", 1)
                if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                    raise CorpusError(
                        f"entry {entry_id!r}: q_factors[{i}].mult must be a "
                        "positive integer"
                    )
                factors.append((_expr(entry_id, f"q_factors[{i}].root", item["root"]), mult))
            residual = None
            if raw.get("q_residual") is not None:
                res_field = raw["q_residual"]
                if not isinstance(res_field, Sequence) or isinstance(res_field, str):
                    raise CorpusError(f"entry {entry_id!r}: 'q_residual' must be a list")
                residual = WPoly(
                    [_expr(entry_id, f"q_residual[{i}]", c) for i, c in enumerate(res_field)]
                )
            return make_log_deriv(
                a=a, p_poly=p_poly,
                q_factors=FactoredDenominator(tuple(factors), residual),
                name=name,
            )
        if kind == EqKind.PURE_LOG_DERIV:
            return make_pure_log_deriv(
                a=_expr(entry_id, "a", raw["a"]),
                b=_expr(entry_id, "b", raw["b"]),
                name=name,
            )
        return make_inverse_square(
            a=_expr(entry_id, "a", raw["a"]),
            b=_expr(entry_id, "b", raw["b"]),
            c=_expr(entry_id, "c", raw.get("c", "0")),
            name=name,
        )
    except EquationError as exc:
        raise CorpusError(f"entry {entry_id!r}: {exc}") from exc


def _validate_entry(raw: Any) -> CorpusEntry:
    if not isinstance(raw, Mapping):
        raise CorpusError("each corpus entry must be a JSON object")
    entry_id = raw.get("id")
    if not isinstance(entry_id, str) or not entry_id:
        raise CorpusError("every entry needs a nonempty string 'id'")
    tag = raw.get("class")
    kind = _CLASS_TAGS.get(tag)
    if kind is None:
        raise CorpusError(
            f"entry {entry_id!r}: unknown class {tag!r}; expected one of "
            f"{sorted(_CLASS_TAGS)}"
        )
    allowed = _COMMON_FIELDS | _REQUEST_FIELDS | _CLASS_FIELDS[kind]
    unknown = set(raw) - allowed
    if unknown:
        raise CorpusError(f"entry {entry_id!r}: unknown fields {sorted(unknown)}")
    requests = {k: raw[k] for k in _REQUEST_FIELDS if k in raw}
    for key, req in requests.items():
        if not isinstance(req, Mapping):
            raise CorpusError(f"entry {entry_id!r}: {key!r} request must be an object")
    return CorpusEntry(
        id=entry_id,
        kind=kind,
        eq=parse_equation(raw),
        note=str(raw.get("note", "")),
        requests=requests,
    )


def load_corpus(source: Union[str, Path, Mapping[str, Any]]) -> Tuple[CorpusEntry, ...]:
    """Validate a corpus from a path or an already-decoded mapping."""
    if isinstance(source, Mapping):
        doc: Any = source
    else:
        path = Path(source)
        if not path.exists():
            raise CorpusError(f"corpus file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CorpusError(f"corpus file {path} is not valid JSON: {exc}") from exc
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
    entries = tuple(_validate_entry(raw) for raw in entries_field)
    seen: Dict[str, int] = {}
    for e in entries:
        if e.id in seen:
            raise CorpusError(f"duplicate entry id {e.id!r}")
        seen[e.id] = 1
    return entries


def demo_corpus_text() -> str:
    """Raw JSON text of the built-in demonstration corpus."""
    return resources.files(__package__).joinpath("data", _DEMO_RESOURCE).read_text()


def load_demo_corpus() -> Tuple[CorpusEntry, ...]:
    return load_corpus(json.loads(demo_corpus_text()))
