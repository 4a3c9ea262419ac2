"""The record classes: their fields, defaults and constructors, and that they are read-only."""

import pytest

from ddelab.analytic import EllipticParams, VerifierReport, elliptic_params
from ddelab.cascade import PatternEntry, SeedSpec, SingularityPattern, first_seed, run_cascade
from ddelab.corpus import CorpusEntry, load_demo_corpus
from ddelab.fieldelem import FieldElem
from ddelab.model import DelayDiffEq, EqKind

_DEMO = {e.id: e for e in load_demo_corpus()}
_Z = FieldElem.var("z")


def _pattern():
    return run_cascade(_DEMO["confined-basic"].eq, first_seed(1), 1)


# each record with the fields it keeps, in constructor order
RECORDS = {
    "VerifierReport": (lambda: VerifierReport("c", {"g2": "4"}, 3, 0.5, 1.0),
                       ("check", "params", "samples", "max_residual", "tol")),
    "EllipticParams": (lambda: elliptic_params(4, 1, 0.37 + 0.11j, 1),
                       ("g2", "g3", "omega", "lam", "alpha", "sign_flipped", "engine",
                        "p_omega")),
    "SeedSpec": (lambda: SeedSpec(1, 3), ("order", "width")),
    "PatternEntry": (lambda: _pattern().entries[0],
                     ("offset", "order", "leading", "series", "certified", "note")),
    "SingularityPattern": (_pattern, ("entries",)),
    "CorpusEntry": (lambda: _DEMO["branch-first"], ("id", "eq", "requests")),
    "DelayDiffEq": (lambda: _DEMO["branch-first"].eq,
                    ("kind", "a", "b", "c", "p_poly", "q_factors", "q_residual", "q_poly")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_field_is_read_only(name):
    build, fields = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert type(record).__slots__ == fields
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_defaults_and_keyword_construction():
    series = _pattern().entries[0].series
    entry = PatternEntry(offset=0, order=1, leading=None, series=series)
    assert (entry.certified, entry.note) == (True, "")
    eq = DelayDiffEq(EqKind.INVERSE_SQUARE, a=FieldElem.const(1))
    assert eq.b.is_zero and eq.c.is_zero and eq.q_poly is None
    eq = DelayDiffEq(kind=EqKind.LOG_DERIV, a=_Z, p_poly=[_Z], q_factors=[(_Z + 1, 2)])
    assert (eq.p_poly, eq.q_factors, eq.q_residual) == ((_Z,), ((_Z + 1, 2),), None)
    assert eq.q_poly == ((_Z + 1) ** 2, -2 * (_Z + 1), FieldElem.const(1))
    corpus_entry = CorpusEntry(id="x", eq=eq, requests={})
    assert corpus_entry.id == "x" and corpus_entry.eq is eq
    report = VerifierReport(check="c", params={}, samples=2, max_residual=0.5, tol=1.0)
    assert report.passed and report.export()["samples"] == 2
    assert isinstance(elliptic_params(4, 1, 0.37 + 0.11j, 1), EllipticParams)
    assert SingularityPattern(entries=(entry,)).entry_at(0) is entry


def test_compared_records_compare_field_by_field():
    assert first_seed(-1) == SeedSpec(-1, 1) and SeedSpec(1, 2) != SeedSpec(1, 3)
    eq = _DEMO["branch-first"].eq
    again = DelayDiffEq(eq.kind, eq.a, eq.b, eq.c, list(eq.p_poly), list(eq.q_factors))
    assert again == eq and again.q_factors == eq.q_factors
    assert DelayDiffEq(eq.kind, eq.a + 1, eq.b, eq.c, eq.p_poly, eq.q_factors) != eq
    two = FieldElem.const(2)
    assert DelayDiffEq(eq.kind, eq.a, eq.b, eq.c, eq.p_poly, eq.q_factors, (two,)) != eq


def test_a_seed_subclass_keeps_the_checks_and_equality():
    class Wider(SeedSpec):
        pass

    with pytest.raises(ValueError, match=r"got SeedSpec\(order=0, width=3\)"):
        Wider(0, 3)
    assert Wider(1, 2).build(4) == SeedSpec(1, 4)
    assert Wider(1, 2) != SeedSpec(1, 2)
