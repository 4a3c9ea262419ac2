"""The request schema: converted fields and defaults, and every benchmark corpus loads."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ddelab import cli
from ddelab.corpus import (
    CorpusError,
    demo_corpus_text,
    load_corpus,
    load_demo_corpus,
    parse_equation,
)
from ddelab.exprparse import parse_expression

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_requests_are_converted_with_defaults_filled_in():
    requests = {e.id: e.requests for e in load_demo_corpus()}
    assert requests["confined-basic"] == {
        "cascade": {"steps": 3, "order": 1, "seed": "zero-of-w"},
        "verify": {"kind": "elliptic", "samples": 100,
                   "g2": 4 + 0j, "g3": 1 + 0j, "omega": 0.37 + 0.11j},
        "nev": {"kind": "elliptic", "r_min": 1.0, "r_max": 16.0, "radii": 24,
                "g2": 4 + 0j, "g3": 1 + 0j, "omega": 1 + 0.3j},
    }
    assert requests["polynomial-blowup-quartic"] == {
        "cascade": {"steps": 3, "order": 1, "seed": "pole-of-w"},
    }
    # an entry without requests still carries the cascade defaults
    assert requests["branch-first"] == {
        "cascade": {"steps": 3, "order": 1, "seed": "zero-of-w"},
    }
    assert requests["confined-drifting"]["verify"] == {"kind": "mkdv", "samples": 100}


def test_omitted_request_fields_take_their_defaults():
    entry = json.loads(demo_corpus_text())["entries"][1]
    entry["verify"] = {"kind": "exponential"}
    entry["nev"] = {"kind": "exponential"}
    [loaded] = load_corpus(json.dumps({"schema_version": 1, "entries": [entry]}))
    assert loaded.requests["verify"] == {"kind": "exponential", "samples": 100, "p": 1,
                                         "C": 1 + 0j}
    assert loaded.requests["nev"] == {"kind": "exponential", "r_min": 1.0, "r_max": 16.0,
                                      "radii": 24, "p": 1, "C": 1 + 0j}
    assert all(type(v) is float for k, v in loaded.requests["nev"].items() if k[:2] == "r_")


def test_request_counts_load_at_their_caps():
    entry = json.loads(demo_corpus_text())["entries"][2]  # confined-basic
    caps = {("cascade", "steps"): 4, ("cascade", "order"): 3, ("verify", "samples"): 10_000,
            ("nev", "radii"): 500}
    for (sub, field), cap in caps.items():
        entry[sub][field] = cap
    [loaded] = load_corpus(json.dumps({"schema_version": 1, "entries": [entry]}))
    assert {(sub, field): loaded.requests[sub][field] for sub, field in caps} == caps


@pytest.mark.parametrize("seed", range(30))
def test_every_benchmark_corpus_loads(seed):
    # a load-time check that rejected a benchmark corpus would fail every operation
    for workload in _workloads().values():
        doc, expect = workload.generate(seed)
        entries = load_corpus(json.dumps(doc))
        assert [e.id for e in entries] == [raw["id"] for raw in doc["entries"]]
        for entry in entries:
            assert set(entry.requests) - {"cascade"} <= set(expect[entry.id])


def _corpus_text(entries):
    return json.dumps({"schema_version": 1, "entries": entries})


def test_each_distinct_expression_is_parsed_once(monkeypatch):
    import ddelab.corpus as corpus

    entries = [
        {"id": "e1", "class": "inverse-square", "a": "1 + z", "b": "z", "c": "0"},
        {"id": "e2", "class": "inverse-square", "a": "1 + z", "b": "2*z - 1"},
        {"id": "e3", "class": "pure-log-deriv", "a": "z", "b": "1 + z"},
        {"id": "e4", "class": "log-deriv", "a": "z", "p": ["0", "1", "z"],
         "q_factors": [{"root": "1"}, {"root": "z", "mult": 2}], "q_residual": ["1", "0"]},
    ]
    distinct = {"1 + z", "z", "0", "2*z - 1", "1"}
    calls = []

    def counted(text, *args):
        calls.append(text)
        return parse_expression(text, *args)

    monkeypatch.setattr(corpus, "parse_expression", counted)
    loaded = load_corpus(_corpus_text(entries))
    assert sorted(calls) == sorted(distinct)
    # the shared values build the same equations as parsing each entry alone
    assert [e.eq for e in loaded] == [parse_equation(raw) for raw in entries]


def test_a_repeated_malformed_expression_names_its_first_carrier():
    entries = [
        {"id": "ok", "class": "inverse-square", "a": "1 + z", "b": "z"},
        {"id": "first", "class": "inverse-square", "a": "z", "b": "z +* 1"},
        {"id": "second", "class": "inverse-square", "a": "z +* 1", "b": "z"},
    ]
    with pytest.raises(CorpusError, match=r"^entry 'first': field 'b': unexpected '\*'"):
        load_corpus(_corpus_text(entries))


def _cascade_run(tmp_path, entry_id, **request):
    doc = json.loads(demo_corpus_text())
    entry = next(e for e in doc["entries"] if e["id"] == entry_id)
    entry.setdefault("cascade", {}).update(request)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    return cli.run(["cascade", "--corpus", str(path), "--format", "json",
                    "--out", str(tmp_path / "out.json")])


@pytest.mark.parametrize("steps", [1, 2])
def test_an_inverse_square_cascade_needs_three_steps_at_load(tmp_path, capsys, steps):
    # the confinement verdict reads offsets 1 to 3; with fewer steps the row
    # once failed in the analysis with a traceback and exit 1
    assert _cascade_run(tmp_path, "confined-basic", steps=steps) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: entry 'confined-basic': field 'cascade.steps': must be at least 3 on an "
        f"inverse-square entry, got {steps}\n"
    )


@pytest.mark.parametrize("steps", [1, 2])
def test_a_log_deriv_cascade_runs_below_three_steps(tmp_path, steps):
    assert _cascade_run(tmp_path, "polynomial-blowup-quartic", steps=steps) == cli.EXIT_OK
    rows = json.loads((tmp_path / "out.json").read_text())["entries"]
    row = next(r for r in rows if r["id"] == "polynomial-blowup-quartic")
    assert row["pole_orders"] == [4, 16, 64][:steps]


def test_an_inverse_square_cascade_needs_a_zero_seed_at_load(tmp_path, capsys):
    # a pole of w recurs every other step (orders 0, -1, 0, -1 here), and the
    # verdict once read the regular offset 3 as a chain that closes: "confined"
    # with witness 0, where classify says violates-necessary-condition
    assert _cascade_run(tmp_path, "confined-broken-tail", seed="pole-of-w") == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: entry 'confined-broken-tail': field 'cascade.seed': must be 'zero-of-w' on "
        "an inverse-square entry, got 'pole-of-w'\n"
    )


@pytest.mark.parametrize("seed", ["zero-of-w", "pole-of-w"])
def test_a_log_deriv_cascade_does_not_read_the_seed(tmp_path, seed):
    # polynomial_blowup always seeds a pole
    assert _cascade_run(tmp_path, "polynomial-blowup-quartic", seed=seed) == cli.EXIT_OK
    rows = json.loads((tmp_path / "out.json").read_text())["entries"]
    row = next(r for r in rows if r["id"] == "polynomial-blowup-quartic")
    assert row["pole_orders"] == [4, 16, 64]
