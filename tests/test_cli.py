"""Checks for the batch front-end's handling of entries that fail."""

import json

import pytest

from ddelab import cli
from ddelab.corpus import demo_corpus_text


def test_one_failing_entry_does_not_abort_the_batch(monkeypatch, tmp_path, capsys):
    ids = [entry["id"] for entry in json.loads(demo_corpus_text())["entries"]]
    victim = ids[1]
    real = cli._RUNNERS["classify"]

    def runner(entry, args):
        if entry.id == victim:
            return 1 / 0
        return real(entry, args)

    monkeypatch.setitem(cli._RUNNERS, "classify", runner)
    out = tmp_path / "report.json"
    code = cli.run(["classify", "--format", "json", "--out", str(out)])
    assert code == cli.EXIT_ANALYSIS_FAIL
    err = capsys.readouterr().err
    assert f"entry {victim!r} failed:" in err and "ZeroDivisionError" in err
    rows = json.loads(out.read_text())["entries"]
    assert [row["id"] for row in rows] == ids
    failed = [row for row in rows if "error" in row]
    assert failed == [
        {"id": victim, "error": "division by zero", "error_type": "ZeroDivisionError"}
    ]
    assert all("verdict" in row for row in rows if row["id"] != victim)


def test_text_report_names_the_error_type(monkeypatch, capsys):
    def runner(entry, args):
        raise ArithmeticError("sampling failed to avoid the singular set")

    monkeypatch.setitem(cli._RUNNERS, "verify", runner)
    code = cli.run(["verify", "--entry", "confined-basic"])
    assert code == cli.EXIT_ANALYSIS_FAIL
    text = capsys.readouterr().out
    assert "ERROR (ArithmeticError): sampling failed" in text
    assert text.rstrip().endswith("1 entries, 1 failed")


def test_window_width_is_not_an_input(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.run(["classify", "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    assert "truncation" not in json.loads(out.read_text())
    assert cli.run(["cascade", "--truncation", "8"]) == cli.EXIT_USAGE
    assert "--truncation" in capsys.readouterr().err


def test_elliptic_requests_share_one_parser(tmp_path):
    ellip = {"kind": "elliptic", "g2": 4.0, "g3": 1.0, "omega": [1.0, 0.3]}
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"schema_version": 1, "entries": [{
        "id": "drifting", "class": "inverse-square", "a": "1 + z", "b": "z", "c": "0",
        "verify": dict(ellip, samples=10), "nev": ellip,
    }]}))
    errors = []
    for sub in ("verify", "nev"):
        out = tmp_path / f"{sub}.json"
        cli.run([sub, "--corpus", str(corpus), "--format", "json", "--out", str(out)])
        [row] = json.loads(out.read_text())["entries"]
        errors.append((row["error_type"], row["error"]))
    assert errors == [("RequestError", "the doubly periodic family needs both the "
                       "drift and the linear growth to vanish")] * 2


def test_boolean_request_number_is_rejected(tmp_path):
    # JSON true must not pass for the number 1: omega = 1 would run and pass
    [entry] = [e for e in json.loads(demo_corpus_text())["entries"] if e["id"] == "confined-basic"]
    corpus = tmp_path / "corpus.json"
    for omega in (True, [True, 0.0]):
        entry["verify"]["omega"] = omega
        corpus.write_text(json.dumps({"schema_version": 1, "entries": [entry]}))
        out = tmp_path / "verify.json"
        cli.run(["verify", "--corpus", str(corpus), "--format", "json", "--out", str(out)])
        [row] = json.loads(out.read_text())["entries"]
        assert (row["error_type"], row["error"]) == (
            "RequestError", f"verify.omega: expected a number or [re, im] pair, got {omega!r}"
        )



def _request_row(tmp_path, sub, entry_id, field, value):
    """The report row of one demo entry whose ``sub`` request sets field to value."""
    [entry] = [e for e in json.loads(demo_corpus_text())["entries"] if e["id"] == entry_id]
    entry[sub][field] = value
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"schema_version": 1, "entries": [entry]}))
    out = tmp_path / "report.json"
    cli.run([sub, "--corpus", str(corpus), "--format", "json", "--out", str(out)])
    [row] = json.loads(out.read_text())["entries"]
    return row


# (subcommand, demo entry, field) of every integer or real request number
_REQUEST_NUMBERS = [
    ("cascade", "confined-basic", "steps"),
    ("cascade", "confined-basic", "order"),
    ("verify", "confined-basic", "samples"),
    ("verify", "exponential-near-forcing", "p"),
    ("nev", "exponential-near-forcing", "p"),
    ("nev", "exponential-near-forcing", "r_min"),
    ("nev", "exponential-near-forcing", "r_max"),
    ("nev", "exponential-near-forcing", "radii"),
]


@pytest.mark.parametrize("form", ["true", "string"])
@pytest.mark.parametrize("sub, entry_id, field", _REQUEST_NUMBERS)
def test_request_number_must_be_a_json_number(tmp_path, sub, entry_id, field, form):
    # true would run as 1 and "5" as 5, through bare int() or float()
    [entry] = [e for e in json.loads(demo_corpus_text())["entries"] if e["id"] == entry_id]
    value = True if form == "true" else str(entry[sub][field])
    row = _request_row(tmp_path, sub, entry_id, field, value)
    expected = "a number" if field.startswith("r_") else "an integer"
    assert (row.get("error_type"), row.get("error")) == (
        "RequestError", f"{sub}.{field}: expected {expected}, got {value!r}"
    )


def test_fractional_step_count_is_rejected(tmp_path):
    # int() would cut 2.5 steps to 2
    row = _request_row(tmp_path, "cascade", "confined-basic", "steps", 2.5)
    assert row.get("error") == "cascade.steps: expected an integer, got 2.5"
