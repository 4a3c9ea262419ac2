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


def _demo_entry(entry_id):
    [entry] = [e for e in json.loads(demo_corpus_text())["entries"] if e["id"] == entry_id]
    return entry


def _load_error(tmp_path, capsys, sub, corpus_text):
    """Stderr of ``sub`` on a corpus that must fail to load: exit 2, no report."""
    corpus = tmp_path / "corpus.json"
    corpus.write_text(corpus_text)
    out = tmp_path / "report.json"
    code = cli.run([sub, "--corpus", str(corpus), "--format", "json", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert not out.exists()
    return capsys.readouterr().err


def _request_error(tmp_path, capsys, sub, entry, **fields):
    """Load error of a corpus holding ``entry`` with its ``sub`` request changed.

    A field set to None is removed from the request.
    """
    request = entry.setdefault(sub, {})
    for name, value in fields.items():
        if value is None:
            request.pop(name)
        else:
            request[name] = value
    text = json.dumps({"schema_version": 1, "entries": [entry]})
    return _load_error(tmp_path, capsys, sub, text)


def test_boolean_request_number_is_rejected(tmp_path, capsys):
    # JSON true must not pass for the number 1: omega = 1 would run and pass
    for omega in (True, [True, 0.0]):
        err = _request_error(tmp_path, capsys, "verify", _demo_entry("confined-basic"), omega=omega)
        assert err == (
            "error: entry 'confined-basic': field 'verify.omega': "
            f"expected a number or [re, im] pair, got {omega!r}\n"
        )


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
def test_request_number_must_be_a_json_number(tmp_path, capsys, sub, entry_id, field, form):
    # true would run as 1 and "5" as 5, through bare int() or float()
    entry = _demo_entry(entry_id)
    value = True if form == "true" else str(entry[sub][field])
    err = _request_error(tmp_path, capsys, sub, entry, **{field: value})
    expected = "a number" if field.startswith("r_") else "an integer"
    assert err == (
        f"error: entry {entry_id!r}: field '{sub}.{field}': expected {expected}, got {value!r}\n"
    )


def test_fractional_step_count_is_rejected(tmp_path, capsys):
    # int() would cut 2.5 steps to 2
    err = _request_error(tmp_path, capsys, "cascade", _demo_entry("confined-basic"), steps=2.5)
    assert err == (
        "error: entry 'confined-basic': field 'cascade.steps': expected an integer, got 2.5\n"
    )


@pytest.mark.parametrize("sub, entry_id, field", [
    ("verify", "confined-basic", "sample"),
    ("nev", "exponential-near-forcing", "rmin"),
    ("verify", "confined-basic", "flip_scale_sign"),
    ("cascade", "confined-basic", "kind"),
])
def test_unknown_request_field_is_rejected(tmp_path, capsys, sub, entry_id, field):
    # a typo used to be ignored: "sample": 5 ran the default 100 samples, and
    # "flip_scale_sign": "false" turned the flip on, since bool("false") is True
    err = _request_error(tmp_path, capsys, sub, _demo_entry(entry_id), **{field: 5})
    assert err == f"error: entry {entry_id!r}: {sub!r} request: unknown fields [{field!r}]\n"


@pytest.mark.parametrize("sub, entry_id, field, value, rule", [
    ("cascade", "confined-basic", "steps", 0, "at least 1"),
    ("cascade", "confined-basic", "order", 0, "at least 1"),
    ("verify", "confined-drifting", "samples", 0, "at least 1"),
    ("nev", "confined-basic", "radii", 1, "at least 2"),
    ("nev", "confined-basic", "r_min", 0, "positive and finite"),
    ("nev", "confined-basic", "r_max", -2.0, "positive and finite"),
    ("verify", "exponential-near-forcing", "p", 0, "nonzero"),
    ("nev", "exponential-near-forcing", "p", 0, "nonzero"),
    # C = 0 used to load and fail as a ParamDomainError row of the analysis
    ("verify", "exponential-near-forcing", "C", 0, "nonzero"),
    ("nev", "exponential-near-forcing", "C", [0.0, 0.0], "nonzero"),
    # json reads NaN and Infinity; they used to load and fail in the analysis
    # as an unrelated ValueError or LinAlgError row
    ("verify", "confined-basic", "omega", [float("nan"), 0], "finite"),
    ("nev", "confined-basic", "g2", [float("inf"), 0], "finite"),
    # 5 cascade steps of confined-affine once ran for over 100 s
    ("cascade", "confined-affine", "steps", 5, "at most 4"),
    ("verify", "confined-basic", "samples", 10_001, "at most 10000"),
    ("nev", "confined-basic", "radii", 501, "at most 500"),
    # order 8 of the demo cascade did not finish in 55 s
    ("cascade", "confined-affine", "order", 4, "at most 3"),
    # p = 10**400 loaded and then overflowed a float in the analysis
    ("verify", "exponential-near-forcing", "p", 65, "at most 64 in absolute value"),
    ("verify", "exponential-near-forcing", "p", -65, "at most 64 in absolute value"),
    ("nev", "exponential-near-forcing", "p", 65, "at most 64 in absolute value"),
    ("nev", "exponential-near-forcing", "p", -65, "at most 64 in absolute value"),
])
def test_request_number_out_of_range_is_rejected(tmp_path, capsys, sub, entry_id, field,
                                                 value, rule):
    err = _request_error(tmp_path, capsys, sub, _demo_entry(entry_id), **{field: value})
    assert err == (
        f"error: entry {entry_id!r}: field '{sub}.{field}': must be {rule}, got {value!r}\n"
    )


@pytest.mark.parametrize("r_min", [16.0, 20])
def test_radii_must_increase(tmp_path, capsys, r_min):
    err = _request_error(tmp_path, capsys, "nev", _demo_entry("confined-basic"), r_min=r_min)
    assert err == (
        "error: entry 'confined-basic': field 'nev.r_min': must be below r_max = 16.0, "
        f"got {float(r_min)!r}\n"
    )


def test_infinite_radius_is_rejected(tmp_path, capsys):
    # json writes float("inf") as Infinity, which json reads back
    err = _request_error(tmp_path, capsys, "nev", _demo_entry("confined-basic"), r_max=1e400)
    assert "field 'nev.r_max': must be positive and finite, got inf" in err


@pytest.mark.parametrize("sub, entry_id, fields, message", [
    ("verify", "confined-basic", {"kind": "hyperbolic"},
     "field 'verify.kind': expected one of ['elliptic', 'exponential', 'mkdv'], "
     "got 'hyperbolic'"),
    ("nev", "confined-basic", {"kind": None},
     "field 'nev.kind': expected one of ['elliptic', 'exponential'], got None"),
    ("nev", "confined-basic", {"kind": ["elliptic"]},
     "field 'nev.kind': expected one of ['elliptic', 'exponential'], got ['elliptic']"),
    ("cascade", "confined-basic", {"seed": "zero-of-w-minus-root"},
     "field 'cascade.seed': expected one of ['zero-of-w', 'pole-of-w'], "
     "got 'zero-of-w-minus-root'"),
    ("verify", "confined-basic", {"omega": None}, "field 'verify.omega' is required"),
    ("nev", "confined-basic", {"g2": None}, "field 'nev.g2' is required"),
])
def test_unknown_kind_seed_or_missing_field_is_rejected(tmp_path, capsys, sub, entry_id,
                                                         fields, message):
    err = _request_error(tmp_path, capsys, sub, _demo_entry(entry_id), **fields)
    assert err == f"error: entry {entry_id!r}: {message}\n"


@pytest.mark.parametrize("sub, entry_id, fields, needs, has", [
    # the exponential nev request used to run on an entry of any class
    ("nev", "confined-basic", {"kind": "exponential", "g2": None, "g3": None, "omega": None},
     "pure-log-deriv", "inverse-square"),
    ("verify", "confined-basic", {"kind": "exponential", "g2": None, "g3": None,
                                  "omega": None}, "pure-log-deriv", "inverse-square"),
    ("verify", "exponential-near-forcing", {"kind": "mkdv", "p": None, "C": None},
     "inverse-square", "pure-log-deriv"),
])
def test_request_kind_needs_its_entry_class(tmp_path, capsys, sub, entry_id, fields, needs, has):
    err = _request_error(tmp_path, capsys, sub, _demo_entry(entry_id), **fields)
    kind = fields["kind"]
    assert err == (
        f"error: entry {entry_id!r}: field '{sub}.kind': {kind!r} needs a {needs} entry, "
        f"not {has}\n"
    )


def test_request_must_be_an_object(tmp_path, capsys):
    entry = dict(_demo_entry("confined-basic"), verify=[1, 2])
    err = _load_error(tmp_path, capsys, "classify",
                      json.dumps({"schema_version": 1, "entries": [entry]}))
    assert err == "error: entry 'confined-basic': 'verify' request must be an object\n"


@pytest.mark.parametrize("content", [None, b'{"entries": "\xff"}'], ids=["missing", "not-utf8"])
def test_missing_corpus_file_is_a_usage_error(tmp_path, capsys, content):
    corpus = tmp_path / "absent.json"
    if content is not None:
        corpus.write_bytes(content)
    assert cli.run(["classify", "--corpus", str(corpus)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read corpus: ")
    assert (str(corpus) if content is None else "can't decode byte 0xff") in err


def test_missing_out_directory_is_a_usage_error_before_any_analysis(
    monkeypatch, tmp_path, capsys
):
    # the report used to fail to write only after every entry had run
    monkeypatch.setitem(cli._RUNNERS, "classify", lambda entry, args: 1 / 0)
    out = tmp_path / "absent" / "report.json"
    assert cli.run(["classify", "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: cannot write report: no directory {str(out.parent)!r}\n"


def _corpus(*entries, version=1):
    return json.dumps({"schema_version": version, "entries": list(entries)})


@pytest.mark.parametrize("text, message", [
    ("{", "error: corpus is not valid JSON: Expecting property name enclosed in double "
          "quotes: line 1 column 2 (char 1)"),
    (_corpus(dict(_demo_entry("confined-basic"), colour="red")),
     "error: entry 'confined-basic': unknown fields ['colour']"),
    (_corpus(_demo_entry("branch-first"), _demo_entry("branch-first")),
     "error: duplicate entry id 'branch-first'"),
    (_corpus(_demo_entry("branch-first"), version=2),
     "error: corpus schema_version must be 1, got 2"),
    # json.loads raised these past the load, with a traceback and exit 1
    ("[" * 100_000, "error: corpus is not valid JSON: maximum recursion depth exceeded "
                    "while decoding a JSON array from a unicode string"),
    ('{"schema_version": ' + "1" * 4301 + "}",
     "error: corpus is not valid JSON: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 4301 digits; use sys.set_int_max_str_digits() to increase the "
     "limit"),
], ids=["invalid-json", "unknown-entry-field", "duplicate-id", "schema-version", "deep-nesting",
        "long-integer"])
def test_malformed_corpus_is_a_usage_error(tmp_path, capsys, text, message):
    assert _load_error(tmp_path, capsys, "classify", text) == message + "\n"


def test_superscript_exponent_is_a_load_error(tmp_path, capsys):
    # str.isdigit accepts '²' and int() does not; the load must not crash on it
    entry = {"id": "sq", "class": "inverse-square", "a": "z^²", "b": "0", "c": "0"}
    err = _load_error(tmp_path, capsys, "classify", _corpus(entry))
    assert err == "error: entry 'sq': field 'a': unexpected character '²' (line 1, column 3)\n"


def test_deep_nesting_is_a_load_error(tmp_path, capsys):
    # 200 levels once escaped the load as RecursionError
    entry = {"id": "deep", "class": "inverse-square", "a": "(" * 200 + "z" + ")" * 200,
             "b": "0", "c": "0"}
    err = _load_error(tmp_path, capsys, "classify", _corpus(entry))
    assert err == "error: entry 'deep': field 'a': nested deeper than 100 (line 1, column 101)\n"
