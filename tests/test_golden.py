"""Demo-corpus reports checked against golden copies.

The golden files hold the ``entries`` of the five JSON reports on the
built-in demo corpus, rendered with the report's own JSON layout.
``classify`` and ``cascade`` must match byte for byte.  The ``limit`` row is
compared without its ``truncation`` field: that field records the expansion
depth used, not a result.

The ``cascade`` report on the seed-7 cascade-exact corpus, written once
by ``perfbench/workloads.py`` and kept here as
``cascade-exact-7-corpus.json``, must match byte for byte as well: it runs
the exact series algebra on every family of that benchmark workload.

``verdict-shapes-corpus.json`` holds 12 entries of the seed-7 batch-light
corpus, in the form ``perfbench/workloads.py`` writes it.  Between them they
reach every ``classify`` verdict shape (``also_branch_b``, the hypothesis
violation, c != 0, a non-affine and a non-constant coefficient, the confined
triple) and every ``cascade`` row kind the report can print, including
``bounded-pole-chain``.  Their ``classify`` and ``cascade`` JSON entries must
match byte for byte.  The ``--format text`` reports of ``classify`` and
``cascade``, on the demo and on this corpus, must match their goldens once
the ``[N ms]`` timings are stripped.

``residual-corpus.json`` holds log-deriv entries whose denominators carry a
``q_residual``: non-monic constants, a non-monic linear residual, residuals of
degree 1 and 2 that share a root with P, numerators of degree 15 and 23
beside quadratic residuals (one with a leading coefficient in z, one with
rational coefficients whose roots P shares), and a polynomial right side over
the constant 2 + i, the one entry that runs a cascade.  No other corpus sends
a residual of positive degree through the report.  Its ``classify`` and
``cascade`` JSON entries must match byte for byte.

``verify`` and ``nev`` carry floating-point measurements, so they are
compared field by field.  Strings, integers, booleans, nulls and the set of
keys must match exactly; that covers ids, verdicts, parameters, sample
counts, pole and zero counts, ``settled``, notes and the ``power_ratio``
column.  Floats match within a tolerance chosen by their key: residuals
within 1e-12 absolute, fitted growth exponents to three decimals, the
verifier tolerance exactly, and every other float (the table and ratio
columns) within 1e-9 relative.
"""

import json
import math
import re
from pathlib import Path

import pytest

from ddelab import cli

GOLDEN = Path(__file__).parent / "golden"

IGNORED_FIELDS = {"classify": (), "cascade": (), "limit": ("truncation",)}

GROWTH_FIELDS = {
    "order", "order_width", "hyper_order", "hyper_order_width",
    "pole_hyper", "pole_hyper_width",
}


def _report_entries(subcommand, tmp_path, *corpus):
    out = tmp_path / "report.json"
    argv = [subcommand, *corpus, "--format", "json", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    return json.loads(out.read_text())["entries"]


def _text_report(subcommand, tmp_path, *corpus):
    out = tmp_path / "report.txt"
    assert cli.run([subcommand, *corpus, "--format", "text", "--out", str(out)]) == cli.EXIT_OK
    return re.sub(r" \[\d+ ms\]", "", out.read_text())


def _float_close(key, got, want):
    if key == "tol":
        return got == want
    if key == "max_residual":
        return abs(got - want) <= 1e-12
    if key in GROWTH_FIELDS:
        return round(got, 3) == round(want, 3)
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)


def _mismatches(got, want, path="", key=""):
    """Paths at which ``got`` departs from ``want`` under the rules above."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in sorted(want) for m in _mismatches(got[k], want[k], f"{path}.{k}", k)]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            m for i, (g, w) in enumerate(zip(got, want))
            for m in _mismatches(g, w, f"{path}[{i}]", key)
        ]
    if isinstance(want, float):
        return [] if _float_close(key, got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("subcommand", sorted(IGNORED_FIELDS))
def test_demo_entries_match_golden(subcommand, tmp_path):
    entries = [
        {k: v for k, v in row.items() if k not in IGNORED_FIELDS[subcommand]}
        for row in _report_entries(subcommand, tmp_path)
    ]
    got = json.dumps(entries, sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / f"demo-{subcommand}.json").read_text()


def test_cascade_exact_workload_entries_match_golden(tmp_path):
    corpus = GOLDEN / "cascade-exact-7-corpus.json"
    entries = _report_entries("cascade", tmp_path, "--corpus", str(corpus))
    got = json.dumps(entries, sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / "cascade-exact-7-cascade.json").read_text()


@pytest.mark.parametrize("subcommand", ["classify", "cascade"])
def test_verdict_shapes_entries_match_golden(subcommand, tmp_path):
    corpus = GOLDEN / "verdict-shapes-corpus.json"
    entries = _report_entries(subcommand, tmp_path, "--corpus", str(corpus))
    got = json.dumps(entries, sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / f"verdict-shapes-{subcommand}.json").read_text()


@pytest.mark.parametrize("subcommand", ["classify", "cascade"])
def test_residual_entries_match_golden(subcommand, tmp_path):
    corpus = GOLDEN / "residual-corpus.json"
    entries = _report_entries(subcommand, tmp_path, "--corpus", str(corpus))
    got = json.dumps(entries, sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / f"residual-{subcommand}.json").read_text()


@pytest.mark.parametrize("corpus", ["demo", "verdict-shapes"])
@pytest.mark.parametrize("subcommand", ["classify", "cascade"])
def test_text_reports_match_golden(subcommand, corpus, tmp_path):
    args = [] if corpus == "demo" else ["--corpus", str(GOLDEN / f"{corpus}-corpus.json")]
    got = _text_report(subcommand, tmp_path, *args)
    assert got == (GOLDEN / f"{corpus}-{subcommand}.txt").read_text()


@pytest.mark.parametrize("subcommand", ["nev", "verify"])
def test_demo_measurements_match_golden(subcommand, tmp_path):
    want = json.loads((GOLDEN / f"demo-{subcommand}.json").read_text())
    assert _mismatches(_report_entries(subcommand, tmp_path), want) == []


def test_golden_comparison_is_strict_where_it_should_be():
    row = {"n": 2, "settled": True, "power_ratio": None, "m": 0.5, "order": 2.0471}
    assert _mismatches(dict(row), row) == []
    assert _mismatches({**row, "m": 0.5 * (1 + 1e-10)}, row) == []
    assert _mismatches({**row, "order": 2.0474}, row) == []
    assert _mismatches({**row, "m": 0.5 * (1 + 1e-8)}, row)
    assert _mismatches({**row, "order": 2.048}, row)
    assert _mismatches({**row, "n": 3}, row)
    assert _mismatches({**row, "settled": 1}, row)
    assert _mismatches({k: v for k, v in row.items() if k != "power_ratio"}, row)
