"""Tests of the benchmark itself: generator, oracles and tracer.

Run with ``python -m pytest perfbench``.  Each oracle must accept what ddelab
reports for a generated corpus and reject a hand-corrupted copy of it.
"""

from __future__ import annotations

import cmath
import copy
import json
import sys
import threading
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from oracles import (  # noqa: E402
    OracleError,
    Verdicts,
    check_cascade,
    check_classify,
    check_limit,
    check_nev,
    check_report,
    check_verify,
    parse_gaussian,
)
from tracer import CALLS, SELF_S, Tracer, merge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run_cli(tmp_path, sub, corpus=None, seed=0):
    from ddelab import cli

    out = tmp_path / f"{sub}.json"
    argv = [sub]
    if corpus is not None:
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        argv += ["--corpus", str(path)]
    cli.run(argv + ["--seed", str(seed), "--format", "json", "--out", str(out)])
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    a, exp_a = wl.generate(7)
    b, exp_b = wl.generate(7)
    c, _ = wl.generate(8)
    assert json.dumps(a) == json.dumps(b)
    assert exp_a == exp_b
    assert json.dumps(a) != json.dumps(c)
    counts = {}
    for entry in a["entries"]:
        counts[entry["note"]] = counts.get(entry["note"], 0) + 1
    assert counts == {family: n for family, n, _ in wl.mix}


def _origin_pole(g2: complex, g3: complex, omega: complex) -> float:
    from ddelab.analytic import EllipticSolutionModel, elliptic_params

    model = EllipticSolutionModel(elliptic_params(g2=g2, g3=g3, omega=omega, lam=1))
    return min(abs(p) for p, _ in model.poles_upto(16.0))


def test_elliptic_requests_keep_the_origin_pole_exact():
    for seed in range(6):
        corpus, _ = WORKLOADS["nev-numeric"].generate(seed)
        for entry in corpus["entries"]:
            req = entry.get("nev")
            if req and req["kind"] == "elliptic":
                lattice = [complex(*req[key]) for key in ("g2", "g3", "omega")]
                assert _origin_pole(*lattice) == 0.0


@pytest.mark.xfail(reason="WeierstrassP.lattice_points_in_disk sums periods step by step, "
                          "so the origin pole of a generic lattice is off zero by rounding "
                          "and the fitted order drops; the generator draws only exact "
                          "rotations and rescalings until this is fixed")
def test_generic_rotation_keeps_the_origin_pole_exact():
    from workloads import DEMO_G2, DEMO_G3, DEMO_OMEGA

    c = 1.1 * cmath.exp(0.7j)
    assert _origin_pole(DEMO_G2 * c**-4, DEMO_G3 * c**-6, DEMO_OMEGA * c) == 0.0


def test_parse_gaussian_reads_ddelab_notation():
    assert parse_gaussian("-1/3") == (Fraction(-1, 3), 0)
    assert parse_gaussian("2*i") == (0, 2)
    assert parse_gaussian("-i") == (0, -1)
    assert parse_gaussian("1/2-3/4*i") == (Fraction(1, 2), Fraction(-3, 4))
    assert parse_gaussian("(5+i)") == (5, 1)
    with pytest.raises(OracleError):
        parse_gaussian("z")


# ---------------------------------------------------------------------------
# oracles on real reports, then on corrupted copies


@pytest.fixture(scope="module")
def light(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("light")
    corpus, expect = WORKLOADS["batch-light"].generate(0)
    reports = {sub: _run_cli(tmp, sub, None if sub == "limit" else corpus)
               for sub in ("classify", "verify", "limit")}
    return corpus, expect, reports


@pytest.fixture(scope="module")
def cascades(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cascade")
    corpus, expect = WORKLOADS["cascade-exact"].generate(0)
    # the affine entries take seconds each; the oracles are the same for them
    corpus["entries"] = [e for e in corpus["entries"] if e["note"] != "affine-confined"]
    return corpus, expect, _run_cli(tmp, "cascade", corpus)


def _verdicts(sub, report, corpus, expect):
    v = Verdicts()
    check_report(sub, report, [e["id"] for e in corpus["entries"]], expect, v)
    return v


def test_light_reports_pass_every_oracle(light):
    corpus, expect, reports = light
    for sub, report in reports.items():
        v = _verdicts(sub, report, corpus, expect)
        assert v.failures == [], (sub, v.failures[:3])
        assert v.attempted > 0
    assert _verdicts("verify", reports["verify"], corpus, expect).residuals


def test_cascade_reports_pass_every_oracle(cascades):
    corpus, expect, report = cascades
    v = _verdicts("cascade", report, corpus, expect)
    assert v.failures == []
    assert v.attempted == len(corpus["entries"])


def _first(report, expect, sub, pred):
    for row in report["entries"]:
        exp = expect.get(row["id"], {}).get(sub)
        if exp is not None and pred(row, exp):
            return copy.deepcopy(row), exp
    raise AssertionError("no matching row")


def test_classify_oracle_rejects_corruption(light):
    _, expect, reports = light
    report = reports["classify"]
    row, exp = _first(report, expect, "classify", lambda r, e: e.get("params"))
    check_classify(row, exp)
    bad = copy.deepcopy(row)
    bad["verdict"]["params"]["nu"] = "7/11"
    with pytest.raises(OracleError):
        check_classify(bad, exp)
    bad = copy.deepcopy(row)
    bad["verdict"]["outcome"] = "violates-necessary-condition"
    with pytest.raises(OracleError):
        check_classify(bad, exp)
    row, exp = _first(report, expect, "classify", lambda r, e: "degrees" in e)
    bad = copy.deepcopy(row)
    bad["degrees"]["num"] += 1
    with pytest.raises(OracleError):
        check_classify(bad, exp)


def test_cascade_oracle_rejects_corruption(cascades):
    _, expect, report = cascades
    row, exp = _first(report, expect, "cascade", lambda r, e: e.get("kind") == "simple-pole-tail")
    check_cascade(row, exp)
    bad = copy.deepcopy(row)
    bad["confinement"]["witness"] = "17"
    with pytest.raises(OracleError, match="residue obstruction"):
        check_cascade(bad, exp)
    bad["confinement"]["witnesses"]["residue_obstruction"] = "17"
    with pytest.raises(OracleError, match="gamma"):
        check_cascade(bad, exp)
    bad = copy.deepcopy(row)
    bad["confinement"]["kind"] = "confined"
    with pytest.raises(OracleError, match="lacks a parameter triple"):
        check_cascade(bad, exp)
    row, exp = _first(report, expect, "cascade", lambda r, e: e.get("kind") == "confined")
    bad = copy.deepcopy(row)
    bad["confinement"]["kind"] = "simple-pole-tail"
    with pytest.raises(OracleError, match="has a parameter triple"):
        check_cascade(bad, exp)
    row, exp = _first(report, expect, "cascade", lambda r, e: "pole_orders" in e)
    bad = copy.deepcopy(row)
    bad["pole_orders"][-1] += 1
    with pytest.raises(OracleError, match="q\\*d\\^k"):
        check_cascade(bad, exp)


def test_verify_oracle_rejects_corruption(light):
    _, expect, reports = light
    row, exp = _first(reports["verify"], expect, "verify", lambda r, e: True)
    check_verify(row, exp)
    for field, value in (("max_residual", 2e-8), ("max_residual", float("nan")),
                         ("pass", False), ("samples", 3)):
        bad = copy.deepcopy(row)
        bad["verify"][field] = value
        with pytest.raises(OracleError):
            check_verify(bad, exp)


@pytest.fixture(scope="module")
def exponential_nev(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("nev")
    corpus, expect = WORKLOADS["nev-numeric"].generate(0)
    # elliptic rows take seconds each; the table checks are the same for them
    corpus["entries"] = [e for e in corpus["entries"] if e["note"] == "exponential"]
    return corpus, expect, _run_cli(tmp, "nev", corpus)


def test_nev_oracle_rejects_corruption(exponential_nev):
    corpus, expect, report = exponential_nev
    assert _verdicts("nev", report, corpus, expect).failures == []
    row, exp = _first(report, expect, "nev", lambda r, e: True)
    check_nev(row, exp)
    bad = copy.deepcopy(row)
    bad["table"]["rows"][5]["T"] += 1e-6 * abs(bad["table"]["rows"][5]["T"])
    with pytest.raises(OracleError, match="m \\+ N"):
        check_nev(bad, exp)
    bad = copy.deepcopy(row)
    bad["table"]["rows"][-1]["N"] = -1.0
    bad["table"]["rows"][-1]["T"] = bad["table"]["rows"][-1]["m"] - 1.0
    with pytest.raises(OracleError, match="decreases"):
        check_nev(bad, exp)
    bad = copy.deepcopy(row)
    bad["growth"]["order"] = 0.3
    with pytest.raises(OracleError, match="fitted order"):
        check_nev(bad, exp)
    bad = copy.deepcopy(row)
    bad["table"]["rows"].pop()
    with pytest.raises(OracleError, match="table rows"):
        check_nev(bad, exp)


def test_limit_oracle_rejects_corruption(light):
    row = copy.deepcopy(light[2]["limit"]["entries"][0])
    check_limit(row)
    for field, value in (("leading_order", 4), ("vanishing_orders", [0, 1, 2, 3, 4])):
        bad = copy.deepcopy(row)
        bad[field] = value
        with pytest.raises(OracleError):
            check_limit(bad)


def test_report_level_failures_count_against_attempted(light):
    corpus, expect, reports = light
    good = _verdicts("classify", reports["classify"], corpus, expect)
    bad = copy.deepcopy(reports["classify"])
    bad["entries"][3] = {"id": bad["entries"][3]["id"], "error": "boom"}
    v = _verdicts("classify", bad, corpus, expect)
    assert v.attempted == good.attempted and v.failed == 1
    v = _verdicts("classify", None, corpus, expect)
    assert v.failed == v.attempted == good.attempted
    shuffled = copy.deepcopy(reports["classify"])
    shuffled["entries"].reverse()
    assert _verdicts("classify", shuffled, corpus, expect).failed == good.attempted
    # a skipped row is not an analysis; an unrequested row that ran is a failure
    verify = copy.deepcopy(reports["verify"])
    skipped = next(r for r in verify["entries"] if "skipped" in r)
    skipped.pop("skipped")
    v = _verdicts("verify", verify, corpus, expect)
    assert v.failed == 1


# ---------------------------------------------------------------------------
# tracer


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        time.sleep(0)
        return x + 1

    def outer(x):
        total = 0
        for _ in range(2000):
            total += core.leaf(x)
        return total

    class Box:
        def twice(self, x):
            return 2 * x
        both = twice

    core.leaf, core.outer, core.Box = leaf, outer, Box
    user.outer = outer
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_tracer_patches_every_binding_and_nets_out_children(fake_package):
    core, user = fake_package
    tracer = Tracer(package="fakepkg")
    assert tracer.install("core.outer", "fakepkg.core:outer")
    assert tracer.install("core.leaf", "fakepkg.core:leaf", leaf=True)
    assert tracer.install("core.twice", "fakepkg.core:Box.twice")
    assert not tracer.install("core.gone", "fakepkg.core:gone")
    assert not tracer.install("core.gone", "fakepkg.missing:gone")
    assert tracer.install("core.boom", "fakepkg.core:Box.twice",
                          before=lambda st, frame, args, kwargs: 1 / 0)
    try:
        user.outer(1)
        box = core.Box()
        assert box.twice(3) == box.both(3) == 6
        worker = threading.Thread(target=core.outer, args=(2,))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    spans = snap["spans"]
    assert spans["core.outer"][CALLS] == 2
    assert spans["core.leaf"][CALLS] == 4000
    assert spans["core.twice"][CALLS] == 2
    assert 0.0 <= spans["core.outer"][SELF_S] <= spans["core.outer"][2]
    assert snap["absent"] == ["core.gone"]
    assert snap["broken"] == ["core.boom"] and spans["core.boom"][CALLS] == 2
    assert core.outer is user.outer and not hasattr(core.outer, "__wrapped__")


def test_derive_reports_absent_spans_and_broken_hooks_as_missing():
    raw = merge([{"spans": {"wp.eval": [10, 0.5, 0.5, 0.0], "cascade.run_cascade": [2, 0.1, 0.1, 0.0]},
                  "counts": {}, "maxima": {"cascade.j1.num_terms": 5},
                  "absent": ["nevanlinna.romberg"], "broken": ["cascade.run_cascade"]}])
    metrics = layers.derive(raw, {"numpy_import_s": 0.1, "ddelab_import_s": 0.2})
    assert metrics["wp.eval.calls"] == 10
    assert metrics["wp.eval.ns_per_call"] == pytest.approx(5e7)
    assert metrics["nevanlinna.romberg.calls"] is None
    assert metrics["nevanlinna.romberg.unsettled"] is None
    assert metrics["mpoly.mul.calls"] == 0
    assert metrics["cascade.run_cascade.calls"] == 2
    assert metrics["cascade.j1.num_terms"] is None
