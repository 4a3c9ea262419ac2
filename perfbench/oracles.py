"""Independent oracles over ddelab JSON reports.

Each check compares one report row with the outcome its corpus entry was
built to have (see ``workloads``), using closed forms and invariants rather
than ddelab itself.  The harness reads the JSON report, never the exit code
alone: exit 1 also means "a verify failed", and the text rendering's
per-entry timings include thread-pool waits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

VERIFY_MAX_RESIDUAL = 1e-8
# T is m + N by definition; a later implementation may sum in another order
T_REL_TOL = 1e-12
LIMIT_LEADING_ORDER = 5
LIMIT_VANISHING_ORDERS = [0, 1, 2, 3, 4, 6]
LIMIT_ROW_ID = "slow-modulation-limit"
COUNT_FIELDS = ("n", "n_bar", "N", "N_bar", "n_zero", "nbar_zero", "N_zero", "Nbar_zero")

_GAUSS = re.compile(r"^\(?(?P<re>-?\d+(?:/\d+)?)?(?P<im>[+-]?(?:\d+(?:/\d+)?\*)?i)?\)?$")


class OracleError(ValueError):
    """A report row disagrees with its entry's expected outcome."""


def parse_gaussian(text: str) -> Tuple[Fraction, Fraction]:
    """(re, im) of a Gaussian rational printed by ddelab, e.g. '-1/3+2*i'."""
    m = _GAUSS.match(text.replace(" ", ""))
    if not m or not (m.group("re") or m.group("im")):
        raise OracleError(f"not a Gaussian rational: {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_text = m.group("im")
    if not im_text:
        return re_part, Fraction(0)
    coeff = im_text[:-1].rstrip("*")
    if coeff in ("", "+"):
        im = Fraction(1)
    elif coeff == "-":
        im = Fraction(-1)
    else:
        im = Fraction(coeff)
    return re_part, im


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _as_pair(value) -> Tuple[Fraction, Fraction]:
    re_part, im = value
    return Fraction(re_part), Fraction(im)


# ---------------------------------------------------------------------------
# per-subcommand row checks


def check_classify(row: dict, exp: dict) -> None:
    verdict = row.get("verdict")
    _require(isinstance(verdict, dict), "row has no verdict")
    _require(verdict.get("eq_kind") == exp["eq_kind"],
             f"eq_kind {verdict.get('eq_kind')!r}, expected {exp['eq_kind']!r}")
    _require(verdict.get("outcome") == exp["outcome"],
             f"outcome {verdict.get('outcome')!r}, expected {exp['outcome']!r}")
    if "params" in exp:
        got = verdict.get("params")
        if exp["params"] is None:
            _require(got is None, f"unexpected parameter triple {got}")
        else:
            _require(isinstance(got, dict), "confined entry lacks its parameter triple")
            for key, want in zip(("lam", "mu", "nu"), exp["params"]):
                _require(parse_gaussian(str(got.get(key))) == _as_pair(want),
                         f"{key} = {got.get(key)!r}, expected {want}")
    if "also_branch_b" in exp:
        _require(bool(verdict.get("also_branch_b", False)) == exp["also_branch_b"],
                 "also_branch_b flag disagrees with the degrees")
    if "degrees" in exp:
        _require(row.get("degrees") == exp["degrees"],
                 f"degrees {row.get('degrees')}, expected {exp['degrees']}")


def check_cascade(row: dict, exp: dict) -> None:
    if "pole_orders" in exp:
        _require(row.get("pole_orders") == exp["pole_orders"],
                 f"pole orders {row.get('pole_orders')}, expected {exp['pole_orders']} = q*d^k")
        return
    conf = row.get("confinement")
    _require(isinstance(conf, dict), "row has no confinement verdict")
    kind = conf.get("kind")
    _require((kind == "confined") == exp["triple"],
             f"kind {kind!r} but the entry {'has' if exp['triple'] else 'lacks'} a parameter triple")
    _require(kind == exp["kind"], f"kind {kind!r}, expected {exp['kind']!r}")
    pattern = row.get("pattern")
    _require(isinstance(pattern, list) and len(pattern) >= 3
             and all(p.get("certified") for p in pattern),
             "pattern lacks three certified offsets")
    if kind == "confined":
        _require(conf.get("offset") == 3, f"confined at offset {conf.get('offset')}, expected 3")
    if kind == "simple-pole-tail":
        witness = conf.get("witness")
        closed_form = (conf.get("witnesses") or {}).get("residue_obstruction")
        _require(witness is not None and witness == closed_form,
                 f"witness {witness!r} differs from the residue obstruction {closed_form!r}")
        _require(parse_gaussian(witness.strip("()")) == _as_pair(exp["witness"]),
                 f"witness {witness!r}, expected gamma = {exp['witness'][0]}")


def check_verify(row: dict, exp: dict) -> float:
    """Checks the row; returns its max residual."""
    rep = row.get("verify")
    _require(isinstance(rep, dict), "row has no verify report")
    _require(rep.get("check") == exp["check"],
             f"check {rep.get('check')!r}, expected {exp['check']!r}")
    _require(rep.get("samples") == exp["samples"],
             f"{rep.get('samples')} samples, expected {exp['samples']}")
    residual = rep.get("max_residual")
    _require(isinstance(residual, (int, float)) and math.isfinite(residual) and residual >= 0,
             f"max_residual {residual!r} is not a finite nonnegative number")
    _require(residual <= VERIFY_MAX_RESIDUAL,
             f"max_residual {residual:.3e} exceeds {VERIFY_MAX_RESIDUAL:.0e}")
    _require(rep.get("pass") is True, "verifier reports a failure")
    return float(residual)


def check_nev(row: dict, exp: dict) -> None:
    table = row.get("table")
    _require(isinstance(table, dict), "row has no characteristic table")
    rows = table.get("rows") or []
    _require(len(rows) == exp["radii"], f"{len(rows)} table rows, expected {exp['radii']}")
    for k, tr in enumerate(rows):
        T, m, N = tr.get("T"), tr.get("m"), tr.get("N")
        _require(all(isinstance(v, (int, float)) and math.isfinite(v) for v in (T, m, N)),
                 f"row {k}: T, m, N must be finite numbers")
        _require(abs(T - (m + N)) <= T_REL_TOL * max(1.0, abs(T)),
                 f"row {k}: T = {T!r} differs from m + N = {m + N!r}")
        _require(m >= 0.0, f"row {k}: proximity m = {m!r} is negative")
    for prev, cur in zip(rows, rows[1:]):
        _require(cur["r"] > prev["r"], "radii are not increasing")
        for key in COUNT_FIELDS:
            _require(cur[key] >= prev[key],
                     f"{key} decreases from {prev[key]} to {cur[key]} at r = {cur['r']}")
    order = (row.get("growth") or {}).get("order")
    _require(isinstance(order, (int, float)) and abs(order - exp["order"]) <= exp["tol"],
             f"fitted order {order!r}, expected {exp['order']} +- {exp['tol']}")
    if exp["kind"] == "elliptic":
        ratios = (row.get("ratios") or {}).get("rows") or []
        _require(len(ratios) == exp["radii"], "ratio report does not cover every radius")


def check_limit(row: dict) -> None:
    _require(row.get("id") == LIMIT_ROW_ID, f"unexpected limit row {row.get('id')!r}")
    _require(row.get("leading_order") == LIMIT_LEADING_ORDER,
             f"leading order {row.get('leading_order')!r}, expected {LIMIT_LEADING_ORDER}")
    _require(row.get("vanishing_orders") == LIMIT_VANISHING_ORDERS,
             f"vanishing orders {row.get('vanishing_orders')!r}, "
             f"expected {LIMIT_VANISHING_ORDERS}")


_ROW_CHECKS = {"classify": check_classify, "cascade": check_cascade,
               "verify": check_verify, "nev": check_nev}


# ---------------------------------------------------------------------------
# whole reports


class Verdicts:
    """Outcome of checking one or more reports."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[Tuple[str, str, str]] = []  # (subcommand, id, reason)
        self.residuals: List[float] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, sub: str, eid: str, reason: str) -> None:
        self.failures.append((sub, eid, reason))


def check_report(sub: str, report: Optional[dict], ids: Sequence[str],
                 expect: Dict[str, Dict[str, dict]], verdicts: Verdicts) -> None:
    """Check one subcommand's report against the corpus's expectations.

    Rows expected to be skipped (no request of this kind) must say so and do
    not count as analyses; every other row counts as attempted, and fails if
    it carries ``error`` or any oracle rejects it.  A missing or malformed
    report fails every analysis it should have held.
    """
    if sub == "limit":
        wanted = [LIMIT_ROW_ID]
    else:
        wanted = [eid for eid in ids if sub in expect[eid]]
    rows = report.get("entries") if isinstance(report, dict) else None
    if not isinstance(rows, list) or (report.get("subcommand") != sub):
        verdicts.attempted += len(wanted)
        for eid in wanted:
            verdicts.fail(sub, eid, "no report for this analysis")
        return
    expected_ids = wanted if sub == "limit" else list(ids)
    got_ids = [r.get("id") if isinstance(r, dict) else None for r in rows]
    if got_ids != expected_ids:
        verdicts.attempted += len(wanted)
        for eid in wanted:
            verdicts.fail(sub, eid, "report rows do not match the corpus entries")
        return
    for row in rows:
        eid = row["id"]
        exp = None if sub == "limit" else expect[eid].get(sub)
        if sub != "limit" and exp is None:
            if "skipped" not in row or "error" in row:
                verdicts.attempted += 1
                verdicts.fail(sub, eid, "row carries no request but was not skipped")
            continue
        verdicts.attempted += 1
        if "error" in row:
            verdicts.fail(sub, eid, f"error: {row['error']}")
            continue
        try:
            if sub == "limit":
                check_limit(row)
            elif sub == "verify":
                verdicts.residuals.append(check_verify(row, exp))
            else:
                _ROW_CHECKS[sub](row, exp)
        except OracleError as exc:
            verdicts.fail(sub, eid, str(exc))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            verdicts.fail(sub, eid, f"malformed row: {exc!r}")
