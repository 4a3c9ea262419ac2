"""ddelab: exact singularity cascades, necessary-condition verdicts, closed-form
solution verifiers and growth measurements for delay differential equations.

usage: ddelab {classify,cascade,verify,nev,limit} [options]

  classify    necessary-condition verdicts for every entry
  cascade     singularity chains and confinement verdicts
  verify      closed-form solution family residuals
  nev         characteristic tables and growth estimates
  limit       slow-modulation continuum limit of the lattice instance

options (limit reads no corpus, and takes neither --corpus nor --entry):
  --corpus F  corpus JSON path (default: the built-in demo)
  --entry ID  restrict to this entry id; repeatable
  --out F     write the report to F atomically (default: standard output)
  --seed N    verifier sampling seed (default: 0)
  --format json|text   report format (default: text)

A value follows its option or an '='; a repeated option keeps its last value,
and none is abbreviated.  -h or --help prints this help and exits 0.  Exit
codes: 0 when every entry passes, 1 when an analysis fails or raises, 2 on a
usage error (bad arguments, a bad corpus or entry id, or an unusable --out).

The JSON report is a pure function of what its config_hash covers: the corpus
text (empty for limit), --entry, --seed, the subcommand and the tool version.
Timings appear only in the text report; the cascade sizes its own window.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, NoReturn, Optional, Sequence, Tuple

from . import __version__
from .analytic import (
    EllipticParams,
    EllipticSolutionModel,
    ExponentialModel,
    continuum_limit,
    elliptic_params,
    mkdv_reduction_check,
    verify_elliptic_family,
    verify_exponential,
)
from .cascade import confinement_report, first_seed, polynomial_blowup, run_cascade
from .classify import classify
from .corpus import CorpusEntry, CorpusError, demo_corpus_text, load_corpus
from .fieldelem import FieldElem
from .gaussian import GaussianRational
from .model import EqKind, rational_degree
from .nevanlinna import characteristic_table, growth_estimates, log_grid, ratio_checks

EXIT_OK = 0
EXIT_ANALYSIS_FAIL = 1
EXIT_USAGE = 2

class RequestError(ValueError):
    """An analysis request names parameters the entry cannot satisfy."""


def _confined_triple(entry: CorpusEntry) -> Tuple[complex, complex, complex]:
    """Extracted (lam, mu, nu) of an inverse-square entry, as complex."""
    params = classify(entry.eq).get("params")
    if params is None:
        raise RequestError(
            "this request needs the confined parameter triple, but the entry "
            "does not reduce to it"
        )
    return complex(params["lam"]), complex(params["mu"]), complex(params["nu"])


def _elliptic_request(entry: CorpusEntry, request: Mapping[str, Any]) -> EllipticParams:
    """Elliptic-family parameters of one of the entry's requests."""
    lam, mu, nu = _confined_triple(entry)
    if mu != 0 or nu != 0:
        raise RequestError(
            "the doubly periodic family needs both the drift and the "
            "linear growth to vanish"
        )
    return elliptic_params(request["g2"], request["g3"], request["omega"], lam)


# ---------------------------------------------------------------------------
# per-entry runners; each returns (result mapping, failed flag)


def _run_classify(entry: CorpusEntry, args) -> Tuple[Dict[str, Any], bool]:
    result: Dict[str, Any] = {"verdict": classify(entry.eq)}
    if entry.eq.kind == EqKind.LOG_DERIV:
        result["degrees"] = rational_degree(entry.eq)
    return result, False


def _run_cascade(entry: CorpusEntry, args) -> Tuple[Dict[str, Any], bool]:
    request = entry.requests["cascade"]
    steps, order = request["steps"], request["order"]
    if entry.eq.kind == EqKind.INVERSE_SQUARE:
        # the class fixes the seed: a zero of w of the requested order here (the
        # load rejects "pole-of-w"), and polynomial_blowup seeds a pole below
        pattern = run_cascade(entry.eq, first_seed(order), steps)
        return {"pattern": pattern.export(),
                "confinement": confinement_report(pattern, entry.eq)}, False
    if entry.eq.kind == EqKind.LOG_DERIV and rational_degree(entry.eq)["den"] == 0:
        orders = polynomial_blowup(entry.eq, steps, q=order)
        return {"pole_orders": list(orders)}, False
    return {
        "skipped": "cascade analysis covers the inverse-square class and "
        "polynomial right sides"
    }, False


def _run_verify(entry: CorpusEntry, args) -> Tuple[Dict[str, Any], bool]:
    if "verify" not in entry.requests:
        return {"skipped": "entry carries no verify request"}, False
    request = entry.requests["verify"]
    kind, samples = request["kind"], request["samples"]
    if kind == "elliptic":
        params = _elliptic_request(entry, request)
        report = verify_elliptic_family(params, samples=samples, seed=args.seed)
    elif kind == "exponential":
        report = verify_exponential(
            entry.eq.a, p=request["p"], C=request["C"], samples=samples, seed=args.seed
        )
    else:
        lam, mu, nu = _confined_triple(entry)
        if mu != 0:
            raise RequestError("the mKdV reduction needs the drift to vanish")
        report = mkdv_reduction_check(lam, nu, samples=samples, seed=args.seed)
    return {"verify": report.export()}, not report.passed


def _run_nev(entry: CorpusEntry, args) -> Tuple[Dict[str, Any], bool]:
    if "nev" not in entry.requests:
        return {"skipped": "entry carries no nev request"}, False
    request = entry.requests["nev"]
    grid = log_grid(request["r_min"], request["r_max"], request["radii"])
    if request["kind"] == "elliptic":
        model = EllipticSolutionModel(_elliptic_request(entry, request))
        table = characteristic_table(model, grid)
        return {
            "table": table,
            "growth": growth_estimates(table),
            "ratios": ratio_checks(table),
        }, False
    table = characteristic_table(ExponentialModel(C=request["C"], p=request["p"]), grid)
    return {"table": table, "growth": growth_estimates(table)}, False


_RUNNERS = {
    "classify": _run_classify,
    "cascade": _run_cascade,
    "verify": _run_verify,
    "nev": _run_nev,
}


def _run_entries(entries, runner, args) -> Tuple[List[Dict[str, Any]], bool, List[float]]:
    """Run one analysis over all entries, one after another, in corpus order.

    A failure stays with its entry: whatever the runner raises is recorded
    in that entry's row as ``error`` and ``error_type``, its traceback goes
    to standard error, and the batch goes on with the next entry.
    """
    rows: List[Dict[str, Any]] = []
    any_failed = False
    timings: List[float] = []
    for entry in entries:
        start = time.perf_counter()
        try:
            result, failed = runner(entry, args)
        except Exception as exc:
            import traceback  # only a failed entry needs it
            print(f"entry {entry.id!r} failed:", file=sys.stderr)
            traceback.print_exc()
            result = {"error": str(exc), "error_type": type(exc).__name__}
            failed = True
        rows.append({"id": entry.id, **result})
        any_failed = any_failed or failed
        timings.append(time.perf_counter() - start)
    return rows, any_failed, timings


def _run_limit(args) -> Tuple[List[Dict[str, Any]], bool, List[float]]:
    start = time.perf_counter()
    coeffs = continuum_limit()
    vanishing = [k for k in range(7) if coeffs[k].is_zero]
    leading = next((k for k, c in enumerate(coeffs) if not c.is_zero), None)
    row = {
        "id": "slow-modulation-limit",
        "truncation": len(coeffs) - 1,
        "vanishing_orders": vanishing,
        "leading_order": leading,
        "leading_coefficient": str(coeffs[5]),
        "statement": (
            "the surviving balance is y3 = 12*y0*y1 + 1; integrating once in "
            "the slow variable gives y'' = 6*y^2 + t, the first Painleve "
            "equation, up to an additive constant absorbed by translation"
        ),
    }
    failed = leading != 5 or vanishing != [0, 1, 2, 3, 4, 6]
    return [row], failed, [time.perf_counter() - start]


# ---------------------------------------------------------------------------
# report assembly and output


def _config_hash(corpus_text: str, args, subcommand: str) -> str:
    payload = json.dumps(
        {
            "corpus": corpus_text,
            "entry_filter": sorted(args.entry or []),
            "seed": args.seed,
            "subcommand": subcommand,
            "version": __version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# The classify and cascade verdicts reach the rows with exact FieldElem and
# GaussianRational values (the witnesses and the triple lam, mu, nu).  Both
# writers print them as their str: the JSON writer through this default.
def _exact_str(value: Any) -> str:
    if isinstance(value, (FieldElem, GaussianRational)):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_exact_str) + "\n"


def _render_text(report: Dict[str, Any], timings: List[float]) -> str:
    lines = [
        f"ddelab {report['version']} {report['subcommand']} "
        f"(seed {report['seed']}, config {report['config_hash'][:12]})"
    ]
    failures = 0
    for row, elapsed in zip(report["entries"], timings):
        parts = [f"  {row['id']:30s}"]
        if "error" in row:
            parts.append(f"ERROR ({row['error_type']}): {row['error']}")
            failures += 1
        elif "verdict" in row:
            v = row["verdict"]
            parts.append(v["outcome"])
            if "params" in v:
                p = v["params"]
                parts.append(f"(lam={p['lam']}, mu={p['mu']}, nu={p['nu']})")
        elif "confinement" in row:
            c = row["confinement"]
            parts.append(c["kind"])
            if "witness" in c:
                parts.append(f"witness={c['witness']}")
        elif "pole_orders" in row:
            parts.append("pole orders " + ", ".join(map(str, row["pole_orders"])))
        elif "verify" in row:
            r = row["verify"]
            status = "pass" if r["pass"] else "FAIL"
            if not r["pass"]:
                failures += 1
            parts.append(f"{status} max residual {r['max_residual']:.3e}")
        elif "growth" in row:
            g = row["growth"]
            parts.append(f"order {g['order']:.3f} (+-{g['order_width']:.3f})")
        elif "leading_coefficient" in row:
            parts.append(f"eps^{row['leading_order']}: {row['leading_coefficient']}")
        elif "skipped" in row:
            parts.append(f"skipped: {row['skipped']}")
        parts.append(f"[{elapsed*1000:.0f} ms]")
        lines.append(" ".join(parts))
        if "statement" in row:
            lines.append(f"    {row['statement']}")
    lines.append(f"{len(report['entries'])} entries, {failures} failed")
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_USAGE = "usage: ddelab {classify,cascade,verify,nev,limit} [options]\n"
# each option with the type of its value; limit takes neither of the first two
_OPTIONS = {"--corpus": str, "--entry": str, "--out": str, "--seed": int, "--format": str}
# argparse's rule: a token after an option is its value unless it looks like an
# option; "" and "-", a negative number and a token with a space do not
_VALUE = re.compile(r"$|[^-]|-$|-\d+$|-\d*\.\d+$|.* ")


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """``argv`` read as the module docstring says; exits raise ``SystemExit``."""
    def fail(message: str) -> NoReturn:
        sys.stderr.write(f"{_USAGE}ddelab: error: {message}\n")
        raise SystemExit(EXIT_USAGE)

    args = SimpleNamespace(subcommand=None, corpus=None, entry=None, out=None, seed=0,
                           format="text")
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(__doc__ or _USAGE)
            raise SystemExit(EXIT_OK)
        if args.subcommand is None and (token in _RUNNERS or token == "limit"):
            args.subcommand = token
            continue
        name, inline, value = token.partition("=")
        if (args.subcommand is None or name not in _OPTIONS
                or args.subcommand == "limit" and name in ("--corpus", "--entry")):
            fail(f"unrecognized argument {token!r}")
        if not inline:
            value = next(tokens, None)
            if value is None or not _VALUE.match(value):
                fail(f"argument {name}: expected one value")
        try:
            value = _OPTIONS[name](value)
        except ValueError:
            fail(f"argument {name}: invalid int value {value!r}")
        if name == "--format" and value not in ("json", "text"):
            fail(f"argument --format: invalid choice {value!r} (choose json or text)")
        setattr(args, name[2:], (args.entry or []) + [value] if name == "--entry" else value)
    if args.subcommand is None:
        fail("a subcommand is required")
    return args


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code

    subcommand = args.subcommand
    if args.out and not Path(args.out).parent.is_dir():
        print(f"error: cannot write report: no directory {str(Path(args.out).parent)!r}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.out and Path(args.out).is_dir():
        print(f"error: cannot write report: {args.out!r} is a directory", file=sys.stderr)
        return EXIT_USAGE
    if subcommand == "limit":
        corpus_text = ""
        rows, any_failed, timings = _run_limit(args)
    else:
        try:
            corpus_text = (
                demo_corpus_text() if args.corpus is None
                else Path(args.corpus).read_text(encoding="utf-8")
            )
            entries = load_corpus(corpus_text)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read corpus: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except CorpusError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.entry:
            known = {e.id for e in entries}
            unknown = [i for i in args.entry if i not in known]
            if unknown:
                print(f"error: unknown entry ids {unknown}", file=sys.stderr)
                return EXIT_USAGE
            wanted = set(args.entry)
            entries = tuple(e for e in entries if e.id in wanted)
        rows, any_failed, timings = _run_entries(entries, _RUNNERS[subcommand], args)

    report = {
        "tool": "ddelab",
        "version": __version__,
        "subcommand": subcommand,
        "seed": args.seed,
        "config_hash": _config_hash(corpus_text, args, subcommand),
        "entries": rows,
    }
    body = (
        _render_json(report)
        if args.format == "json"
        else _render_text(report, timings)
    )
    if args.out:
        _atomic_write(args.out, body)
    else:
        sys.stdout.write(body)
    return EXIT_ANALYSIS_FAIL if any_failed else EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
