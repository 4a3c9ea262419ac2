"""ddelab benchmark: seeded corpora through the CLI, checked by oracles.

    python3 perfbench/run.py --workload cascade-exact --seed 1 --seconds 30 --trace 0

A closed loop with one client: each pass runs the workload's subcommands one
after another, each as a fresh ``ddelab`` process
(``<sub> --corpus F --seed S --format json --out R``), and starts the next
only when the previous has exited.  Passes repeat until ``--seconds`` is
spent; end-to-end metrics are medians over passes.  Every report is checked
by the oracles in ``oracles.py``.

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones wrap the layers (``layers.py``) and give the per-layer metrics, and the
ratio of traced to untraced analysis time gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from oracles import Verdicts, check_report  # noqa: E402
from tracer import merge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "analysis_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
}
# a residual of exactly zero would give infinite digits
RESIDUAL_FLOOR = 1e-17
# stop starting passes after this long, whatever --seconds says, and kill an
# invocation still running this long after the workload started: a run must
# end within 180 s
HARD_STOP_S = 120.0
DEADLINE_S = 170.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing, so traced counts repeat exactly run to run
    env["PYTHONHASHSEED"] = "0"
    return env


class Harness:
    """Passes of one workload over its generated corpus, with oracle verdicts."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.corpus_path = workdir / "corpus.json"
        corpus, self.expect = workload.generate(seed)
        self.ids = [e["id"] for e in corpus["entries"]]
        self.corpus_path.write_text(json.dumps(corpus, indent=1))
        self.env = _child_env()
        self.verdicts = Verdicts()
        self.env_info: Optional[dict] = None
        self.deadline = time.perf_counter() + DEADLINE_S

    def _argv(self, sub: str, report: Path) -> List[str]:
        argv = [sub]
        if sub != "limit":
            argv += ["--corpus", str(self.corpus_path)]
        return argv + ["--seed", str(self.seed), "--format", "json", "--out", str(report)]

    def invoke(self, argv: List[str], traced: bool) -> Optional[dict]:
        """One child process; returns its measurements, None if it crashed."""
        metrics_path = self.workdir / "child.json"
        if metrics_path.exists():
            metrics_path.unlink()
        cmd = [sys.executable, str(HERE / "child.py"), str(metrics_path),
               "1" if traced else "0", "--"] + argv
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=max(self.deadline - start, 0.1))
        except subprocess.TimeoutExpired:
            print(f"invocation timed out: {' '.join(argv)}", file=sys.stderr)
            return None
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not metrics_path.exists():
            tail = proc.stderr.decode(errors="replace")[-2000:]
            print(f"invocation failed ({proc.returncode}): {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
            return None
        measured = json.loads(metrics_path.read_text())
        measured["wall_s"] = wall
        return measured

    def warm_up(self, traced: bool) -> None:
        """Compile bytecode once; users do not pay that on every run."""
        if self.invoke(["--help"], traced) is None:
            raise SystemExit("ddelab cannot be started from this checkout")

    def run_pass(self, traced: bool) -> dict:
        totals = {"wall_s": 0.0, "setup_s": 0.0, "analysis_s": 0.0, "peak_rss_mb": 0.0}
        imports = {"numpy_import_s": 0.0, "ddelab_import_s": 0.0}
        snapshots = []
        verdicts = Verdicts()
        ok = True
        for sub in self.workload.subcommands:
            report_path = self.workdir / f"{sub}.json"
            if report_path.exists():
                report_path.unlink()
            measured = self.invoke(self._argv(sub, report_path), traced)
            report = None
            if measured is not None:
                self.env_info = measured["env"]
                totals["wall_s"] += measured["wall_s"]
                totals["setup_s"] += measured["numpy_import_s"] + measured["ddelab_import_s"]
                totals["analysis_s"] += measured["analysis_s"]
                totals["peak_rss_mb"] = max(totals["peak_rss_mb"], measured["peak_rss_mb"])
                for key in imports:
                    imports[key] += measured[key]
                if traced:
                    snapshots.append(measured["trace"])
                if report_path.exists():
                    report = json.loads(report_path.read_text())
            else:
                ok = False
            check_report(sub, report, self.ids, self.expect, verdicts)
        self.verdicts.attempted += verdicts.attempted
        self.verdicts.failures += verdicts.failures
        worst = max(verdicts.residuals) if verdicts.residuals else None
        return {
            "traced": traced,
            "ok": ok,
            "e2e": {
                **totals,
                "residual_digits": -math.log10(max(worst, RESIDUAL_FLOOR))
                if worst is not None else None,
            },
            "imports": imports,
            "trace": merge(snapshots) if traced else None,
        }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload, seed: int, seconds: float, traced_mode: bool) -> dict:
    """Run one workload for about ``seconds``, print its table, return the result."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=base))
    try:
        harness = Harness(workload, seed, workdir)
        harness.warm_up(traced_mode)
        passes: List[dict] = []
        durations: List[float] = []
        start = time.perf_counter()
        while True:
            traced = traced_mode and len(passes) % 2 == 1
            t0 = time.perf_counter()
            passes.append(harness.run_pass(traced))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            have_plain = any(not p["traced"] for p in passes)
            have_traced = any(p["traced"] for p in passes)
            if not have_plain or (traced_mode and not have_traced):
                continue
            if elapsed + max(durations[-2:]) > seconds or elapsed > HARD_STOP_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    verdicts = harness.verdicts

    print(f"workload {workload.name} seed {seed}: {workload.describe_mix()}")
    print(f"subcommands: {', '.join(workload.subcommands)}; "
          f"{len(plain)} untraced and {len(traced_passes)} traced passes in "
          f"{sum(durations):.1f} s")
    print("env: " + json.dumps(harness.env_info, sort_keys=True))
    print("passes: " + json.dumps([
        {"traced": p["traced"], **{k: round(v, 4) for k, v in p["e2e"].items() if v is not None}}
        for p in passes
    ]))

    metrics: Dict[str, dict] = {}
    if not traced_mode:
        for name, unit in END_TO_END.items():
            values = [p["e2e"][name] for p in plain if p["e2e"][name] is not None]
            if not values:
                continue
            med = statistics.median(values)
            q1, q3 = _quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:16s} {med:12.6g} {unit:7s} median of {len(values)}; "
                  f"quartiles {q1:.6g} .. {q3:.6g}")
        rate = verdicts.failed / verdicts.attempted if verdicts.attempted else 1.0
        print(f"  {'error_rate':16s} {rate:12.6g} {'fraction':7s} "
              f"{verdicts.failed} failed of {verdicts.attempted} analyses")
    else:
        per_pass = [layers.derive(p["trace"], p["imports"]) for p in traced_passes]
        absent = []
        for name, unit, _, (kind, _, _) in layers.PER_LAYER:
            if kind == "overhead":
                t = statistics.median(p["e2e"]["analysis_s"] for p in traced_passes)
                u = statistics.median(p["e2e"]["analysis_s"] for p in plain)
                value = t / u - 1.0
            else:
                values = [d[name] for d in per_pass]
                if any(v is None for v in values):
                    absent.append(name)
                    continue
                if name in layers.COUNT_METRICS and len(set(values)) > 1:
                    print(f"warning: count {name} differs between passes: {values}")
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:40s} {value:14.6g} {unit}")
        if absent:
            print("missing (function gone or its hook failed): " + ", ".join(absent))
    for sub, eid, reason in verdicts.failures[:20]:
        print(f"FAILED {sub} {eid}: {reason}")
    return {
        "correct": verdicts.failed == 0 and all(p["ok"] for p in passes),
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ddelab" / "cli.py").is_file():
        print(f"error: no ddelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        # metrics of every workload, named <workload>.<metric>
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
