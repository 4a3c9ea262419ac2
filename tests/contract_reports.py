"""Write the 29 contract reports of a checkout, or compare two sets of them.

    python tests/contract_reports.py write TREE OUT
    python tests/contract_reports.py compare A B

``write`` runs the ``ddelab`` of ``TREE/src`` in a fresh interpreter for each
report and writes the JSON report to ``OUT/<name>.json``.  The 29 reports are
the five subcommands on the built-in demo corpus, plus ``classify``,
``cascade``, ``verify`` and ``nev`` on the three benchmark corpora
(``TREE/perfbench/workloads.py``) at seeds 7 and 11, each run with its corpus
seed as ``--seed``, as the benchmark harness runs them.  The corpora go to
``OUT/corpora/``, in the form the harness writes them.

``compare`` reads the reports (the ``*.json`` files directly under each
directory), names every one that differs byte for byte or is present on one
side only, and exits 1 if there is any; otherwise it exits 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

DEMO_SUBCOMMANDS = ("classify", "cascade", "verify", "nev", "limit")
CORPUS_SUBCOMMANDS = ("classify", "cascade", "verify", "nev")
WORKLOADS = ("cascade-exact", "nev-numeric", "batch-light")
SEEDS = (7, 11)

# run inside TREE: write each workload corpus as perfbench/run.py does
_WRITE_CORPORA = """
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
out = Path(sys.argv[1])
for name in sys.argv[2].split(","):
    for seed in map(int, sys.argv[3].split(",")):
        corpus, _ = WORKLOADS[name].generate(seed)
        (out / f"{name}-{seed}.json").write_text(json.dumps(corpus, indent=1))
"""


def reports(corpora: Path) -> Iterator[Tuple[str, List[str]]]:
    """(report name, CLI arguments) of each of the 29 reports."""
    for sub in DEMO_SUBCOMMANDS:
        yield f"demo-{sub}", [sub]
    for name in WORKLOADS:
        for seed in SEEDS:
            corpus = corpora / f"{name}-{seed}.json"
            for sub in CORPUS_SUBCOMMANDS:
                yield f"{name}-{seed}-{sub}", [sub, "--corpus", str(corpus), "--seed", str(seed)]


def write(tree: Path, out: Path) -> None:
    tree, out = tree.resolve(), out.resolve()
    corpora = out / "corpora"
    corpora.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, "-c", _WRITE_CORPORA, str(corpora),
                    ",".join(WORKLOADS), ",".join(map(str, SEEDS))],
                   cwd=tree, env=env, check=True)
    for name, argv in reports(corpora):
        target = out / f"{name}.json"
        # exit 1 marks a failed analysis, which is part of the report
        proc = subprocess.run([sys.executable, "-m", "ddelab.cli", *argv,
                               "--format", "json", "--out", str(target)],
                              cwd=tree, env=env, stderr=subprocess.PIPE)
        if proc.returncode not in (0, 1) or not target.exists():
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"{name}: ddelab exited {proc.returncode}")


def compare(a: Path, b: Path) -> List[str]:
    """Names of the reports that differ, or exist on one side only."""
    names = sorted({p.name for d in (a, b) for p in d.glob("*.json")})
    return [n for n in names
            if not ((a / n).exists() and (b / n).exists()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


def main(argv: List[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("write", "compare"):
        print("usage: contract_reports.py write TREE OUT | compare A B", file=sys.stderr)
        return 2
    if argv[0] == "write":
        write(Path(argv[1]), Path(argv[2]))
        return 0
    differ = compare(Path(argv[1]), Path(argv[2]))
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
