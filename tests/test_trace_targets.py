"""The traced benchmark's wrap targets and hooks still fit the package.

``perfbench/layers.py`` wraps ddelab functions by name, and its hooks read
arguments and results of the wrapped calls (``SeedSpec.build``'s width,
``SeedSpec.width``, a pattern's series, a report's ``samples``).  A target
that no longer exists lands in the tracer's ``absent`` list and a hook that
raises in ``broken``; the traced benchmark then reports the metrics fed by
them as missing.  This runs all five subcommands on the demo corpus under
those wraps, in process, so such a change fails here first.
"""

import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from ddelab import cli  # noqa: E402


def test_every_traced_target_and_hook_fits(tmp_path):
    tracer = Tracer()
    layers.install(tracer)
    try:
        for sub in ("classify", "cascade", "verify", "nev", "limit"):
            out = tmp_path / f"{sub}.json"
            assert cli.run([sub, "--format", "json", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    raw = tracer.snapshot()
    assert raw["absent"] == []
    assert raw["broken"] == []
    metrics = layers.derive(raw, {"numpy_import_s": 0.0, "ddelab_import_s": 0.0})
    assert [name for name, value in metrics.items() if value is None] == []
    # the traced run prints these with json.dumps, which writes NaN and
    # Infinity where a strict reader expects a number
    assert [name for name, value in metrics.items()
            if isinstance(value, bool) or not math.isfinite(value)] == []
    assert len(metrics) == len(layers.PER_LAYER) - 1  # all but the overhead
    # the hooks count a regrowth as a ``SeedSpec.build`` call inside
    # ``run_cascade`` and read the width that a cascade ends at: on the demo
    # every cascade runs once, and the widest starts at 3 (a simple zero)
    assert metrics["cascade.regrowths"] == 0
    assert metrics["cascade.final_width"] == 3
