"""One ddelab invocation in a fresh interpreter, measured from inside.

Usage: child.py METRICS_OUT TRACE -- <ddelab arguments>

Times ``import numpy`` and then ``import ddelab.cli`` (the fixed cost every
user invocation pays), then ``ddelab.cli.run(argv)``; records this process's
own peak resident memory with RUSAGE_SELF; with TRACE=1 wraps the layers
first and adds their aggregates.  Writes one JSON object to METRICS_OUT.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402

t1 = time.perf_counter()
import ddelab.cli  # noqa: E402

t2 = time.perf_counter()

import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    out_path, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py METRICS_OUT TRACE -- <ddelab arguments>")
    tracer = None
    if trace_flag == "1":
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    start = time.perf_counter()
    code = ddelab.cli.run(argv)
    analysis_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "exit_code": code,
        "numpy_import_s": t1 - t0,
        "ddelab_import_s": t2 - t1,
        "analysis_s": analysis_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    with open(out_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
