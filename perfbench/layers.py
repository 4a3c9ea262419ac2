"""Which ddelab functions the traced run wraps, and the per-layer metrics.

``install`` wraps the public functions of each module with spans and hooks,
plus three private helpers whose work no public function exposes:
``fieldelem._reduce`` (every ``FieldElem`` construction), and the Romberg
quadrature and radius jitter of ``nevanlinna``.  ``derive`` turns the merged
aggregates of one workload pass into the per-layer metrics in ``PER_LAYER``.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

from tracer import CALLS, CPU_S, SELF_S, WALL_S, Tracer

# _romberg in nevanlinna refines up to level 13: two end points plus
# 2^13 - 1 midpoints when it never settles
ROMBERG_CAP_EVALS = 2 + (1 << 13) - 1

WINDOW_OFFSETS = (1, 2, 3, 4)


def _nterms(x) -> int:
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


def _mul_products(st, frame, args, kwargs):
    st.count("mpoly.term_products", _nterms(args[0]) * _nterms(args[1]))


def _dot_products(st, frame, args, kwargs):
    pairs = list(args[0])
    st.count("mpoly.term_products", sum(_nterms(p) * _nterms(q) for p, q in pairs))
    return (pairs,) + tuple(args[1:])


def _convolve_products(st, frame, args, kwargs):
    avec, bvec = list(args[0]), list(args[1])
    width = args[2] if len(args) > 2 else kwargs["width"]
    prefix = [0] + list(accumulate(_nterms(b) for b in bvec))
    total = 0
    for i, a in enumerate(avec[:width]):
        total += _nterms(a) * prefix[min(width - i, len(bvec))]
    st.count("mpoly.term_products", total)
    return (avec, bvec) + tuple(args[2:])


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.terms.values():
        for part in (c.re, c.im):
            if part:
                bits = max(bits, int(part.numerator).bit_length(),
                           int(part.denominator).bit_length())
    return bits


def _cascade_enter(st, frame, args, kwargs):
    seed = args[1] if len(args) > 1 else kwargs["seed"]
    frame[2] = {"c0": time.thread_time(), "last_build": None, "width": seed.width}


def _cascade_exit(st, frame, args, kwargs, pattern):
    data = frame[2]
    st.maximum("cascade.final_width", data["width"])
    if data["last_build"] is not None:
        st.count("cascade.replay_s", data["last_build"] - data["c0"])
    for entry in pattern.entries:
        if entry.offset not in WINDOW_OFFSETS:
            continue
        series = entry.series
        prefix = f"cascade.j{entry.offset}"
        st.maximum(prefix + ".num_terms", sum(len(n.terms) for n in series.nums))
        st.maximum(prefix + ".den_terms", len(series.den.terms))
        bits = max([_coeff_bits(series.den)] + [_coeff_bits(n) for n in series.nums])
        st.maximum(prefix + ".coeff_bits", bits)


def _seed_build(st, frame, args, kwargs):
    cascade = st.innermost("cascade.run_cascade")
    if cascade is None:
        return
    st.count("cascade.regrowths")
    cascade[2]["last_build"] = time.thread_time()
    cascade[2]["width"] = args[1] if len(args) > 1 else kwargs["width"]


def _proximity_enter(st, frame, args, kwargs):
    agg = st.spans.get("analytic.log_abs")
    frame[2] = agg[CALLS] if agg else 0


def _proximity_exit(st, frame, args, kwargs, result):
    agg = st.spans.get("analytic.log_abs")
    st.count("nevanlinna.proximity.evals", (agg[CALLS] if agg else 0) - frame[2])


def _romberg_enter(st, frame, args, kwargs):
    fn = args[0]
    counter = [0]

    def counted(x):
        counter[0] += 1
        return fn(x)

    frame[2] = counter
    return (counted,) + tuple(args[1:])


def _romberg_exit(st, frame, args, kwargs, result):
    evals = frame[2][0]
    st.count("nevanlinna.romberg.evals", evals)
    if evals >= ROMBERG_CAP_EVALS:
        st.count("nevanlinna.romberg.unsettled")


def _jitter_exit(st, frame, args, kwargs, r_used):
    requested = args[1] if len(args) > 1 else kwargs["r"]
    if r_used != requested:
        st.count("nevanlinna.radius_jitters")


def _corpus_exit(st, frame, args, kwargs, entries):
    st.count("corpus.entries", len(entries))


def _verify_exit(st, frame, args, kwargs, report):
    st.count("analytic.verify.evals", report.samples)


# span name, target, before hook, after hook
SPANS: List[Tuple[str, str, Optional[Callable], Optional[Callable]]] = [
    ("cli.run", "ddelab.cli:run", None, None),
    ("corpus.load_corpus", "ddelab.corpus:load_corpus", None, _corpus_exit),
    ("exprparse.parse_expression", "ddelab.exprparse:parse_expression", None, None),
    ("classify.classify", "ddelab.classify:classify", None, None),
    ("mpoly.mul", "ddelab.mpoly:MPoly.__mul__", _mul_products, None),
    ("mpoly.dot", "ddelab.mpoly:MPoly.dot", _dot_products, None),
    ("mpoly.convolve", "ddelab.mpoly:MPoly.convolve", _convolve_products, None),
    ("fieldelem.reduce", "ddelab.fieldelem:_reduce", None, None),
    ("laurent.mul", "ddelab.laurent:LaurentSeries.__mul__", None, None),
    ("laurent.inverse", "ddelab.laurent:LaurentSeries.inverse", None, None),
    ("laurent.canonical", "ddelab.laurent:LaurentSeries.canonical", None, None),
    ("laurent.compose_rational", "ddelab.laurent:compose_rational", None, None),
    ("model.normal_form_series", "ddelab.model:normal_form_series", None, None),
    ("cascade.cascade_step", "ddelab.cascade:cascade_step", None, None),
    ("cascade.run_cascade", "ddelab.cascade:run_cascade", _cascade_enter, _cascade_exit),
    ("cascade.SeedSpec.build", "ddelab.cascade:SeedSpec.build", _seed_build, None),
    ("cascade.confinement_report", "ddelab.cascade:confinement_report", None, None),
    ("wp.eval", "ddelab.wp:WeierstrassP.eval", None, None),
    ("wp.construct", "ddelab.wp:WeierstrassP.__init__", None, None),
    ("wp.lattice_points_in_disk", "ddelab.wp:WeierstrassP.lattice_points_in_disk", None, None),
    ("analytic.log_abs", "ddelab.analytic:EllipticSolutionModel.log_abs", None, None),
    ("analytic.log_abs", "ddelab.analytic:ExponentialModel.log_abs", None, None),
    ("analytic.verify", "ddelab.analytic:verify_elliptic_family", None, _verify_exit),
    ("analytic.verify", "ddelab.analytic:verify_exponential", None, _verify_exit),
    ("analytic.verify", "ddelab.analytic:mkdv_reduction_check", None, _verify_exit),
    ("analytic.continuum_limit", "ddelab.analytic:continuum_limit", None, None),
    ("nevanlinna.characteristic_table", "ddelab.nevanlinna:characteristic_table", None, None),
    ("nevanlinna.proximity", "ddelab.nevanlinna:proximity", _proximity_enter, _proximity_exit),
    ("nevanlinna.romberg", "ddelab.nevanlinna:_romberg", _romberg_enter, _romberg_exit),
    ("nevanlinna.jittered_radius", "ddelab.nevanlinna:_jittered_radius", None, _jitter_exit),
    ("nevanlinna.growth_estimates", "ddelab.nevanlinna:growth_estimates", None, None),
    ("nevanlinna.ratio_checks", "ddelab.nevanlinna:ratio_checks", None, None),
]


# spans whose metrics need wall time, and hot spans that wrap no other span
WALL_SPANS = frozenset({"cli.run", "nevanlinna.characteristic_table", "nevanlinna.proximity"})
LEAF_SPANS = frozenset({"wp.eval"})


def install(tracer: Tracer) -> None:
    for name, target, before, after in SPANS:
        tracer.install(name, target, before, after,
                       wall=name in WALL_SPANS, leaf=name in LEAF_SPANS)


# metric name, unit, better, (kind, source span or counter, field)
# kinds: span field, counter, maximum, ratio of a counter to a span's calls
_S = "s"
_N = "count"
PER_LAYER: List[Tuple[str, str, str, tuple]] = [
    ("numpy.import_s", _S, "lower", ("import", "numpy_import_s", None)),
    ("ddelab.import_s", _S, "lower", ("import", "ddelab_import_s", None)),
    ("corpus.load_corpus.self_s", _S, "lower", ("span", "corpus.load_corpus", SELF_S)),
    ("corpus.entries", _N, "higher", ("count", "corpus.entries", "corpus.load_corpus")),
    ("exprparse.parse_expression.calls", _N, "lower", ("span", "exprparse.parse_expression", CALLS)),
    ("exprparse.parse_expression.self_s", _S, "lower", ("span", "exprparse.parse_expression", SELF_S)),
    ("classify.classify.calls", _N, "lower", ("span", "classify.classify", CALLS)),
    ("classify.classify.self_s", _S, "lower", ("span", "classify.classify", SELF_S)),
    ("mpoly.mul.calls", _N, "lower", ("span", "mpoly.mul", CALLS)),
    ("mpoly.mul.self_s", _S, "lower", ("span", "mpoly.mul", SELF_S)),
    ("mpoly.dot.calls", _N, "lower", ("span", "mpoly.dot", CALLS)),
    ("mpoly.dot.self_s", _S, "lower", ("span", "mpoly.dot", SELF_S)),
    ("mpoly.convolve.calls", _N, "lower", ("span", "mpoly.convolve", CALLS)),
    ("mpoly.convolve.self_s", _S, "lower", ("span", "mpoly.convolve", SELF_S)),
    ("mpoly.term_products", _N, "lower", ("count", "mpoly.term_products", "mpoly.mul")),
    ("fieldelem.reduce.calls", _N, "lower", ("span", "fieldelem.reduce", CALLS)),
    ("fieldelem.reduce.self_s", _S, "lower", ("span", "fieldelem.reduce", SELF_S)),
    ("laurent.mul.calls", _N, "lower", ("span", "laurent.mul", CALLS)),
    ("laurent.mul.self_s", _S, "lower", ("span", "laurent.mul", SELF_S)),
    ("laurent.inverse.calls", _N, "lower", ("span", "laurent.inverse", CALLS)),
    ("laurent.inverse.self_s", _S, "lower", ("span", "laurent.inverse", SELF_S)),
    ("laurent.canonical.calls", _N, "lower", ("span", "laurent.canonical", CALLS)),
    ("laurent.canonical.self_s", _S, "lower", ("span", "laurent.canonical", SELF_S)),
    ("laurent.compose_rational.calls", _N, "lower", ("span", "laurent.compose_rational", CALLS)),
    ("laurent.compose_rational.self_s", _S, "lower", ("span", "laurent.compose_rational", SELF_S)),
    ("model.normal_form_series.calls", _N, "lower", ("span", "model.normal_form_series", CALLS)),
    ("model.normal_form_series.self_s", _S, "lower", ("span", "model.normal_form_series", SELF_S)),
    ("cascade.cascade_step.calls", _N, "lower", ("span", "cascade.cascade_step", CALLS)),
    ("cascade.cascade_step.self_s", _S, "lower", ("span", "cascade.cascade_step", SELF_S)),
    ("cascade.run_cascade.calls", _N, "lower", ("span", "cascade.run_cascade", CALLS)),
    ("cascade.regrowths", _N, "lower", ("count", "cascade.regrowths", "cascade.SeedSpec.build")),
    ("cascade.final_width", _N, "lower", ("max", "cascade.final_width", "cascade.run_cascade")),
    ("cascade.replay_s", _S, "lower", ("count", "cascade.replay_s", "cascade.SeedSpec.build")),
    ("cascade.confinement_report.self_s", _S, "lower", ("span", "cascade.confinement_report", SELF_S)),
]
for _j in WINDOW_OFFSETS:
    for _field, _unit in (("num_terms", "terms"), ("den_terms", "terms"), ("coeff_bits", "bits")):
        PER_LAYER.append((
            f"cascade.j{_j}.{_field}", _unit, "lower",
            ("max", f"cascade.j{_j}.{_field}", "cascade.run_cascade"),
        ))
PER_LAYER += [
    ("wp.eval.calls", _N, "lower", ("span", "wp.eval", CALLS)),
    ("wp.eval.self_s", _S, "lower", ("span", "wp.eval", SELF_S)),
    ("wp.eval.ns_per_call", "ns", "lower", ("per_call_ns", "wp.eval", SELF_S)),
    ("wp.construct.self_s", _S, "lower", ("span", "wp.construct", SELF_S)),
    ("wp.lattice_points_in_disk.calls", _N, "lower", ("span", "wp.lattice_points_in_disk", CALLS)),
    ("wp.lattice_points_in_disk.self_s", _S, "lower", ("span", "wp.lattice_points_in_disk", SELF_S)),
    ("analytic.log_abs.calls", _N, "lower", ("span", "analytic.log_abs", CALLS)),
    ("analytic.log_abs.self_s", _S, "lower", ("span", "analytic.log_abs", SELF_S)),
    ("analytic.verify.self_s", _S, "lower", ("span", "analytic.verify", SELF_S)),
    ("analytic.verify.evals", _N, "higher", ("count", "analytic.verify.evals", "analytic.verify")),
    ("analytic.continuum_limit.self_s", _S, "lower", ("span", "analytic.continuum_limit", SELF_S)),
    ("nevanlinna.characteristic_table.calls", _N, "lower", ("span", "nevanlinna.characteristic_table", CALLS)),
    ("nevanlinna.characteristic_table.wall_s", _S, "lower", ("span", "nevanlinna.characteristic_table", WALL_S)),
    ("nevanlinna.proximity.calls", _N, "lower", ("span", "nevanlinna.proximity", CALLS)),
    ("nevanlinna.proximity.busy_s", _S, "lower", ("span", "nevanlinna.proximity", CPU_S)),
    ("nevanlinna.proximity.wait_s", _S, "lower", ("wait", "nevanlinna.proximity", None)),
    ("nevanlinna.proximity.evals_per_call", "evals/call", "lower",
     ("count_per_call", "nevanlinna.proximity.evals", "nevanlinna.proximity")),
    ("nevanlinna.romberg.calls", _N, "lower", ("span", "nevanlinna.romberg", CALLS)),
    ("nevanlinna.romberg.evals_per_call", "evals/call", "lower",
     ("count_per_call", "nevanlinna.romberg.evals", "nevanlinna.romberg")),
    ("nevanlinna.romberg.unsettled", _N, "lower", ("count", "nevanlinna.romberg.unsettled", "nevanlinna.romberg")),
    ("nevanlinna.radius_jitters", _N, "lower", ("count", "nevanlinna.radius_jitters", "nevanlinna.jittered_radius")),
    ("nevanlinna.growth_estimates.self_s", _S, "lower", ("span", "nevanlinna.growth_estimates", SELF_S)),
    ("nevanlinna.ratio_checks.self_s", _S, "lower", ("span", "nevanlinna.ratio_checks", SELF_S)),
    ("cli.run.wall_s", _S, "lower", ("span", "cli.run", WALL_S)),
    ("trace.overhead_frac", "fraction", "lower", ("overhead", None, None)),
]

# count metrics: identical on every traced run of the same corpus
COUNT_METRICS = frozenset(
    name for name, unit, _, _ in PER_LAYER if unit in (_N, "terms", "bits")
)


def derive(raw: dict, imports: Dict[str, float]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one pass; None marks a metric that cannot be had.

    A span metric is missing when its function no longer exists; a counter
    metric also when the hook that feeds it failed.  ``overhead`` metrics
    need untraced passes and are filled in by the caller.
    """
    spans, counts, maxima = raw["spans"], raw["counts"], raw["maxima"]
    absent = set(raw["absent"])
    unfed = absent | set(raw["broken"])
    out: Dict[str, Optional[float]] = {}
    for name, _, _, (kind, source, field) in PER_LAYER:
        if kind == "import":
            out[name] = imports[source]
        elif kind == "overhead":
            continue
        elif kind in ("span", "per_call_ns", "wait"):
            if source in absent:
                out[name] = None
                continue
            agg = spans.get(source, [0, 0.0, 0.0, 0.0])
            if kind == "span":
                out[name] = agg[field]
            elif kind == "wait":
                out[name] = agg[WALL_S] - agg[CPU_S]
            else:
                out[name] = agg[field] / agg[CALLS] * 1e9 if agg[CALLS] else 0.0
        elif field in unfed:
            out[name] = None
        elif kind == "count_per_call":
            calls = spans.get(field, [0])[CALLS]
            out[name] = counts.get(source, 0) / calls if calls else 0.0
        else:
            table = counts if kind == "count" else maxima
            out[name] = table.get(source, 0)
    return out
