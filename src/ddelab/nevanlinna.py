"""Value-distribution measurements over exactly known singularity inventories.

The models measured here (the elliptic solution and the exponential) come
with closed-form pole and zero sets, so the counting side of the
characteristic is integer-exact and the only numeric error lives in the
proximity integral.  A table enumerates each inventory once: the counts of
all its radii come from one sorted list of moduli, and one pole list decides
the jitter of every radius.  On each circle the crossings of log|f| = 0 are
found first, and each arc between them where log|f| > 0 gets adaptive
Gauss-Kronrod (7, 15) quadrature, which halves only the panels where log|f|
bends.  A radius is nudged by one part in a million when a pole sits within
a thousandth of it; an arc that reaches the point cap unsettled marks its
row ``settled: false``.  A model whose ``even`` is true has f(-z) = f(z), so
log|f| repeats after a half turn: its circles are measured on [0, pi) alone,
with half the scan nodes, arcs that wrap at pi, and m the arcs' sum over pi.

A table samples its model in batches shared by all its radii: the scans
(1024 nodes a circle), each step of the ITP crossing refinement (at most
37; Oliveira and Takahashi, ACM TOMS 47(1), 2020), the sign test of the
arcs and each quadrature round is one batch over every circle.
``log_abs`` takes and returns arrays; a batch reaches it in slices of at
most 2048 points, which bounds the memory of one Weierstrass evaluation.

Order and hyper-order estimates are least-squares slopes over the sampled
grid, reported with confidence widths and never as asymptotic claims.

Each result is built as the JSON the ``nev`` report prints: the table, the
growth estimates and the ratio checks are plain dicts, and ``proximity``
gives (m, settled) pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np


_JITTER = 1e-6
_POLE_PROXIMITY = 1e-3
_QUAD_TOL = 1e-9
_SCAN_NODES = 1024
_CELL = 2.0 * math.pi / _SCAN_NODES
_ITP_EPS = 2.0**-44  # rad; a crossing off by d moves m by O(d^2 |d log|f|/d theta|) << _QUAD_TOL
_ITP_KAPPA1 = 0.2 / _CELL  # the first step pulls 0.2 of a cell
_ITP_STEPS = math.ceil(math.log2(_CELL / (2.0 * _ITP_EPS))) + 1  # bisection's count + n0 = 1


# ---------------------------------------------------------------------------
# counting side: exact inventories to integrated counts


def counting_data(
    points: Sequence[Tuple[complex, int]], radii: Sequence[float]
) -> List[Tuple[int, int, float, float]]:
    """(n, n_bar, N, N_bar) at every radius from an inventory of (point, mult).

    The moduli are sorted once, and a binary search finds each circle's
    points.  N sums mult log(r/|p|) over them, plus the origin term n(0) log r:
    the logarithmic integral of n, exactly.  Its split n log r - sum log|p|
    would cancel.
    """
    inventory = sorted((abs(p), m) for p, m in points)
    moduli = [ap for ap, _ in inventory]
    mult = np.array([m for _, m in inventory], dtype=np.int64)
    away = np.array([ap or 1.0 for ap in moduli])  # log(r/1) is the origin's log r
    out = []
    for r in radii:
        k = bisect_right(moduli, r)
        logs = np.log(r / away[:k])
        out.append((int(mult[:k].sum()), k, float((mult[:k] * logs).sum()), float(logs.sum())))
    return out


# ---------------------------------------------------------------------------
# proximity side: crossing-split circle quadrature


_CHUNK = 2048
_POINT_CAP = (1 << 13) + 1
# Gauss-Kronrod (7, 15) on [-1, 1] (QUADPACK's qk15): the nodes >= 0 from the
# outside in and their Kronrod weights; the Gauss nodes are every second one
_KRONROD_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_KRONROD_W = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_NODES = np.array([-x for x in _KRONROD_X] + list(_KRONROD_X[-2::-1]))
_K15 = np.array(_KRONROD_W + _KRONROD_W[-2::-1])
_G7 = np.array(_GAUSS_W + _GAUSS_W[-2::-1])


def _sample_circle(model, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """log|f(r_k e^{i theta_k})| at every pair (r_k, theta_k), clamped for the quadrature.

    A pole, an overflow or any other non-finite value is retried once at
    theta + 1e-9; an exact zero (log 0), or a retry that fails too, gives
    -1e300, which contributes nothing to log+.
    """
    out = np.empty(theta.shape)
    with np.errstate(all="ignore"):
        for start in range(0, theta.size, _CHUNK):
            t, rt = theta[start:start + _CHUNK], r[start:start + _CHUNK]
            v = np.array(model.log_abs(rt * np.exp(1j * t)), dtype=float)
            bad = np.isnan(v) | (v == np.inf)
            if bad.any():
                again = np.asarray(
                    model.log_abs(rt[bad] * np.exp(1j * (t[bad] + 1e-9))), dtype=float
                )
                v[bad] = np.where(np.isfinite(again), again, -np.inf)
            v[v == -np.inf] = -1e300
            out[start:start + t.size] = v
    return out


def _romberg(
    fn: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, tol: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive Gauss-Kronrod (7, 15) quadrature on every [a_k, b_k].

    The name is older than the rule; traced runs wrap it by this name.
    Each round samples the 15 nodes of every open panel of every interval
    in one call of ``fn``.  An interval runs parallel to the real axis: the
    imaginary part its ends share reaches ``fn`` unchanged, which is how
    ``proximity`` integrates the arcs of all its circles in one run.  A
    panel is accepted when |K15 - G7| is at most its share of its interval's
    length of tol_k * (1 + |estimate_k|); the others are halved.  An
    interval whose next round would take it past _POINT_CAP points stops
    unsettled with the open panels' K15 values.  The estimate of an interval
    sums its panels from left to right, so it does not depend on the other
    intervals.  Returns the estimates and the settled flags.
    """
    k, length = a.size, (b - a).real
    settled, used = np.ones(k, dtype=bool), np.zeros(k, dtype=np.int64)
    # every panel, left to right within each interval: owner, left end,
    # half width, K15 value and whether it still refines
    owner, left, half, value = np.arange(k), a, length / 2.0, np.zeros(k)
    live = np.ones(k, dtype=bool)
    while live.any():
        idx = np.flatnonzero(live)
        h = half[idx]
        x = (left[idx] + h)[:, None] + h[:, None] * _NODES
        f = fn(x.ravel()).reshape(x.shape)
        kronrod = h * (f * _K15).sum(axis=1)
        gauss = h * (f[:, 1::2] * _G7).sum(axis=1)
        value[idx] = kronrod
        used += _NODES.size * np.bincount(owner[idx], minlength=k)
        estimate = np.bincount(owner, weights=value, minlength=k)
        arc = owner[idx]
        # |K15 - G7| <= tol_k * (2h / length_k) * (1 + |estimate_k|), times
        # length_k so that an interval of length 0 divides by nothing
        bound = tol[arc] * 2.0 * h * (1.0 + np.abs(estimate[arc]))
        split = np.zeros(owner.size, dtype=bool)
        split[idx] = ~(np.abs(kronrod - gauss) * length[arc] <= bound)
        need = 2 * _NODES.size * np.bincount(owner[split], minlength=k)
        over = (need > 0) & (used + need > _POINT_CAP)
        settled &= ~over
        split &= ~over[owner]
        # a split panel becomes its two halves, in place
        twice = np.where(split, 2, 1)
        right = np.zeros(int(twice.sum()), dtype=bool)
        right[np.cumsum(twice)[split] - 1] = True
        owner, left, half, value = (np.repeat(v, twice) for v in (owner, left, half, value))
        live = np.repeat(split, twice)
        left = np.where(right, left + half, left)
        half = np.where(live, half / 2.0, half)
    return np.bincount(owner, weights=value, minlength=k), settled


def proximity(model, radii: Sequence[float]) -> List[Tuple[float, bool]]:
    """(m, settled) for every r in radii: m(r, f), the mean of log+|f| over
    the circle |z| = r, and whether every arc's quadrature settled below the cap.

    Each circle is scanned for sign changes of log|f|, each crossing is
    bracketed to 2^-43 rad, and every positive arc is integrated
    separately by ``_romberg``; the kinks of log+ then never sit inside an
    integration interval.  The poles are enumerated once, out to the largest
    radius's proximity window, and ``_jittered_radius`` moves each radius off
    any pole modulus in its window so that its scan sees finite values.  For an even
    model the circle is the half turn [0, pi): the first half of the scan nodes,
    arcs that wrap at pi, and the arcs' sum divided by pi.  Every batch,
    the scan included, spans all circles, and a point gets the arithmetic
    it gets alone, so no radius's result depends on the other radii.  ITP
    step j samples each cell of width w > 2 _ITP_EPS at its regula falsi point,
    moved max(_ITP_KAPPA1 w^2, _ITP_EPS/2) towards the midpoint and held within
    _ITP_EPS 2^(_ITP_STEPS - j) - w/2 of it; no cell takes over _ITP_STEPS steps.
    """
    reach = max(radii) * (1.0 + 2.0 * _POLE_PROXIMITY)
    moduli = sorted(abs(p) for p, _ in model.poles_upto(reach))
    circles = [_jittered_radius(moduli, r) for r in radii]
    turn = math.pi if model.even else 2.0 * math.pi  # log|f(-z)| = log|f(z)| for an even f
    nodes = np.arange(round(turn / _CELL)) * _CELL
    scans = _sample_circle(model, np.repeat(circles, nodes.size), np.tile(nodes, len(circles)))
    scans = scans.reshape(len(circles), nodes.size)
    succ = np.roll(scans, -1, axis=1)  # cell k runs from node k to node k + 1
    cells = [np.flatnonzero((v > 0.0) != (u > 0.0)) for v, u in zip(scans, succ)]
    r_cell = np.repeat(circles, [c.size for c in cells])
    ends = np.concatenate([np.column_stack([c, c + 1]) for c in cells]) * _CELL
    vals = np.concatenate([np.column_stack([v, u])[c] for v, u, c in zip(scans, succ, cells)])
    for j in range(_ITP_STEPS):
        idx = np.flatnonzero(ends[:, 1] - ends[:, 0] > 2.0 * _ITP_EPS)
        if not idx.size:
            break
        (a, b), (fa, fb) = ends[idx].T, vals[idx].T
        mid, falsi = (a + b) / 2.0, a + (b - a) * fa / (fa - fb)
        delta = np.maximum(_ITP_KAPPA1 * (b - a) ** 2, _ITP_EPS / 2.0)
        reach = _ITP_EPS * 2.0 ** (_ITP_STEPS - j) - (b - a) / 2.0
        x = mid - np.sign(mid - falsi) * np.clip(np.abs(mid - falsi) - delta, 0.0, reach)
        fx = _sample_circle(model, r_cell[idx], x)
        side = ((fa > 0.0) != (fx > 0.0)).astype(np.intp)  # the end x replaces
        ends[idx, side], vals[idx, side] = x, fx
    # arcs between crossings, circle after circle; one sign all round is one arc
    bounds = [
        np.append(c, c[0] + turn) if c.size else np.array([0.0, turn])
        for c in np.split((ends[:, 0] + ends[:, 1]) / 2.0, np.cumsum([c.size for c in cells])[:-1])
    ]
    a = np.concatenate([x[:-1] for x in bounds])
    b = np.concatenate([x[1:] for x in bounds])
    owner = np.repeat(np.arange(len(bounds)), [x.size - 1 for x in bounds])
    r_arc = np.asarray(circles)[owner]
    positive = _sample_circle(model, r_arc, (a + b) / 2.0) > 0.0
    a, b, r_arc, owner = a[positive], b[positive], r_arc[positive], owner[positive]
    totals, settled = _romberg(
        lambda x: _sample_circle(model, x.imag, x.real),
        a + 1j * r_arc, b + 1j * r_arc, _QUAD_TOL * np.maximum(b - a, 1e-3),
    )
    return [(sum(totals[owner == k].tolist(), 0.0) / turn, bool(settled[owner == k].all()))
            for k in range(len(circles))]


def _jittered_radius(moduli: Sequence[float], r: float) -> float:
    """r, or r moved by _JITTER away from the nearest pole within _POLE_PROXIMITY r.

    ``moduli`` are the sorted pole moduli out to at least r (1 + 2 _POLE_PROXIMITY).
    r moves out if that pole is inside or on the circle; a tie goes to the
    first pole in sorted order.
    """
    reach = 2.0 * _POLE_PROXIMITY * r  # wider than the window, so rounding misses no pole
    lo = bisect_left(moduli, r - reach)
    gaps = [abs(ap - r) for ap in moduli[lo:bisect_left(moduli, r + reach)]]
    if not gaps or min(gaps) > _POLE_PROXIMITY * r:
        return r
    direction = 1.0 if moduli[lo + gaps.index(min(gaps))] <= r else -1.0
    return r * (1.0 + direction * _JITTER)


# ---------------------------------------------------------------------------
# the characteristic table


def log_grid(r_min: float, r_max: float, count: int = 24) -> List[float]:
    """Logarithmically spaced radii, endpoints included."""
    if not (0 < r_min < r_max) or count < 2:
        raise ValueError("need 0 < r_min < r_max and at least two radii")
    ratio = (r_max / r_min) ** (1.0 / (count - 1))
    return [r_min * ratio**i for i in range(count)]


def characteristic_table(model, r_grid: Sequence[float]) -> Dict[str, Any]:
    """Counting and proximity data for each radius of an increasing grid.

    Returns ``{"model": model.describe(), "rows": [...]}``; a row holds r, the
    pole counts n, n_bar, N and N_bar, m, T = m + N, the zero counts n_zero,
    nbar_zero, N_zero and Nbar_zero, and whether m settled.
    """
    grid = list(r_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("radius grid must be strictly increasing")
    poles = counting_data(model.poles_upto(grid[-1]), grid)
    zeros = counting_data(model.zeros_upto(grid[-1]), grid)
    rows = [
        {"r": r, "n": n, "n_bar": n_bar, "N": N, "N_bar": N_bar, "m": m, "T": m + N,
         "n_zero": nz, "nbar_zero": nbz, "N_zero": Nz, "Nbar_zero": Nbz, "settled": settled}
        for r, (m, settled), (n, n_bar, N, N_bar), (nz, nbz, Nz, Nbz)
        in zip(grid, proximity(model, grid), poles, zeros)
    ]
    return {"model": model.describe(), "rows": rows}


# ---------------------------------------------------------------------------
# growth estimates


def _slope_with_width(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and a two-sigma width from the residuals of n > 2 points."""
    x = np.asarray(xs)
    y = np.asarray(ys)
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    slope = float(np.dot(xm, y) / denom)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    return slope, 2.0 * math.sqrt(float(np.dot(resid, resid)) / (len(x) - 2) / denom)


def growth_estimates(table: Dict[str, Any]) -> Dict[str, Any]:
    """Order, hyper-order, and pole hyper-exponent slopes from a table.

    The order is the slope of log T against log r, the hyper-order the
    slope of log log T, and the pole exponent the analogue built from the
    raw pole counts.  Rows without enough growth for the log-log transform
    are dropped from that fit; shortage of usable rows is flagged rather
    than hidden.
    """
    usable = [row for row in table["rows"] if row["T"] > math.e]
    if len(usable) < 8:
        raise ValueError(
            f"need at least 8 rows with T > e for a fit; have {len(usable)}"
        )
    logr = [math.log(row["r"]) for row in usable]
    logT = [math.log(row["T"]) for row in usable]
    order, order_w = _slope_with_width(logr, logT)
    hyper = hyper_w = None
    notes = []
    hy = [(lr, math.log(lt)) for lr, lt in zip(logr, logT) if lt > 0]
    if len(hy) >= 8:
        hyper, hyper_w = _slope_with_width([p[0] for p in hy], [p[1] for p in hy])
    else:
        notes.append("too few rows with log T > 0 for a hyper-order fit")
    pole = pole_w = None
    pn = [
        (math.log(row["r"]), math.log(math.log(row["n"])))
        for row in usable
        if row["n"] >= 3
    ]
    if len(pn) >= 8:
        pole, pole_w = _slope_with_width([p[0] for p in pn], [p[1] for p in pn])
    else:
        notes.append("too few rows with n >= 3 for a pole-exponent fit")
    low = order_w > 0.25 or (hyper is not None and hyper_w > 0.25)
    if low:
        notes.append("fit widths exceed 0.25; treat estimates as indicative")
    return {
        "order": order, "order_width": order_w,
        "hyper_order": hyper, "hyper_order_width": hyper_w,
        "pole_hyper": pole, "pole_hyper_width": pole_w,
        "low_confidence": low, "note": "; ".join(notes),
    }


# ---------------------------------------------------------------------------
# ratio reports


def ratio_checks(table: Dict[str, Any]) -> Dict[str, Any]:
    """Per-radius distinct-zero share of the characteristic, against the
    zero-density threshold of 3/4.

    Reads an already built characteristic table.  A row whose T is too small
    for a ratio is kept with a null ratio and a note.
    """
    rows = []
    for row in table["rows"]:
        small = row["T"] < 1e-9
        rows.append({
            "r": row["r"],
            "zero_ratio": None if small else row["Nbar_zero"] / row["T"],
            "note": "T too small; row skipped" if small else "",
            # columns no longer measured stay null so report layouts stay the same
            "degree_gap_lhs": None, "zero_count_rhs": None, "power_ratio": None,
        })
    return {"threshold": 0.75, "rows": rows}
