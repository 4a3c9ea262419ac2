"""Value-distribution measurements over exactly known singularity inventories.

The models measured here (the elliptic solution and the exponential) come
with closed-form pole and zero sets, so the counting side of the
characteristic is integer-exact and the only numeric error lives in the
proximity integral.  That integral is taken over each circle
by locating the crossings of log|f| = 0 first and then applying iterated
trapezoid refinement with Richardson extrapolation on every smooth arc in
between; a radius is nudged by one part in a million when a pole sits
within a thousandth of it.  An arc whose refinement reaches the level cap
unsettled marks its table row ``settled: false``.

Models are sampled on arrays: ``log_abs`` takes an array of points and
returns an array, so the 1024-node scan of a circle, each bisection step
over all its crossings, and each refinement level over all its arcs are
one batch each.  Batches are cut into slices of at most 2048 points, which
bounds the working memory of one Weierstrass evaluation without costing
time.

Order and hyper-order estimates are least-squares slopes over the sampled
grid, reported with confidence widths and never as asymptotic claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import DelayDiffEq, EqKind, rational_degree

_JITTER = 1e-6
_POLE_PROXIMITY = 1e-3
_QUAD_TOL = 1e-9
_SCAN_NODES = 1024


# ---------------------------------------------------------------------------
# counting side: exact inventories to integrated counts


def counting_data(points: Sequence[Tuple[complex, int]], r: float) -> Tuple[int, int, float, float]:
    """(n, n_bar, N, N_bar) at radius r from an inventory of (point, mult).

    The integrated counts use the closed form sum of log(r/|p|) plus the
    origin term n(0) log r, which equals the standard logarithmic integral
    of n exactly.
    """
    n = 0
    n_bar = 0
    acc = 0.0
    acc_bar = 0.0
    logr = math.log(r)
    for p, mult in points:
        ap = abs(p)
        if ap > r:
            continue
        n += mult
        n_bar += 1
        if ap == 0.0:
            acc += mult * logr
            acc_bar += logr
        else:
            acc += mult * math.log(r / ap)
            acc_bar += math.log(r / ap)
    return n, n_bar, acc, acc_bar


# ---------------------------------------------------------------------------
# proximity side: crossing-split circle quadrature


# new sample points are handed to a model at most this many at a time; the
# temporaries of one Weierstrass batch stay small however many arcs refine
_CHUNK = 2048


class Proximity(NamedTuple):
    """m(r, f), and whether every arc's quadrature settled below the cap."""

    m: float
    settled: bool


def _sample_circle(model, r: float, theta: np.ndarray) -> np.ndarray:
    """log|f(r e^{i theta})| at every angle, clamped for the quadrature.

    A pole, an overflow or any other non-finite value is retried once at
    theta + 1e-9; an exact zero (log 0), or a retry that fails too, gives
    -1e300, which contributes nothing to log+.
    """
    out = np.empty(theta.shape)
    with np.errstate(all="ignore"):
        for start in range(0, theta.size, _CHUNK):
            t = theta[start:start + _CHUNK]
            v = np.array(model.log_abs(r * np.exp(1j * t)), dtype=float)
            bad = np.isnan(v) | (v == np.inf)
            if bad.any():
                again = np.asarray(
                    model.log_abs(r * np.exp(1j * (t[bad] + 1e-9))), dtype=float
                )
                v[bad] = np.where(np.isfinite(again), again, -np.inf)
            v[v == -np.inf] = -1e300
            out[start:start + t.size] = v
    return out


def _romberg(
    fn: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, tol: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Iterated trapezoid with Richardson extrapolation on every [a_k, b_k].

    Each level samples the new midpoints of all intervals still refining in
    one call of ``fn``.  An interval stops at its first level >= 3 whose
    extrapolated value moved by at most tol_k * (1 + |value|); after level
    13 the rest stop unsettled.  Returns the estimates and the settled flags.
    """
    k = a.size
    estimate = np.empty(k)
    settled = np.zeros(k, dtype=bool)
    live = np.arange(k)
    h = b - a
    ends = fn(np.concatenate([a, b]))
    prev = (h * (ends[:k] + ends[k:]) / 2.0)[:, None]
    for level in range(1, 14):
        h = h / 2.0
        odd = 2.0 * np.arange(1 << (level - 1)) + 1.0
        x = a[live][:, None] + odd[None, :] * h[:, None]
        s = fn(x.ravel()).reshape(x.shape).sum(axis=1)
        row = np.empty((live.size, level + 1))
        row[:, 0] = prev[:, 0] / 2.0 + h * s
        for j in range(level):
            factor = 4.0 ** (j + 1)
            row[:, j + 1] = (factor * row[:, j] - prev[:, j]) / (factor - 1.0)
        moved = np.abs(row[:, -1] - prev[:, -1])
        settles = (moved <= tol[live] * (1.0 + np.abs(row[:, -1]))) & (level >= 3)
        done = settles | (level == 13)
        estimate[live[done]] = row[done, -1]
        settled[live[done]] = settles[done]
        live, prev, h = live[~done], row[~done], h[~done]
        if live.size == 0:
            break
    return estimate, settled


def proximity(model, r: float, tol: float = _QUAD_TOL) -> Proximity:
    """m(r, f): mean of log+|f| over the circle of radius r.

    The circle is scanned for sign changes of log|f|, each crossing is
    bisected to machine precision, and every positive arc is integrated
    separately; the kinks of log+ then never sit inside an integration
    interval.  The radius is jittered away from any pole modulus within
    the proximity window so the scan sees finite values.  The scan, each
    bisection step and each refinement level sample all their points in
    one batch.
    """
    r_used = _jittered_radius(model, r)

    def g(theta: np.ndarray) -> np.ndarray:
        return _sample_circle(model, r_used, theta)

    step = 2.0 * math.pi / _SCAN_NODES
    vals = g(np.arange(_SCAN_NODES) * step)
    positive = vals > 0.0
    cells = np.flatnonzero(positive != np.roll(positive, -1))
    if cells.size == 0:
        # one sign all round: the whole circle is a single arc
        a, b = np.array([0.0]), np.array([2.0 * math.pi])
    else:
        lo = cells * step
        hi = (cells + 1) * step
        flo = vals[cells]
        for _ in range(60):
            mid = (lo + hi) / 2.0
            fm = g(mid)
            same = (flo > 0.0) == (fm > 0.0)
            lo = np.where(same, mid, lo)
            flo = np.where(same, fm, flo)
            hi = np.where(same, hi, mid)
        crossings = (lo + hi) / 2.0
        bounds = np.append(crossings, crossings[0] + 2.0 * math.pi)
        a, b = bounds[:-1], bounds[1:]
    positive_arc = g((a + b) / 2.0) > 0.0
    a, b = a[positive_arc], b[positive_arc]
    if a.size == 0:
        return Proximity(0.0, True)
    seg_tol = tol * np.maximum(b - a, 1e-3)
    totals, settled = _romberg(g, a, b, seg_tol)
    return Proximity(sum(totals.tolist(), 0.0) / (2.0 * math.pi), bool(settled.all()))


def _jittered_radius(model, r: float) -> float:
    poles = model.poles_upto(r * (1.0 + 2.0 * _POLE_PROXIMITY))
    offend = [abs(p) for p, _ in poles if abs(abs(p) - r) <= _POLE_PROXIMITY * r]
    if not offend:
        return r
    nearest = min(offend, key=lambda ap: abs(ap - r))
    direction = 1.0 if nearest <= r else -1.0
    return r * (1.0 + direction * _JITTER)


# ---------------------------------------------------------------------------
# the characteristic table


@dataclass(frozen=True)
class NevRow:
    r: float
    n: int
    n_bar: int
    N: float
    N_bar: float
    m: float
    T: float
    n_zero: int
    nbar_zero: int
    N_zero: float
    Nbar_zero: float
    settled: bool

    def export(self) -> dict:
        return {
            "r": self.r, "n": self.n, "n_bar": self.n_bar,
            "N": self.N, "N_bar": self.N_bar, "m": self.m, "T": self.T,
            "n_zero": self.n_zero, "nbar_zero": self.nbar_zero,
            "N_zero": self.N_zero, "Nbar_zero": self.Nbar_zero,
            "settled": self.settled,
        }


@dataclass(frozen=True)
class NevTable:
    model: dict
    rows: Tuple[NevRow, ...]

    def export(self) -> dict:
        return {"model": self.model, "rows": [row.export() for row in self.rows]}


def log_grid(r_min: float, r_max: float, count: int = 24) -> List[float]:
    """Logarithmically spaced radii, endpoints included."""
    if not (0 < r_min < r_max) or count < 2:
        raise ValueError("need 0 < r_min < r_max and at least two radii")
    ratio = (r_max / r_min) ** (1.0 / (count - 1))
    return [r_min * ratio**i for i in range(count)]


def characteristic_table(
    model, r_grid: Sequence[float], tol: float = _QUAD_TOL
) -> NevTable:
    """Counting and proximity data for each radius of an increasing grid."""
    grid = list(r_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("radius grid must be strictly increasing")
    r_max = grid[-1]
    poles = model.poles_upto(r_max)
    zeros = model.zeros_upto(r_max)

    rows = []
    for r in grid:
        n, n_bar, N, N_bar = counting_data(poles, r)
        nz, nbz, Nz, Nbz = counting_data(zeros, r)
        m, settled = proximity(model, r, tol)
        rows.append(NevRow(r, n, n_bar, N, N_bar, m, m + N, nz, nbz, Nz, Nbz, settled))
    return NevTable(model=model.describe(), rows=tuple(rows))


# ---------------------------------------------------------------------------
# growth estimates


@dataclass(frozen=True)
class GrowthEstimate:
    order: float
    order_width: float
    hyper_order: Optional[float]
    hyper_order_width: Optional[float]
    pole_hyper: Optional[float]
    pole_hyper_width: Optional[float]
    low_confidence: bool
    note: str

    def export(self) -> dict:
        return {
            "order": self.order,
            "order_width": self.order_width,
            "hyper_order": self.hyper_order,
            "hyper_order_width": self.hyper_order_width,
            "pole_hyper": self.pole_hyper,
            "pole_hyper_width": self.pole_hyper_width,
            "low_confidence": self.low_confidence,
            "note": self.note,
        }


def _slope_with_width(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and a two-sigma width from the fit residuals."""
    x = np.asarray(xs)
    y = np.asarray(ys)
    n = len(x)
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    slope = float(np.dot(xm, y) / denom)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    if n > 2:
        se = math.sqrt(float(np.dot(resid, resid)) / (n - 2) / denom)
    else:
        se = float("inf")
    return slope, 2.0 * se


def growth_estimates(table: NevTable) -> GrowthEstimate:
    """Order, hyper-order, and pole hyper-exponent slopes from a table.

    The order is the slope of log T against log r, the hyper-order the
    slope of log log T, and the pole exponent the analogue built from the
    raw pole counts.  Rows without enough growth for the log-log transform
    are dropped from that fit; shortage of usable rows is flagged rather
    than hidden.
    """
    usable = [row for row in table.rows if row.T > math.e]
    if len(usable) < 8:
        raise ValueError(
            f"need at least 8 rows with T > e for a fit; have {len(usable)}"
        )
    logr = [math.log(row.r) for row in usable]
    logT = [math.log(row.T) for row in usable]
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
        (math.log(row.r), math.log(math.log(row.n)))
        for row in usable
        if row.n >= 3
    ]
    if len(pn) >= 8:
        pole, pole_w = _slope_with_width([p[0] for p in pn], [p[1] for p in pn])
    else:
        notes.append("too few rows with n >= 3 for a pole-exponent fit")
    low = order_w > 0.25 or (hyper is not None and hyper_w > 0.25)
    if low:
        notes.append("fit widths exceed 0.25; treat estimates as indicative")
    return GrowthEstimate(
        order=order, order_width=order_w,
        hyper_order=hyper, hyper_order_width=hyper_w,
        pole_hyper=pole, pole_hyper_width=pole_w,
        low_confidence=low, note="; ".join(notes),
    )


# ---------------------------------------------------------------------------
# ratio reports


@dataclass(frozen=True)
class RatioRow:
    r: float
    zero_ratio: Optional[float]
    degree_gap_lhs: Optional[float]
    zero_count_rhs: Optional[float]
    note: str = ""

    def export(self) -> dict:
        return {
            "r": self.r,
            "zero_ratio": self.zero_ratio,
            "degree_gap_lhs": self.degree_gap_lhs,
            "zero_count_rhs": self.zero_count_rhs,
            # no longer measured; kept as null so report layouts stay the same
            "power_ratio": None,
            "note": self.note,
        }


@dataclass(frozen=True)
class RatioReport:
    rows: Tuple[RatioRow, ...]
    threshold: float = 0.75

    def export(self) -> dict:
        return {"threshold": self.threshold, "rows": [r.export() for r in self.rows]}


def ratio_checks(table: NevTable, eq: Optional[DelayDiffEq]) -> RatioReport:
    """Per-radius ratios against the zero-density threshold of 3/4.

    Reads an already built characteristic table.  Reports the
    distinct-zero share of the characteristic and the two sides of the
    degree-gap bound for the rational-in-w class.
    """
    deg_gap = None
    if eq is not None and eq.kind == EqKind.LOG_DERIV:
        deg_gap = rational_degree(eq).deg_map - 3
    rows = []
    for row in table.rows:
        note = ""
        if row.T < 1e-9:
            zero_ratio = None
            note = "T too small; row skipped"
        else:
            zero_ratio = row.Nbar_zero / row.T
        lhs = rhs = None
        if deg_gap is not None and zero_ratio is not None:
            lhs = deg_gap * row.T
            rhs = row.Nbar_zero
        rows.append(RatioRow(row.r, zero_ratio, lhs, rhs, note))
    return RatioReport(tuple(rows))
