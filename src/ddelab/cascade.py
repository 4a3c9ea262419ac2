"""Symbolic singularity cascades.

A cascade starts from local Laurent data at a symbolic base point (variable
"zhat") and iterates the normal form w(z+1) = w(z-1) + N(z, w, w') forward.
A seed is its signed order and its window width (``SeedSpec``): p for a
zero of w, which the inverse-square class follows, and -p for a pole, which
``polynomial_blowup`` follows.  Its germ has a zero-filled tail:
w(zhat + t) = alpha*t^order and w(zhat - 1 + t) = K, with every later window
coefficient an exact 0.
That is not generic data, since the delay equation leaves the whole germ on
two unit strips free, so a printed leading describes this germ and may miss
the terms a generic one adds (ROADMAP.md, open item "Generic seeds").
Within the germ nothing is branched on silently: a coincidence that could
change a verdict shows up as a field element that is reported.

Series are strict Laurent expansions in t = z - zhat - j at each offset j.
A quantity like a(zhat + t)/t carries its own drift: its strict residue is
a(zhat) and the next coefficient is a'(zhat).  The moving-coefficient
presentation used in resonance bookkeeping attributes the drift of the
double-pole coefficient to the residue; ``simple_pole_residue`` performs
that conversion (strict c_{-1} minus the zhat-derivative of strict c_{-2}).

Window width has one policy, and it lives here: ``first_seed`` gives the
first width and ``run_cascade`` regrows it.  A zero seed of order p starts
with p + 2 coefficients: it gives a pole of order p + 1 at offset 1, and a
chain that closes has order >= 0 at offset 3, so the window there must reach
p + 2 coefficients from that pole before the verdict can read it.  A pole seed starts with one, which shows the orders
``polynomial_blowup`` reads.  The cascade doubles the width, up to
``MAX_TRUNCATION`` (128), and replays from the seed only when something the
caller reads is not yet certified: an order (the window shows only zeros, or
a denominator series vanishes to the end of its window), or the strict c_{-1}
and c_{-2} at offset 3 that ``confinement_report`` and ``simple_pole_residue``
read when the pole orders do not grow geometrically.  Certified orders and
coefficients are exact, and ``fieldelem``'s normal form prints them uniquely
while each denominator less its monomial has one variable, so no result
depends on the width at which it was read.  At the cap, the last attempt's
pattern is returned as it stands.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .fieldelem import FieldElem
from .laurent import (
    MAX_TRUNCATION,
    CompositionIndeterminateError,
    LaurentSeries,
    SeriesWindowError,
    UncertifiedOrderError,
)
from .model import DelayDiffEq, EqKind, normal_form_series, rational_degree
from .mpoly import MPoly
from .record import ReadOnly

_ZERO = FieldElem.const(0)
_TWO = FieldElem.const(2)
_K = FieldElem.var("K")  # the regular value one step behind the seed
_ALPHA = FieldElem.var("alpha")  # the seed's leading coefficient


class CascadeError(RuntimeError):
    """Raised when a cascade cannot produce the requested certified data."""


class SeedSpec(ReadOnly):
    """A seed of signed order (p for a zero of w, -p for a pole) at a window width."""

    __slots__ = ("order", "width")

    def __init__(self, order: int, width: int):
        if order == 0 or width < 1:
            raise ValueError("a seed needs a nonzero order and a width >= 1, "
                             f"got SeedSpec(order={order!r}, width={width!r})")
        self._set(order=order, width=width)

    __eq__ = ReadOnly._same_fields

    def build(self, width: int) -> "SeedSpec":
        """The same seed at another width; ``run_cascade`` regrows with it."""
        return SeedSpec(self.order, width)

    def window(self) -> Dict[int, LaurentSeries]:
        """The seed's germ at offsets -1 and 0, zero-filled to the width."""
        tail = [_ZERO] * (self.width - 1)
        return {-1: LaurentSeries(0, [_K] + tail, exact=False),
                0: LaurentSeries(self.order, [_ALPHA] + tail, exact=False)}


def first_seed(order: int) -> SeedSpec:
    """The seed in its first window (module docstring): p + 2 coefficients
    for a zero of order p, one for a pole; ``run_cascade`` widens it."""
    return SeedSpec(order, order + 2 if order > 0 else 1)


def cascade_step(eq: DelayDiffEq, seed: SeedSpec, window: Dict[int, LaurentSeries],
                 j: int) -> LaurentSeries:
    """Series of w at offset j+1 from the window entries at j-1 and j."""
    if j - 1 not in window or j not in window:
        raise CascadeError(f"window lacks offsets {j - 1} and {j}")
    n = normal_form_series(eq, j, window[j], width=seed.width)
    # keep the stored window canonical: the next step convolves against it,
    # and an unreduced shared denominator fattens every product there
    return (window[j - 1] + n).canonical()


class PatternEntry(ReadOnly):
    __slots__ = ("offset", "order", "leading", "series", "certified", "note")

    def __init__(self, offset: int, order: Optional[int], leading: Optional[FieldElem],
                 series: LaurentSeries, certified: bool = True, note: str = ""):
        self._set(offset=offset, order=order, leading=leading, series=series, certified=certified,
                  note=note)

    def export(self) -> dict:
        return {
            "offset": self.offset,
            "order": self.order,
            "leading": str(self.leading) if self.leading is not None else None,
            "certified": self.certified,
        }


class SingularityPattern(ReadOnly):
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[PatternEntry, ...]):
        self._set(entries=entries)

    def entry_at(self, offset: int) -> PatternEntry:
        for e in self.entries:
            if e.offset == offset:
                return e
        raise KeyError(f"no pattern entry at offset {offset}")

    @property
    def certified_entries(self) -> Tuple[PatternEntry, ...]:
        return tuple(e for e in self.entries if e.certified)

    def export(self) -> list:
        return [e.export() for e in self.entries]


def run_cascade(eq: DelayDiffEq, seed: SeedSpec, steps: int) -> SingularityPattern:
    """Iterate the normal form for the given number of steps.

    Starts at the seed's width: from ``first_seed``, p + 2 for a zero of
    order p, the least in which a closing chain is read, and 1 for a pole.
    The seed is rebuilt at double the width, up to ``MAX_TRUNCATION`` (128),
    and the cascade replays when an order is not certified (a window of
    zeros, or a denominator series that vanishes to the end of its window),
    or when, without geometric growth of the pole orders, the window at
    offset 3 ends before the c_-1 and c_-2 that the confinement verdict
    reads.  At the cap the pattern ends with a flagged, uncertified entry.
    A rebuilt seed that is not wider raises ``CascadeError``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    while True:
        pattern, readable = _attempt(eq, seed, steps)
        if readable or seed.width >= MAX_TRUNCATION:
            return pattern
        wider = seed.build(min(2 * seed.width, MAX_TRUNCATION))
        if wider.width <= seed.width:
            raise CascadeError(f"regrowth from width {seed.width} gave width {wider.width}")
        seed = wider


def _attempt(eq: DelayDiffEq, seed: SeedSpec, steps: int) -> Tuple[SingularityPattern, bool]:
    """The pattern at the seed's width, and whether the caller can read all of it.

    An order the window cannot certify ends the pattern with a flagged entry.
    """
    window = seed.window()
    entries = []
    for j in range(steps):
        try:
            s = cascade_step(eq, seed, window, j)
            order = s.order
        except (UncertifiedOrderError, CompositionIndeterminateError,
                SeriesWindowError) as exc:
            entries.append(PatternEntry(
                offset=j + 1, order=None, leading=None,
                series=LaurentSeries.zero(0), certified=False,
                note=f"uncertified at truncation cap: {exc}",
            ))
            return SingularityPattern(tuple(entries)), False
        if order is None:
            entries.append(PatternEntry(
                offset=j + 1, order=None, leading=None, series=s,
                certified=False,
                note="series vanishes to the truncation window",
            ))
            return SingularityPattern(tuple(entries)), False
        window[j + 1] = s
        entries.append(PatternEntry(
            offset=j + 1, order=order, leading=s.leading, series=s,
        ))
    pattern = SingularityPattern(tuple(entries))
    # unless the pole orders grow geometrically, the verdict reads the strict
    # c_-1 and c_-2 at offset 3; a window that holds c_-1 holds c_-2 too
    if steps >= 3 and _geometric_ratio(entries) is None:
        try:
            entries[2].series.coefficient(-1)
        except SeriesWindowError:
            return pattern, False
    return pattern, True


# ---------------------------------------------------------------------------
# residues, gamma, and verdicts


def at_base_point(r: FieldElem) -> FieldElem:
    """Rewrite a function of z as a function of the base point zhat."""
    return r.compose_var("z", MPoly.var("zhat"))


def simple_pole_residue(entry: PatternEntry) -> FieldElem:
    """Residue in the moving-coefficient presentation.

    Strict coefficient of 1/t minus the zhat-derivative of the strict
    coefficient of 1/t^2: the double-pole coefficient, as a function of the
    base point, drifts and feeds the residue one order down.  Requires the
    pole order to be at most 2.
    """
    if entry.order is None or entry.order < -2:
        raise ValueError("moving-frame residue needs order >= -2")
    c1 = entry.series.coefficient(-1)
    c2 = entry.series.coefficient(-2)
    return c1 - c2.derivative("zhat")


def gamma_of(a: FieldElem, b: FieldElem) -> FieldElem:
    """Resonance obstruction for the inverse-square class, as a function of z.

    Independent closed-form oracle for the offset-3 residue; the cascade must
    reproduce gamma(zhat)/alpha on the nose.
    """
    a1 = a.shift(1)
    a2 = a.shift(2)
    b2 = b.shift(2)
    den = a - _TWO * a1
    if den.is_zero:
        raise ValueError("formula singular; use cascade directly")
    ap = a.derivative()
    ap1 = ap.shift(1)
    first = (a * b2 - (_TWO * a1 - a) * b) / den
    second = _TWO * a2 * (a * ap1 - a1 * ap) / (den * den)
    return first - second


def second_difference(a: FieldElem) -> FieldElem:
    return a.shift(2) - _TWO * a.shift(1) + a


def _geometric_ratio(entries) -> Optional[int]:
    """Certified integer ratio >= 2 across consecutive pole orders, if any."""
    orders = [e.order for e in entries if e.certified and e.order is not None]
    poles = [o for o in orders if o < 0]
    if len(poles) < 2 or len(poles) != len(orders):
        return None
    ratios = set()
    for prev, cur in zip(poles, poles[1:]):
        if cur % prev != 0:
            return None
        ratios.add(cur // prev)
    if len(ratios) == 1:
        d = ratios.pop()
        if d >= 2:
            return d
    return None


def confinement_report(pattern: SingularityPattern, eq: DelayDiffEq) -> Dict[str, Any]:
    """Classify how the singularity chain behaves after three steps.

    The verdict is the dict that the report prints: ``kind`` ("confined",
    "simple-pole-tail", "bounded-pole-chain" or "exponential-order-growth")
    and ``note``, plus ``offset`` where a confined chain closes, ``ratio``
    for geometric growth, ``witness``, and on an inverse-square entry the
    ``witnesses`` second_difference and residue_obstruction.  Witnesses stay
    exact ``FieldElem`` values; ``cli`` prints them.
    """
    cert = pattern.certified_entries
    try:
        first_three = [pattern.entry_at(j) for j in (1, 2, 3)]
    except KeyError:
        raise ValueError("confinement verdict needs 3 certified entries")
    if not all(e.certified for e in first_three):
        raise ValueError("confinement verdict needs 3 certified entries")

    d = _geometric_ratio(pattern.entries)
    if d is not None:
        return {"kind": "exponential-order-growth", "ratio": d, "witness": cert[-1].leading,
                "note": f"pole orders grow geometrically with ratio {d}"}

    e3 = pattern.entry_at(3)
    verdict: Dict[str, Any] = {}
    if eq.kind == EqKind.INVERSE_SQUARE:
        verdict["witnesses"] = {
            "second_difference": at_base_point(second_difference(eq.a)),
            "residue_obstruction": at_base_point(gamma_of(eq.a, eq.b)),
        }

    if e3.order >= 0:
        return {**verdict, "kind": "confined", "offset": 3, "witness": simple_pole_residue(e3),
                "note": "chain closes with a finite value at offset 3"}
    if e3.order == -1:
        residue = simple_pole_residue(e3)
        if eq.kind == EqKind.INVERSE_SQUARE:
            residue = residue * _ALPHA  # strips the seed symbol: gamma(zhat)
        return {**verdict, "kind": "simple-pole-tail", "witness": residue,
                "note": "offset 3 keeps a simple pole; chain does not close"}
    # double pole (or worse) without geometric growth
    return {**verdict, "kind": "bounded-pole-chain", "witness": e3.series.coefficient(-2),
            "note": "offset 3 has a higher-order pole; orders stay bounded"}


def polynomial_blowup(
    eq: DelayDiffEq, steps: int, q: int = 1
) -> Tuple[int, ...]:
    """Certified pole orders for a polynomial right-hand side.

    Seeds a pole of order q and checks geometric growth of pole orders with
    ratio equal to the w-degree of the right-hand side when that degree is
    at least 2; a linear map produces bounded orders and no assertion.
    """
    if eq.kind != EqKind.LOG_DERIV:
        raise ValueError("polynomial blowup applies to the log-deriv class")
    rep = rational_degree(eq)
    if rep["den"] != 0:
        raise ValueError("polynomial blowup needs a polynomial right side")
    d = rep["num"]
    pattern = run_cascade(eq, first_seed(-q), steps)
    orders = []
    for e in pattern.entries:
        if not e.certified:
            raise CascadeError(f"order not certified at offset {e.offset}: {e.note}")
        orders.append(-e.order)
    if d >= 2:
        expected = q
        for k, got in enumerate(orders):
            expected = d * expected
            if got != expected:
                raise CascadeError(
                    f"pole order {got} at offset {k + 1}; expected {expected}"
                )
    return tuple(orders)
