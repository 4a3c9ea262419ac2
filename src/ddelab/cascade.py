"""Symbolic singularity cascades.

A cascade starts from local Laurent data at a symbolic base point (variable
"zhat") and iterates the normal form w(z+1) = w(z-1) + N(z, w, w') forward.
The seed is one germ with a zero-filled tail: w(zhat + t) = alpha*t^(+-p)
and w(zhat - 1 + t) = K, with every later window coefficient an exact 0.
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

Window width has one policy, and it lives here: ``run_cascade`` decides it.
A zero seed of order p starts with p + 2 coefficients: it gives a pole of
order p + 1 at offset 1, and a chain that closes has order >= 0 at offset 3,
so the window there must reach p + 2 coefficients from that pole before the
verdict can read it.  A pole seed starts with one, which shows the orders
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

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional, Tuple

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

_ZERO = FieldElem.const(0)
_TWO = FieldElem.const(2)
_K = FieldElem.var("K")  # the regular value one step behind the seed
_ALPHA = FieldElem.var("alpha")  # the seed's leading coefficient


class CascadeError(RuntimeError):
    """Raised when a cascade cannot produce the requested certified data."""


class SeedKind(str, Enum):
    ZERO_OF_W = "zero-of-w"
    POLE_OF_W = "pole-of-w"


@dataclass(frozen=True)
class SeedSpec:
    kind: SeedKind
    p: int

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("seed order p must be a positive integer")

    def build(self, width: int) -> "LocalData":
        tail = [_ZERO] * (width - 1)
        regular = LaurentSeries(0, [_K] + tail, exact=False)
        order = self.p if self.kind == SeedKind.ZERO_OF_W else -self.p
        at_base = LaurentSeries(order, [_ALPHA] + tail, exact=False)
        return LocalData(window={-1: regular, 0: at_base}, seed=self, width=width)


@dataclass
class LocalData:
    """Window of Laurent series keyed by integer offset from the base point."""

    window: Dict[int, LaurentSeries]
    seed: SeedSpec
    width: int


def seed_local_data(kind: SeedKind, p: int) -> LocalData:
    """Seed data in its first window (module docstring); ``run_cascade``
    widens it."""
    return SeedSpec(kind, p).build(p + 2 if kind == SeedKind.ZERO_OF_W else 1)


def cascade_step(eq: DelayDiffEq, state: LocalData, j: int) -> LaurentSeries:
    """Series of w at offset j+1 from the window entries at j-1 and j."""
    if j - 1 not in state.window or j not in state.window:
        raise CascadeError(f"window lacks offsets {j - 1} and {j}")
    n = normal_form_series(eq, j, state.window[j], width=state.width)
    # keep the stored window canonical: the next step convolves against it,
    # and an unreduced shared denominator fattens every product there
    return (state.window[j - 1] + n).canonical()


@dataclass(frozen=True)
class PatternEntry:
    offset: int
    order: Optional[int]
    leading: Optional[FieldElem]
    series: LaurentSeries
    certified: bool = True
    note: str = ""

    def export(self) -> dict:
        return {
            "offset": self.offset,
            "order": self.order,
            "leading": str(self.leading) if self.leading is not None else None,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class SingularityPattern:
    entries: Tuple[PatternEntry, ...]

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


def run_cascade(
    eq: DelayDiffEq,
    seed: LocalData,
    steps: int,
) -> SingularityPattern:
    """Iterate the normal form for the given number of steps.

    Starts at the seed's width: from ``seed_local_data``, p + 2 for a zero of
    order p, the least in which a closing chain is read, and 1 for a pole.
    The seed is rebuilt at double the width, up to ``MAX_TRUNCATION`` (128),
    and the cascade replays when an order is not certified (a window of
    zeros, or a denominator series that vanishes to the end of its window),
    or when, without geometric growth of the pole orders, the window at
    offset 3 ends before the c_-1 and c_-2 that the confinement verdict
    reads.  At the cap the pattern ends with a flagged, uncertified entry.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    state = seed
    while True:
        pattern, readable = _attempt(eq, state, steps)
        if readable or state.width >= MAX_TRUNCATION:
            return pattern
        state = state.seed.build(min(2 * state.width, MAX_TRUNCATION))


def _attempt(
    eq: DelayDiffEq, seed: LocalData, steps: int
) -> Tuple[SingularityPattern, bool]:
    """The pattern at the seed's width, and whether the caller can read all of it.

    An order the window cannot certify ends the pattern with a flagged entry.
    """
    state = LocalData(window=dict(seed.window), seed=seed.seed, width=seed.width)
    entries = []
    for j in range(steps):
        try:
            s = cascade_step(eq, state, j)
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
        state.window[j + 1] = s
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


@dataclass(frozen=True)
class ConfinementVerdict:
    kind: str  # "confined" | "simple-pole-tail" | "bounded-pole-chain" | "exponential-order-growth"
    offset: Optional[int] = None  # for "confined": where the chain closes
    ratio: Optional[int] = None  # for "exponential-order-growth"
    witness: Optional[FieldElem] = None
    witnesses: Mapping[str, FieldElem] = field(default_factory=dict)
    note: str = ""

    def export(self) -> dict:
        out = {"kind": self.kind}
        if self.offset is not None:
            out["offset"] = self.offset
        if self.ratio is not None:
            out["ratio"] = self.ratio
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.witnesses:
            out["witnesses"] = {k: str(v) for k, v in self.witnesses.items()}
        if self.note:
            out["note"] = self.note
        return out


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


def confinement_report(
    pattern: SingularityPattern, eq: DelayDiffEq
) -> ConfinementVerdict:
    """Classify how the singularity chain behaves after three steps."""
    cert = pattern.certified_entries
    try:
        first_three = [pattern.entry_at(j) for j in (1, 2, 3)]
    except KeyError:
        raise ValueError("confinement verdict needs 3 certified entries")
    if not all(e.certified for e in first_three):
        raise ValueError("confinement verdict needs 3 certified entries")

    d = _geometric_ratio(pattern.entries)
    if d is not None:
        last = cert[-1]
        return ConfinementVerdict(
            kind="exponential-order-growth", ratio=d, witness=last.leading,
            note=f"pole orders grow geometrically with ratio {d}",
        )

    e3 = pattern.entry_at(3)
    witnesses: Dict[str, FieldElem] = {}
    if eq.kind == EqKind.INVERSE_SQUARE:
        witnesses["second_difference"] = at_base_point(second_difference(eq.a))
        witnesses["residue_obstruction"] = at_base_point(gamma_of(eq.a, eq.b))

    if e3.order >= 0:
        residue = simple_pole_residue(e3)
        return ConfinementVerdict(
            kind="confined", offset=3, witness=residue, witnesses=witnesses,
            note="chain closes with a finite value at offset 3",
        )
    if e3.order == -1:
        residue = simple_pole_residue(e3)
        if eq.kind == EqKind.INVERSE_SQUARE:
            witness = residue * _ALPHA  # strips the seed symbol: gamma(zhat)
        else:
            witness = residue
        return ConfinementVerdict(
            kind="simple-pole-tail", witness=witness, witnesses=witnesses,
            note="offset 3 keeps a simple pole; chain does not close",
        )
    # double pole (or worse) without geometric growth
    c2 = e3.series.coefficient(-2)
    return ConfinementVerdict(
        kind="bounded-pole-chain", witness=c2, witnesses=witnesses,
        note="offset 3 has a higher-order pole; orders stay bounded",
    )


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
    seed = seed_local_data(SeedKind.POLE_OF_W, q)
    pattern = run_cascade(eq, seed, steps)
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
