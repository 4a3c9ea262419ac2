"""Checks for the characteristic tables built on exact singularity data.

The counting oracle below integrates the step function n(t)/t on a dense
grid instead of using the closed-form sum, and the proximity checks lean
on instances whose circle means are known in closed form, so both halves
of the characteristic are confirmed against independent routes.
"""

import cmath
import json
import math
from collections import Counter

import numpy as np
import pytest

from ddelab.analytic import EllipticSolutionModel, ExponentialModel, elliptic_params
import ddelab.nevanlinna as nevanlinna
from ddelab.fieldelem import FieldElem
from ddelab.model import FactoredDenominator, WPoly, make_log_deriv
from ddelab.nevanlinna import (
    characteristic_table,
    counting_data,
    growth_estimates,
    log_grid,
    proximity,
    ratio_checks,
)


class RationalFake:
    """prod (z - zero) / prod (z - pole), simple roots listed by hand."""

    even = False

    def __init__(self, zeros, poles):
        self.zeros = [complex(q) for q in zeros]
        self.poles = [complex(p) for p in poles]

    def log_abs(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape)
        for q in self.zeros:
            out = out + np.log(np.abs(z - q))
        for p in self.poles:
            out = out - np.log(np.abs(z - p))
        return out

    def poles_upto(self, radius):
        return [(p, 1) for p in self.poles if abs(p) <= radius]

    def zeros_upto(self, radius):
        return [(q, 1) for q in self.zeros if abs(q) <= radius]

    def describe(self):
        return {"tag": "rational-fake"}


class ReciprocalFake:
    """1/f of a model f: log|f| negated, poles and zeros swapped."""

    def __init__(self, base):
        self.base = base
        self.even = base.even

    def log_abs(self, z):
        return -self.base.log_abs(z)

    def poles_upto(self, radius):
        return self.base.zeros_upto(radius)

    def zeros_upto(self, radius):
        return self.base.poles_upto(radius)

    def describe(self):
        return {"tag": "reciprocal-fake"}


class CountingFake:
    """A model that counts the calls of its ``log_abs``."""

    def __init__(self, base):
        self.base = base
        self.even = base.even
        self.calls = 0

    def log_abs(self, z):
        self.calls += 1
        return self.base.log_abs(z)

    def __getattr__(self, name):
        return getattr(self.base, name)


class InventoryFake:
    """A model that counts the calls of its pole and zero inventories."""

    def __init__(self, base):
        self.base = base
        self.even = base.even
        self.calls = Counter()

    def poles_upto(self, radius):
        self.calls["poles_upto"] += 1
        return self.base.poles_upto(radius)

    def zeros_upto(self, radius):
        self.calls["zeros_upto"] += 1
        return self.base.zeros_upto(radius)

    def __getattr__(self, name):
        return getattr(self.base, name)


class WholeCircleFake:
    """A model with the values of its base, declared not even."""

    even = False

    def __init__(self, base):
        self.base = base

    def __getattr__(self, name):
        return getattr(self.base, name)


def jittered(model, r):
    """The radius ``proximity`` measures for r, from the model's poles near r."""
    reach = r * (1.0 + 2.0 * nevanlinna._POLE_PROXIMITY)
    return nevanlinna._jittered_radius(sorted(abs(p) for p, _ in model.poles_upto(reach)), r)


@pytest.fixture(scope="module")
def elliptic_model():
    params = elliptic_params(g2=4.0, g3=1.0, omega=1.0 + 0.3j, lam=1.0)
    return EllipticSolutionModel(params)


@pytest.fixture(scope="module")
def elliptic_table(elliptic_model):
    return characteristic_table(elliptic_model, log_grid(1.0, 16.0, 24))


class TestLogGrid:
    def test_endpoints_and_spacing(self):
        grid = log_grid(2.0, 32.0, 5)
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(32.0)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            log_grid(0.0, 10.0)
        with pytest.raises(ValueError):
            log_grid(10.0, 5.0)
        with pytest.raises(ValueError):
            log_grid(1.0, 10.0, 1)


class TestCountingData:
    def test_origin_point_contributes_log_r(self):
        ((n, n_bar, N, N_bar),) = counting_data([(0j, 2)], [4.0])
        assert (n, n_bar) == (2, 1)
        assert N == pytest.approx(2 * math.log(4.0))
        assert N_bar == pytest.approx(math.log(4.0))
        # below radius one the origin term goes negative, by convention
        assert counting_data([(0j, 2)], [0.5])[0][2] < 0

    def test_points_outside_radius_ignored(self):
        pts = [(3.0 + 0j, 1), (10.0 + 0j, 5)]
        ((n, n_bar, N, N_bar),) = counting_data(pts, [5.0])
        assert (n, n_bar) == (1, 1)
        assert N == pytest.approx(math.log(5.0 / 3.0))

    def test_closed_form_matches_dense_integral(self, elliptic_model):
        """Independent oracle: trapezoid integral of n(t)/t on 4e6 nodes."""
        r = 16.0
        pts = elliptic_model.poles_upto(r)
        ((_, _, N_closed, _),) = counting_data(pts, [r])
        mods = sorted(abs(p) for p, m in pts for _ in range(m))
        n0 = sum(1 for ap in mods if ap == 0.0)
        ts = np.linspace(1e-9, r, 4_000_001)
        nvals = np.zeros_like(ts)
        for i in np.searchsorted(ts, [ap for ap in mods if ap > 0], side="left"):
            nvals[i:] += 1
        integral = float(np.trapezoid(nvals / ts, ts)) + n0 * math.log(r)
        assert abs(N_closed - integral) <= 1e-6 * abs(N_closed)


def counts_alone(points, r):
    """(n, n_bar, N, N_bar) at one radius, term by term with math.log."""
    inside = [(p, mult) for p, mult in points if abs(p) <= r]
    logs = [math.log(r) if p == 0 else math.log(r / abs(p)) for p, _ in inside]
    return (sum(mult for _, mult in inside), len(inside),
            math.fsum(mult * x for (_, mult), x in zip(inside, logs)), math.fsum(logs))


def jittered_alone(model, r):
    """The jitter as one enumeration per radius decides it."""
    window = nevanlinna._POLE_PROXIMITY * r
    near = [abs(p) for p, _ in model.poles_upto(r + 2.0 * window) if abs(abs(p) - r) <= window]
    if not near:
        return r
    nearest = min(near, key=lambda ap: abs(ap - r))
    return r * (1.0 + (1.0 if nearest <= r else -1.0) * nevanlinna._JITTER)


class TestOneInventory:
    # a table enumerates each inventory once for all its radii

    def test_a_table_reads_each_inventory_once(self, elliptic_model, elliptic_table):
        model = InventoryFake(elliptic_model)
        table = characteristic_table(model, log_grid(1.0, 16.0, 24))
        assert model.calls["poles_upto"] <= 2 and model.calls["zeros_upto"] == 1
        assert table.export()["rows"] == elliptic_table.export()["rows"]

    def test_counts_at_every_radius_match_one_radius_at_a_time(self, elliptic_model):
        demo = log_grid(1.0, 16.0, 24)
        for points, grid in (
            (elliptic_model.poles_upto(16.0), demo),
            (elliptic_model.zeros_upto(16.0), demo),
            # a point just inside the circle, where n log r - sum log|p| would cancel
            ([(1e6 + 0j, 3), (3e6j, 1)], [1e6 * (1.0 + 2.0**-40), 4e6]),
        ):
            for r, found in zip(grid, counting_data(points, grid)):
                want = counts_alone(points, r)
                assert found[:2] == want[:2]
                for got, ref in zip(found[2:], want[2:]):
                    assert math.isclose(got, ref, rel_tol=1e-14, abs_tol=0.0)

    @pytest.mark.parametrize("case", ["demo", "demo-reciprocal", "pole-on-circle", "tie"])
    def test_jitter_from_one_inventory_matches_one_radius_at_a_time(
        self, case, elliptic_model, monkeypatch
    ):
        nearest = min(abs(p) for p, _ in elliptic_model.poles_upto(3.0) if p != 0)
        model, grid = {
            "demo": (elliptic_model, log_grid(1.0, 16.0, 24) + [nearest]),
            # the zeros at +-1 lie on |z| = 1
            "demo-reciprocal": (ReciprocalFake(elliptic_model), log_grid(1.0, 16.0, 24)),
            "pole-on-circle": (RationalFake([], [2.0]), [1.0, 2.0, 3.0]),
            # poles 2^-10 inside and outside |z| = 2: the first in sorted order wins
            "tie": (RationalFake([], [2.0 - 2.0**-10, 2.0 + 2.0**-10]), [2.0]),
        }[case]
        used = []
        real = nevanlinna._jittered_radius
        monkeypatch.setattr(nevanlinna, "_jittered_radius",
                            lambda moduli, r: used.append(real(moduli, r)) or used[-1])
        proximity(model, grid)
        assert [x.hex() for x in used] == [jittered_alone(model, r).hex() for r in grid]
        moved = sum(x != r for x, r in zip(used, grid))
        assert moved == {"demo": 1, "demo-reciprocal": 3, "pole-on-circle": 1, "tie": 1}[case]
        if case == "tie":
            assert used == [2.0 * (1.0 + nevanlinna._JITTER)]


class TestProximity:
    def test_exponential_closed_form(self):
        # mean of log+ |exp(p pi i z)| over |z| = r is exactly p*r
        for p in (1, 2):
            model = ExponentialModel(C=1.0, p=p)
            for r in (3.0, 50.0, 1e6):
                assert proximity(model, [r])[0].m == pytest.approx(p * r, rel=1e-8)

    def test_modulus_below_one_gives_zero(self):
        model = RationalFake([], [2.0])  # 1/(z - 2)
        assert proximity(model, [1.0])[0] == (0.0, True)

    def test_pole_on_the_circle_is_jittered_not_fatal(self):
        model = RationalFake([], [2.0])
        value = proximity(model, [2.0])[0].m
        assert math.isfinite(value)
        # hand value of the arc integral for 1/(z-2) on |z| = 2
        assert value == pytest.approx(0.1597, abs=2e-3)

    def test_half_circle_of_an_even_model_matches_the_whole(self, elliptic_model, elliptic_table):
        # the elliptic model is even, so its table integrates log+|w| over [0, pi)
        whole = characteristic_table(WholeCircleFake(elliptic_model), log_grid(1.0, 16.0, 24))
        for half_row, whole_row in zip(elliptic_table.rows, whole.rows):
            assert half_row.settled and whole_row.settled
            assert half_row.m == pytest.approx(whole_row.m, rel=1e-12)

    def test_refinement_stability(self, elliptic_model, monkeypatch):
        r = 5.5
        monkeypatch.setattr(nevanlinna, "_QUAD_TOL", 1e-9)
        coarse = proximity(elliptic_model, [r])[0].m
        monkeypatch.setattr(nevanlinna, "_QUAD_TOL", 1e-12)
        fine = proximity(elliptic_model, [r])[0].m
        assert abs(coarse - fine) <= 1e-8 * (1.0 + abs(fine))


class TestBatchedProximity:
    # a table's radii share every sample batch, so the bookkeeping of which
    # crossing and which arc belongs to which circle must be exact
    CUBE_ROOTS = [2 ** (1 / 3) * cmath.exp(1j * math.pi * k / 3) for k in (1, 3, 5)]

    # m as float.hex and settled, recorded from the Gauss-Kronrod rule with
    # every circle scanned in one batch and each crossing refined by ITP
    RECORDED = {
        "exponential": [
            ("0x0.0p+0", True), ("0x1.cc9ab82c35728p-2", True),
            ("0x1.75e57a94ca87bp+2", True), ("0x1.8f5d85fff6277p+6", True),
        ],
        "rational": [
            ("0x0.0p+0", True), ("0x1.eaebd6f441ed9p-2", True), ("0x1.9c043045cfe6fp+1", True),
            ("0x1.26bb1bbb55515p+2", True), ("0x1.26bb1bbb55516p+3", True),
        ],
    }

    def instance(self, name, elliptic_model):
        return {
            "elliptic": (elliptic_model, log_grid(1.0, 16.0, 24)),
            # below r = 0.05 the modulus stays under one all round
            "exponential": (ExponentialModel(C=0.7 - 0.2j, p=2), [0.01, 0.3, 3.0, 50.0]),
            # (z^3 + 2)/(z - 5): under one at r = 0.5, a pole on |z| = 5
            "rational": (RationalFake(self.CUBE_ROOTS, [5.0]), [0.5, 2.0, 5.0, 10.0, 100.0]),
        }[name]

    @pytest.mark.parametrize("case", ["elliptic", "exponential", "rational"])
    def test_batch_matches_radius_by_radius(self, case, elliptic_model):
        model, grid = self.instance(case, elliptic_model)
        batch = proximity(model, grid)
        alone = [proximity(model, [r])[0] for r in grid]
        assert [(p.m.hex(), p.settled) for p in batch] == [(p.m.hex(), p.settled) for p in alone]
        if case != "elliptic":
            assert alone[0] == (0.0, True) and all(p.m > 0.0 for p in alone[1:])
        if case == "rational":
            assert jittered(model, 5.0) != 5.0

    @staticmethod
    def exponential_m(C, p, r):
        # log|C e^(p pi i z)| = c - A sin(theta) with c = log|C|, A = p pi r; for
        # A > |c| it is positive where sin(theta) < c/A = sin(phi)
        c, A = math.log(abs(C)), p * math.pi * r
        if A <= abs(c):
            return max(c, 0.0)
        phi = math.asin(c / A)
        return (c * (math.pi + 2.0 * phi) + 2.0 * A * math.cos(phi)) / (2.0 * math.pi)

    @staticmethod
    def rational_jensen(model, r):
        # m(r, f) - m(r, 1/f) = log|f(0)| + N(r, 0) - N(r, oo), f(0) = 2/(-5)
        zeros = counting_data(model.zeros_upto(r), [r])[0][2]
        poles = counting_data(model.poles_upto(r), [r])[0][2]
        return math.log(0.4) + zeros - poles

    @pytest.mark.parametrize("case", ["exponential", "rational"])
    def test_results_keep_their_recorded_bits(self, case):
        # neither model evaluates the p-function, so these bits pin the
        # quadrature's own arithmetic; the values meet exact references
        model, grid = self.instance(case, None)
        found = proximity(model, grid)
        assert [(p.m.hex(), p.settled) for p in found] == self.RECORDED[case]
        for r, p in zip(grid, found):
            if case == "exponential":
                assert p.m == pytest.approx(self.exponential_m(model.C, model.p, r), rel=1e-12)
                continue
            # the circle m is measured on, and 1/f on the same circle
            used = jittered(model, r)
            inverse = proximity(ReciprocalFake(model), [used])[0]
            assert p.m - inverse.m == pytest.approx(self.rational_jensen(model, used), abs=1e-12)
        if case == "rational":
            # |f| > 1 all round from r = 5 on, so there m is Jensen's value itself
            assert found[2].m == pytest.approx(3.2188778248672003, abs=1e-14)

    def test_a_table_samples_in_few_batches(self, elliptic_model, elliptic_table):
        # one scan of all 24 half circles (the model is even), 12 ITP steps
        # until every bracket is 2^-43 wide, one arc sign test and the
        # Gauss-Kronrod rounds, each cut into slices of 2048 points: 28 calls,
        # where whole circles made 43 and plain bisection 82
        counting = CountingFake(elliptic_model)
        table = characteristic_table(counting, log_grid(1.0, 16.0, 24))
        assert counting.calls <= 30
        assert table.export()["rows"] == elliptic_table.export()["rows"]


class RoughFake:
    """log|f| = 1 plus a pseudo-random number in [0, 1) hashed from the bits of arg z.

    Positive all round and rough at every scale a quadrature can reach.
    Records the size of each ``log_abs`` call.
    """

    even = False

    def __init__(self):
        self.sizes = []

    def log_abs(self, z):
        bits = np.ascontiguousarray(np.angle(z), dtype=float).view(np.uint64)
        mixed = (bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)
        self.sizes.append(bits.size)
        return 1.0 + mixed.astype(float) / 2.0**53

    def poles_upto(self, radius):
        return []

    def zeros_upto(self, radius):
        return []

    def describe(self):
        return {"tag": "rough-fake"}


def dense_reference_m(model, r, splits):
    """m(r, f) by composite Gauss-Legendre, independent of ``proximity``.

    The circle is cut at the angles in ``splits`` and at the sign changes of
    log|f| on a 65,536-node scan, each bisected to machine precision.  Every
    positive piece is graded geometrically towards both its ends, down to
    2^-40 of its length, with 20 nodes per panel.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)
    values = model.log_abs(r * np.exp(1j * theta))
    cells = np.flatnonzero((values > 0.0) != np.roll(values > 0.0, -1))
    lo, hi = theta[cells], theta[cells] + theta[1]
    positive_lo = values[cells] > 0.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        same = (model.log_abs(r * np.exp(1j * mid)) > 0.0) == positive_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    cuts = np.sort(np.concatenate([np.mod(splits, 2.0 * math.pi), (lo + hi) / 2.0]))
    cuts = np.append(cuts, cuts[0] + 2.0 * math.pi)
    x, w = np.polynomial.legendre.leggauss(20)
    grade = 2.0 ** -np.arange(1, 41)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if model.log_abs(r * np.exp(0.5j * (a + b))) <= 0.0:
            continue
        edges = np.unique(np.concatenate([[a, b], a + (b - a) * grade, b - (b - a) * grade]))
        mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        total += float((model.log_abs(r * np.exp(1j * nodes)).reshape(mid.size, -1) @ w) @ half)
    return total / (2.0 * math.pi)


class TestSettled:
    def test_radius_jittered_next_to_a_pole_settles(self, elliptic_model):
        # the smallest nonzero pole modulus: the jitter leaves the poles of
        # that modulus 2e-6 off the circle, log spikes the adaptive rule follows
        nearest = min(abs(p) for p, _ in elliptic_model.poles_upto(3.0) if p != 0)
        table = characteristic_table(elliptic_model, [nearest, 3.0])
        assert [row.settled for row in table.rows] == [True, True]
        used = jittered(elliptic_model, nearest)
        assert used != nearest
        spikes = [cmath.phase(p) for p, _ in elliptic_model.poles_upto(3.0)
                  if abs(abs(p) - used) <= 1e-3 * used]
        reference = dense_reference_m(elliptic_model, used, np.array(spikes))
        assert table.rows[0].m == pytest.approx(reference, abs=1e-9)

    def test_a_model_rough_at_every_scale_stays_unsettled(self):
        model = RoughFake()
        table = characteristic_table(model, [2.0])
        (row,) = table.rows
        assert row.settled is False and table.export()["rows"][0]["settled"] is False
        assert 1.0 <= row.m < 2.0
        # one arc all round: after the 1024-node scan and its one-point sign
        # test, every point is a quadrature node; an arc never starts a round
        # that would take it past the cap
        assert model.sizes[:2] == [nevanlinna._SCAN_NODES, 1]
        quadrature = sum(model.sizes[2:])
        assert nevanlinna._POINT_CAP // 2 < quadrature <= nevanlinna._POINT_CAP

    def test_demo_grid_settles_everywhere(self, elliptic_table):
        assert all(row.settled for row in elliptic_table.rows)

    def test_exponential_rows_settle(self):
        for p in (1, 3):
            model = ExponentialModel(C=0.7 - 0.2j, p=p)
            table = characteristic_table(model, log_grid(10.0, 1e12, 24))
            assert all(row.settled for row in table.rows)


class StepFake:
    """log|f| = +1 on the arc 1 < arg z < 4 and -1 elsewhere; records call sizes."""

    even = False

    def __init__(self):
        self.sizes = []

    def log_abs(self, z):
        self.sizes.append(np.size(z))
        theta = np.mod(np.angle(z), 2.0 * math.pi)
        return np.where((theta > 1.0) & (theta < 4.0), 1.0, -1.0)

    def poles_upto(self, radius):
        return []

    def zeros_upto(self, radius):
        return []


class TestCrossingRefinement:
    def test_zero_on_a_scan_node(self):
        # z = 2 is the theta = 0 node: its value is clamped to -1e300, and the
        # cells on both sides of it hold a crossing close to that clamped end
        model = RationalFake([2.0, 100.0, 100j], [])
        with np.errstate(divide="ignore"):
            reference = dense_reference_m(model, 2.0, np.array([]))
        assert proximity(model, [2.0])[0].m == pytest.approx(reference, rel=1e-12)

    def test_a_step_in_log_modulus(self):
        # regula falsi gains nothing on a step, so ITP must fall back on its
        # bisection bound: the scan, at most _ITP_STEPS refinement batches,
        # the sign test of the two arcs and one round on the positive one
        model = StepFake()
        (found,) = proximity(model, [3.0])
        assert found == (pytest.approx(3.0 / (2.0 * math.pi), rel=1e-12), True)
        assert model.sizes[0] == nevanlinna._SCAN_NODES and model.sizes[-2:] == [2, 15]
        assert len(model.sizes) - 3 <= nevanlinna._ITP_STEPS


class TestCharacteristicTable:
    # m of the demo elliptic model on log_grid(1, 16, 24), recorded from the
    # scalar quadrature that sampled one point per call
    SCALAR_M = {
        0: 0.15143793455384358,
        5: 0.1618533069634601,
        11: 0.5455357233760701,
        17: 0.4430226327340257,
        23: 0.31951487096163345,
    }

    def test_batched_quadrature_matches_scalar_record(self, elliptic_table):
        for index, m in self.SCALAR_M.items():
            assert elliptic_table.rows[index].m == pytest.approx(m, rel=1e-9)
        assert round(growth_estimates(elliptic_table).order, 3) == 2.047

    def test_rational_characteristic_is_degree_log_r(self):
        # (z^3 + 2)/(z - 5): degree 3, so T(r) = 3 log r + O(1)
        cube_roots = [2 ** (1 / 3) * cmath.exp(1j * math.pi * k / 3) for k in (1, 3, 5)]
        model = RationalFake(cube_roots, [5.0])
        table = characteristic_table(model, log_grid(10.0, 1e6, 12))
        for row in table.rows:
            assert abs(row.T - 3 * math.log(row.r)) <= 3.0

    def test_exponential_table(self):
        model = ExponentialModel(C=1.0, p=1)
        table = characteristic_table(model, log_grid(10.0, 1e12, 16))
        for row in table.rows:
            assert row.n == 0 and row.N == 0.0
            assert row.T == pytest.approx(row.r, rel=1e-6)

    def test_elliptic_counts_track_cell_density(self, elliptic_model, elliptic_table):
        engine, omega = elliptic_model.params.engine, elliptic_model.params.omega
        a, b = engine.omega1 / omega, engine.omega2 / omega
        area = abs((a.conjugate() * b).imag)
        for row in elliptic_table.rows[-8:]:
            expected = 2.0 * math.pi * row.r**2 / area
            assert abs(row.n - expected) <= 0.15 * expected

    def test_characteristic_is_monotone(self, elliptic_table):
        ts = [row.T for row in elliptic_table.rows]
        assert all(b >= a - 1e-9 for a, b in zip(ts, ts[1:]))

    def test_grid_must_increase(self, elliptic_model):
        with pytest.raises(ValueError):
            characteristic_table(elliptic_model, [2.0, 1.0])

    def test_serialization_is_deterministic(self, elliptic_model, elliptic_table):
        again = characteristic_table(elliptic_model, log_grid(1.0, 16.0, 24))
        a = json.dumps(elliptic_table.export(), sort_keys=True)
        b = json.dumps(again.export(), sort_keys=True)
        assert a == b


class TestGrowthEstimates:
    def test_exponential_first_order_growth(self):
        model = ExponentialModel(C=1.0, p=1)
        table = characteristic_table(model, log_grid(10.0, 1e12, 24))
        est = growth_estimates(table)
        assert abs(est.order - 1.0) <= 0.1
        assert est.hyper_order is not None
        assert abs(est.hyper_order) <= 0.15
        assert not est.low_confidence

    def test_elliptic_second_order_growth(self, elliptic_table):
        est = growth_estimates(elliptic_table)
        assert abs(est.order - 2.0) <= 0.15
        assert est.order_width <= 0.1

    def test_too_few_usable_rows_rejected(self):
        model = ExponentialModel(C=1.0, p=1)
        table = characteristic_table(model, log_grid(10.0, 100.0, 4))
        with pytest.raises(ValueError):
            growth_estimates(table)


class TestRatioChecks:
    def test_reads_the_given_table_without_building_one(self, monkeypatch, elliptic_table):
        calls = []
        for name in ("characteristic_table", "proximity"):
            real = getattr(nevanlinna, name)
            monkeypatch.setattr(
                nevanlinna, name,
                lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
            )
        report = ratio_checks(elliptic_table, None)
        assert calls == []
        assert [row.r for row in report.rows] == [row.r for row in elliptic_table.rows]

    def test_zero_share_near_one_for_the_confined_solution(self, elliptic_table):
        report = ratio_checks(elliptic_table, None)
        top = report.rows[len(report.rows) // 2 :]
        assert report.threshold == 0.75
        for row in top:
            assert 0.8 <= row.zero_ratio <= 1.1
            assert row.degree_gap_lhs is None

    def test_degree_gap_columns_for_the_rational_class(self, elliptic_table):
        # quartic over monic linear: degree of the w-map is 4, gap is 1
        fe = FieldElem.coerce
        quartic = WPoly([fe(0), fe(0), fe(0), fe(0), fe(1)])
        den = FactoredDenominator(((fe(1), 1),), None)
        eq = make_log_deriv(a=fe(1), p_poly=quartic, q_factors=den)
        report = ratio_checks(elliptic_table, eq)
        for row in report.rows:
            assert row.degree_gap_lhs is not None
            base_T = row.degree_gap_lhs / 1.0  # gap is 1
            assert row.zero_count_rhs is not None
            assert row.zero_ratio == pytest.approx(row.zero_count_rhs / base_T)


class TestFirstMainTheoremSanity:
    # T(r, 1/(f - a)) = T(r, f) + O(1); for a = 0 the inventories of 1/(f - a)
    # are those of f, swapped
    @pytest.mark.parametrize("a", [0.0])
    def test_shifted_reciprocal_tracks_the_characteristic(
        self, a, elliptic_model, elliptic_table
    ):
        grid = [row.r for row in elliptic_table.rows[-8:]]
        stab = characteristic_table(ReciprocalFake(elliptic_model), grid)
        for srow, brow in zip(stab.rows, elliptic_table.rows[-8:]):
            assert abs(srow.T - brow.T) <= 2.0 + 0.05 * brow.T


class TestJensenFormula:
    def test_demo_proximities_meet_jensen(self, elliptic_model, elliptic_table):
        # f = alpha (p(Omega z) - p(Omega)) = alpha / (Omega z)^2 + ... at 0, so
        # m(r, f) - m(r, 1/f) = log|alpha / Omega^2| + N(r, 0) - N(r, oo), where
        # both counts carry the origin term; checked on the circles that
        # neither f nor 1/f moves off a pole
        grid = log_grid(1.0, 16.0, 24)
        reciprocal = ReciprocalFake(elliptic_model)
        inverse = characteristic_table(reciprocal, grid)
        params = elliptic_model.params
        constant = math.log(abs(params.alpha / params.omega**2))
        checked = 0
        for r, row, inv in zip(grid, elliptic_table.rows, inverse.rows):
            if r != jittered(elliptic_model, r) or r != jittered(reciprocal, r):
                continue
            checked += 1
            assert row.m - inv.m == pytest.approx(constant + row.N_zero - row.N, abs=1e-10)
        assert checked == 21
