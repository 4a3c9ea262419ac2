"""Checks for the numeric doubly periodic engine.

The expansion oracle below recomputes the Laurent tail coefficients with
exact rational arithmetic, independently of the engine's float tables, so
the engine's halving-and-doubling evaluation is compared against a second
route to the same function.
"""

import cmath
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import ddelab.analytic as analytic
from ddelab.analytic import EllipticSolutionModel, elliptic_params, verify_elliptic_family
from ddelab.nevanlinna import characteristic_table, growth_estimates, log_grid
from ddelab.wp import DegenerateLatticeError, PoleSignal, WeierstrassP

# Gamma(1/4)^2 / sqrt(8*pi), the real period of the square lattice with
# invariants (4, 0); the classical arclength constant of the lemniscate.
LEMNISCATE = 2.6220575542921196


# a generic rotation and rescaling of the demo lattice (4, 1), omega = 1 + 0.3i
ROTATION = 1.1 * cmath.exp(0.7j)


def tail_coefficients(g2, g3, terms):
    """Laurent tail coefficients c_k of 1/z^2 + sum c_k z^(2k-2), exactly."""
    c = {2: Fraction(g2) / 20, 3: Fraction(g3) / 28}
    for k in range(4, terms + 1):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = Fraction(3, (2 * k + 1) * (k - 3)) * s
    return c


class TestEvaluation:
    def test_matches_exact_rational_expansion_near_origin(self):
        w = WeierstrassP(4.0, 1.0)
        c = tail_coefficients(4, 1, 14)
        for z in (0.08, 0.05 + 0.03j, -0.06 + 0.02j):
            z = complex(z)
            p, dp = w.eval(z)
            ps = 1 / z**2 + sum(float(c[k]) * z ** (2 * k - 2) for k in range(2, 15))
            dps = -2 / z**3 + sum(
                float(c[k]) * (2 * k - 2) * z ** (2 * k - 3) for k in range(2, 15)
            )
            assert abs(p - ps) <= 1e-9 * (1 + abs(p))
            assert abs(dp - dps) <= 1e-9 * (1 + abs(dp))

    def test_defining_differential_identity(self):
        g2, g3 = 3.2, -1.1
        w = WeierstrassP(g2, g3)
        rng = Random(5)
        for _ in range(60):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                p, dp = w.eval(z)
            except PoleSignal:
                continue
            lhs = dp * dp
            rhs = 4 * p**3 - g2 * p - g3
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs) + abs(rhs))

    def test_even_oddness(self):
        w = WeierstrassP(2.0, 0.5)
        for z in (0.31 + 0.4j, -1.1 + 0.2j, 0.77):
            p1, dp1 = w.eval(complex(z))
            p2, dp2 = w.eval(-complex(z))
            assert abs(p1 - p2) <= 1e-10 * (1 + abs(p1))
            assert abs(dp1 + dp2) <= 1e-10 * (1 + abs(dp1))

    def test_double_periodicity(self):
        w = WeierstrassP(4.0, 1.0)
        rng = Random(11)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                p0, dp0 = w.eval(z)
            except PoleSignal:
                continue
            for period in (w.omega1, w.omega2, w.omega1 + w.omega2):
                p1, dp1 = w.eval(z + period)
                assert abs(p1 - p0) <= 1e-10 * (1 + abs(p0))
                assert abs(dp1 - dp0) <= 1e-10 * (1 + abs(dp0))


class TestEvalMany:
    @pytest.mark.parametrize(
        "g2, g3",
        [
            (4.0, 1.0),
            ((4.0 * ROTATION**-4).conjugate(), (1.0 * ROTATION**-6).conjugate()),
        ],
    )
    def test_matches_scalar_eval(self, g2, g3):
        w = WeierstrassP(g2, g3)
        rng = np.random.default_rng(17)
        z = rng.uniform(-12, 12, 11_951) + 1j * rng.uniform(-12, 12, 11_951)
        lattice = np.array(
            [m * w.omega1 + n * w.omega2 for m in range(-3, 4) for n in range(-3, 4)]
        )
        points = np.concatenate([z, lattice]).reshape(2, -1)
        p, dp, pole = w.eval_many(points)
        assert p.shape == dp.shape == pole.shape == points.shape
        p, dp, pole = p.ravel(), dp.ravel(), pole.ravel()
        assert not pole[: z.size].any()
        assert pole[z.size :].all()
        assert np.isinf(p[pole]).all() and np.isinf(dp[pole]).all()
        for k in range(z.size):
            ps, dps = scalar_reference(w, z[k])
            assert abs(p[k] - ps) <= 1e-10 * abs(ps)
            assert abs(dp[k] - dps) <= 1e-10 * abs(dps)

    def test_scalar_and_empty_input_keep_their_shape(self):
        w = WeierstrassP(4.0, 1.0)
        p, dp, pole = w.eval_many(0.3 + 0.2j)
        assert p.shape == () and not pole
        assert p == pytest.approx(w.eval(0.3 + 0.2j)[0], rel=1e-12)
        p, _, pole = w.eval_many(np.array([], dtype=complex))
        assert p.shape == pole.shape == (0,)


# the demo lattice (4, 1), that lattice turned a quarter and halved (invariants
# times (i/2)^-4 and (i/2)^-6), and a lattice with Gaussian invariants
KERNEL_LATTICES = [(4.0, 1.0), (64.0, -64.0), (1 + 2j, 0.3 - 1j)]


def power_sum_reference(g2, g3, u, terms=22):
    """(p, p') from the first ``terms`` Laurent terms, summed power by power."""
    c = [0j] * (terms + 1)
    c[2], c[3] = g2 / 20.0, g3 / 28.0
    for k in range(4, terms + 1):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3.0 * s / ((2 * k + 1) * (k - 3))
    u2 = u * u
    acc = dacc = 0j
    pw = 1.0 + 0j
    for k in range(2, terms + 1):
        pw *= u2
        acc += c[k] * pw
        dacc += (2 * k - 2) * c[k] * pw / u
    return 1.0 / u2 + acc, -2.0 / (u2 * u) + dacc


def scalar_reference(w, z):
    """(p, p') at one point in plain Python: reduce, halve below r0, power sum, duplicate."""
    u = w.reduce(complex(z))
    r0 = 0.25 * min(abs(w.omega1), abs(w.omega2))
    n = 0
    while abs(u) > r0 * (1 << n) and n < 40:
        n += 1
    x, y = power_sum_reference(w.g2, w.g3, u / (1 << n))
    for _ in range(n):
        ratio = (6.0 * x * x - w.g2 / 2.0) / y
        x, y = ratio * ratio / 4.0 - 2.0 * x, 3.0 * x * ratio - ratio**3 / 4.0 - y
    return x, y


class ProductSpy(np.ndarray):
    """Arrays that count the products (and quotients) they take part in, and
    those of two complex factors each with nonzero real and imaginary parts:
    the only products numpy may fuse into multiply-adds."""

    products = fusable = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, ProductSpy) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in kwargs["out"])
        if ufunc in (np.multiply, np.divide, np.square, np.power):
            factors = plain if ufunc in (np.multiply, np.divide) else plain[:1] * 2
            full = [x for x in factors
                    if np.iscomplexobj(x) and np.any(np.real(x)) and np.any(np.imag(x))]
            ProductSpy.products += 1
            ProductSpy.fusable += len(full) == 2
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(ProductSpy) if isinstance(out, np.ndarray) else out


def hex_pairs(p, dp):
    return [
        (a.real.hex(), a.imag.hex(), b.real.hex(), b.imag.hex())
        for a, b in zip(p.tolist(), dp.tolist())
    ]


def hexes(values):
    return [(a.real.hex(), a.imag.hex()) for a in values.tolist()]


def reference_45_digits(g2, g3, u, r0, terms=80):
    """(p, p') at u to 45 digits: halving below r0/2, an 80-term series, and the
    tangent duplication, all in mpmath; no step rounds to double precision."""
    import mpmath

    with mpmath.workdps(45):
        g2, g3 = mpmath.mpc(g2), mpmath.mpc(g3)
        c = [mpmath.mpc(0)] * (terms + 1)
        c[2], c[3] = g2 / 20, g3 / 28
        for k in range(4, terms + 1):
            c[k] = 3 * sum(c[m] * c[k - m] for m in range(2, k - 1)) / ((2 * k + 1) * (k - 3))
        out = []
        for point in u:
            v, n = mpmath.mpc(point), 0
            while abs(v) > r0 / 2:
                v, n = v / 2, n + 1
            s, x, y = v * v, mpmath.mpc(0), mpmath.mpc(0)
            for k in range(terms, 1, -1):
                x, y = x * s + c[k], y * s + (2 * k - 2) * c[k]
            x, y = x * s + 1 / s, y * v - 2 / (s * v)
            for _ in range(n):
                slope = (6 * x * x - g2 / 2) / y
                x2 = slope * slope / 4 - 2 * x
                x, y = x2, slope * (x - x2) - y
            out.append((x, y))
        return out


class TestBatchKernel:
    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_truncated_series_matches_a_longer_power_sum(self, g2, g3):
        # inside the halving radius eval_many sums the series without halving
        w = WeierstrassP(g2, g3)
        r0 = 0.25 * min(abs(w.omega1), abs(w.omega2))
        rng = np.random.default_rng(23)
        radius = r0 * np.sqrt(rng.uniform(1e-4, 1.0, 2000))
        u = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2000))
        p, dp, pole = w.eval_many(u)
        assert not pole.any()
        for k, point in enumerate(u.tolist()):
            ps, dps = power_sum_reference(complex(g2), complex(g3), point)
            assert abs(p[k] - ps) <= 1e-15 * abs(ps)
            assert abs(dp[k] - dps) <= 1e-15 * abs(dps)

    @staticmethod
    def mixed_points(w):
        # random points, lattice points, half periods and points 1e-9 off them
        o1, o2 = w.omega1, w.omega2
        lattice = [m * o1 + n * o2 for m in range(-2, 3) for n in range(-2, 2)]
        halves = [(m + 0.5) * o1 + n * o2 for m in range(-2, 2) for n in range(-2, 3)]
        near = [h * (1 + 1e-9j) for h in halves]
        rng = np.random.default_rng(29)
        rest = 2048 - 3 * len(lattice)
        z = np.concatenate([
            rng.uniform(-6, 6, rest) + 1j * rng.uniform(-6, 6, rest), lattice, halves, near,
        ])
        return z, len(lattice)

    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_a_point_gets_the_same_bits_in_any_batch_of_two_or_more(self, g2, g3):
        w = WeierstrassP(g2, g3)
        z, poles = self.mixed_points(w)
        rng = np.random.default_rng(37)
        p, dp, pole = w.eval_many(z)
        assert pole.sum() == poles
        whole = hex_pairs(p, dp)
        for size in (2, 37):
            parts = [w.eval_many(z[i:i + size]) for i in range(0, z.size, size)]
            chunked = hex_pairs(np.concatenate([q[0] for q in parts]),
                                np.concatenate([q[1] for q in parts]))
            assert chunked == whole
        order = rng.permutation(z.size)
        p, dp, _ = w.eval_many(z[order])
        back = np.argsort(order)
        assert hex_pairs(p[back], dp[back]) == whole

    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_a_point_alone_gets_its_batched_bits(self, g2, g3):
        # numpy multiplies complex one-element arrays in place without fused
        # multiply-adds; the kernel must not depend on that path
        w = WeierstrassP(g2, g3)
        z, _ = self.mixed_points(w)
        p, dp, _ = w.eval_many(z)
        alone = [w.eval_many(z[i:i + 1]) for i in range(z.size)]
        assert hex_pairs(np.concatenate([q[0] for q in alone]),
                         np.concatenate([q[1] for q in alone])) == hex_pairs(p, dp)

    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_p_has_the_same_bits_without_p_prime(self, g2, g3):
        w = WeierstrassP(g2, g3)
        z, _ = self.mixed_points(w)
        p, _, pole = w.eval_many(z)
        alone, none, alone_pole = w.eval_many(z, derivative=False)
        assert none is None and (alone_pole == pole).all()
        assert hexes(alone) == hexes(p)

    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_p_meets_a_45_digit_reference(self, g2, g3):
        # 400 points of the cell around the origin, which eval_many leaves
        # where they are; p within 2e-15 (1 + |p|), p' within 2e-12 |p'|
        w = WeierstrassP(g2, g3)
        rng = np.random.default_rng(47)
        a, b = rng.uniform(-0.49, 0.49, (2, 400))
        u = a * w.omega1 + b * w.omega2
        p, dp, pole = w.eval_many(u)
        assert not pole.any()
        r0 = 0.25 * min(abs(w.omega1), abs(w.omega2))
        for k, (x, y) in enumerate(reference_45_digits(g2, g3, u.tolist(), r0)):
            assert abs(p[k] - x) <= 2e-15 * (1 + abs(x))
            assert abs(dp[k] - y) <= 2e-12 * abs(y)

    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_no_product_can_be_fused(self, g2, g3):
        # so the kernel's bits do not depend on whether the host fuses, with
        # p' and without it
        w = WeierstrassP(g2, g3)
        rng = np.random.default_rng(43)
        u = rng.uniform(-6, 6, 300) + 1j * rng.uniform(-6, 6, 300)
        for derivative in (True, False):
            ProductSpy.products = ProductSpy.fusable = 0
            w._kernel(u.view(ProductSpy), 0.25 * min(abs(w.omega1), abs(w.omega2)), derivative)
            assert ProductSpy.products > 0 and ProductSpy.fusable == 0

    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_turns_and_mirrors_move_the_bits_exactly(self, g2, g3):
        # turned by i the lattice has invariants (g2, -g3), with p(iu) = -p(u)
        # and p'(iu) = i p'(u); mirrored, all conjugates.  A fused complex
        # product would round the swapped parts of a turned point differently
        w = WeierstrassP(g2, g3)
        turned = WeierstrassP(g2, -complex(g3))
        mirrored = WeierstrassP(complex(g2).conjugate(), complex(g3).conjugate())
        r0 = 0.25 * min(abs(w.omega1), abs(w.omega2))
        rng = np.random.default_rng(41)
        radius = 4 * r0 * np.sqrt(rng.uniform(0.0, 1.0, 500))
        u = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 500))
        x, y = w._kernel(u, r0)
        assert hex_pairs(*turned._kernel(1j * u, r0)) == hex_pairs(-x, 1j * y)
        assert hex_pairs(*mirrored._kernel(u.conj(), r0)) == hex_pairs(x.conj(), y.conj())
        # and p alone, as log|w| asks for it
        assert hexes(turned._kernel(1j * u, r0, derivative=False)[0]) == hexes(-x)
        assert hexes(mirrored._kernel(u.conj(), r0, derivative=False)[0]) == hexes(x.conj())

    @pytest.mark.parametrize("g2, g3", KERNEL_LATTICES)
    def test_defining_identity_on_many_points(self, g2, g3):
        w = WeierstrassP(g2, g3)
        rng = np.random.default_rng(31)
        z = rng.uniform(-8, 8, 10_000) + 1j * rng.uniform(-8, 8, 10_000)
        p, dp, pole = w.eval_many(z)
        p, dp = p[~pole], dp[~pole]
        defect = np.abs(dp * dp - (4 * p**3 - w.g2 * p - w.g3))
        assert (defect <= 1e-9 * (1 + np.abs(p)) ** 3).all()


class SpyingNumpy:
    """numpy, except that ``array`` and ``concatenate`` return ProductSpy arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def array(*args, **kwargs):
        return np.array(*args, **kwargs).view(ProductSpy)

    @staticmethod
    def concatenate(*args, **kwargs):
        return np.concatenate(*args, **kwargs).view(ProductSpy)


class TestFamilyProducts:
    # log|w| and the elliptic residual take no product numpy may fuse either,
    # so the nev floats and max_residual of a lattice do not depend on the host
    @pytest.fixture
    def params(self, monkeypatch):
        params = elliptic_params(4.0, 1.0, 1.0 + 0.3j, 1.0)
        eval_many = WeierstrassP.eval_many

        def spied(engine, z, derivative=True):
            return tuple(v if v is None else v.view(ProductSpy)
                         for v in eval_many(engine, z, derivative))

        monkeypatch.setattr(WeierstrassP, "eval_many", spied)
        ProductSpy.products = ProductSpy.fusable = 0
        return params

    def test_no_product_in_log_abs_can_be_fused(self, params):
        z = 3.0 * np.exp(2j * np.pi * np.arange(300) / 300)
        EllipticSolutionModel(params).log_abs(z.view(ProductSpy))
        assert ProductSpy.products > 0 and ProductSpy.fusable == 0

    def test_no_product_in_the_residual_can_be_fused(self, params, monkeypatch):
        # the verifier makes its sample points with np.array and np.concatenate
        monkeypatch.setattr(analytic, "np", SpyingNumpy())
        assert verify_elliptic_family(params).passed
        assert ProductSpy.products > 0 and ProductSpy.fusable == 0


class TestFamilyParameterBytes:
    # alpha of w = alpha*(p(Wz) - p(W)) as the reports print it, recorded
    # with the one p kernel and its duplication of p alone.  The lattices are those of the nev-numeric
    # benchmark: the demo lattice (4, 1) with W = 1 + 0.3i, scaled by 1/2, 1
    # or 2, turned by a multiple of a quarter and maybe mirrored, with every
    # component rounded to 12 decimals as the generator writes it.  alpha
    # does not depend on the turn; a mirror conjugates it.
    ALPHA = {
        (1, 0.5): "(0.13768495934744238+0.1295537114381671j)",
        (1, 1.0): "(0.5507398373897695+0.5182148457526684j)",
        (1, 2.0): "(2.202959349559078+2.0728593830106736j)",
        (2, 0.5): "(0.19471593684394126+0.1832166157716263j)",
        (2, 1.0): "(0.778863747375765+0.7328664630865052j)",
        (2, 2.0): "(3.11545498950306+2.9314658523460206j)",
        (3, 0.5): "(0.23847734502782558+0.22439361052002266j)",
        (3, 1.0): "(0.9539093801113023+0.8975744420800906j)",
        (3, 2.0): "(3.8156375204452093+3.5902977683203625j)",
        (0.5, 0.5): "(0.09735796842197063+0.09160830788581314j)",
        (0.5, 1.0): "(0.3894318736878825+0.3664332315432526j)",
        (0.5, 2.0): "(1.55772749475153+1.4657329261730103j)",
        (1.5, 0.5): "(0.16862894782853946+0.15867024365364105j)",
        (1.5, 1.0): "(0.6745157913141578+0.6346809746145642j)",
        (1.5, 2.0): "(2.6980631652566314+2.5387238984582567j)",
    }

    @staticmethod
    def rounded(z):
        return complex(round(z.real, 12), round(z.imag, 12))

    @pytest.mark.parametrize("lam", [1, 2, 3, 0.5, 1.5])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_benchmark_lattices_print_the_recorded_alpha(self, lam, scale):
        for turn in (1, 1j, -1, -1j):
            for mirror in (False, True):
                c = scale * turn
                g2, g3, omega = 4.0 * c**-4, 1.0 * c**-6, complex(1.0, 0.3) * c
                if mirror:
                    g2, g3, omega = g2.conjugate(), g3.conjugate(), omega.conjugate()
                params = elliptic_params(
                    self.rounded(g2), self.rounded(g3), self.rounded(omega), complex(lam)
                )
                alpha = self.ALPHA[lam, scale]
                if mirror:
                    alpha = str(complex(alpha).conjugate())
                assert params.export()["alpha"] == alpha

    def test_demo_lattices_print_the_recorded_alpha(self):
        # the demo corpus's verify and nev requests
        verify = elliptic_params(4.0, 1.0, 0.37 + 0.11j, 1 + 0j).export()
        nev = elliptic_params(4.0, 1.0, 1.0 + 0.3j, 1 + 0j).export()
        assert verify["alpha"] == "(0.08819867713340848+0.057798885053613955j)"
        assert nev["alpha"] == self.ALPHA[1, 1.0]


class TestLatticeGeometry:
    def test_pole_raises_signal_with_location(self):
        w = WeierstrassP(4.0, 1.0)
        with pytest.raises(PoleSignal) as exc:
            w.eval(0j)
        assert exc.value.nearest == 0j
        point = 2 * w.omega1 + w.omega2
        with pytest.raises(PoleSignal):
            w.eval(point)

    def test_degenerate_invariants_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            WeierstrassP(3.0, 1.0)  # g2^3 = 27 g3^2
        with pytest.raises(DegenerateLatticeError):
            WeierstrassP(0.0, 0.0)

    def test_square_lattice_period_is_lemniscate_constant(self):
        w = WeierstrassP(4.0, 0.0)
        assert abs(w.omega1) == pytest.approx(LEMNISCATE, rel=1e-13)
        assert abs(w.omega2) == pytest.approx(LEMNISCATE, rel=1e-13)
        ratio = w.omega2 / w.omega1
        assert abs(abs(ratio.imag) - 1.0) <= 1e-12
        assert abs(ratio.real) <= 1e-12

    def test_reduce_lands_in_fundamental_cell(self):
        w = WeierstrassP(4.0, 1.0)
        z = 3.7 * w.omega1 - 2.2 * w.omega2 + 0.13 + 0.07j
        u = w.reduce(z)
        # difference is a lattice point, the reduced representative is small
        assert abs(w.reduce(z) - w.reduce(u)) <= 1e-9
        p1, _ = w.eval(z)
        p2, _ = w.eval(u)
        assert abs(p1 - p2) <= 1e-9 * (1 + abs(p1))

    def test_disk_enumeration_count_tracks_cell_density(self):
        w = WeierstrassP(4.0, 1.0)
        radius = 14.0
        pts = w.lattice_points_in_disk(radius)
        area = abs((w.omega1.conjugate() * w.omega2).imag)
        expected = math.pi * radius**2 / area
        assert abs(len(pts) - expected) <= 0.1 * expected + 8
        assert all(abs(p) <= radius + 1e-9 for p in pts)
        # sorted by modulus, deterministic
        mods = [abs(p) for p in pts]
        assert mods == sorted(mods)
        assert pts == w.lattice_points_in_disk(radius)

    def test_rotated_lattice_keeps_the_origin_pole_exact(self):
        # a running sum of periods used to leave the origin near 1e-15
        w = WeierstrassP(4.0 * ROTATION**-4, 1.0 * ROTATION**-6)
        pts = w.lattice_points_in_disk(16.0)
        assert pts[0] == 0j
        assert all(abs(p) > 1e-3 for p in pts[1:])

    def test_rotated_elliptic_solution_has_order_two(self):
        params = elliptic_params(
            g2=4.0 * ROTATION**-4, g3=1.0 * ROTATION**-6,
            omega=(1.0 + 0.3j) * ROTATION, lam=1.0,
        )
        model = EllipticSolutionModel(params)
        assert model.poles_upto(4.0)[0] == (0j, 2)
        table = characteristic_table(model, log_grid(1.0, 16.0, 24))
        assert abs(growth_estimates(table).order - 2.0) <= 0.25

    def test_offset_enumeration_shifts_the_grid(self):
        w = WeierstrassP(4.0, 1.0)
        off = 0.31 + 0.12j
        pts = w.lattice_points_in_disk(6.0, off)
        for p in pts[:10]:
            assert abs(w.reduce(p - off)) <= 1e-9
