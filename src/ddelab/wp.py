"""Numeric Weierstrass elliptic functions from invariants.

Evaluation works from (g2, g3) alone: a truncated Laurent expansion near the
origin, argument halving until the expansion applies, and the algebraic
duplication formula back up.  Periods are recovered from the cubic's roots
by the arithmetic-geometric mean and validated against the function itself
(half-period values hit the roots, translation by a period is invisible),
so a wrong AGM branch is rejected rather than propagated.  Accuracy target
is 1e-12 relative away from poles; engineering target, not a proof.
"""

from __future__ import annotations

import cmath
from itertools import permutations
from typing import List, Optional, Tuple

import numpy as np

# powers of z^2 kept beyond the double pole.  c_k = (2k-1) G_2k, so for |u| <= r0 =
# |omega_min|/4 term k is at most (2k-1) C 4^(-2k) of u^-2 in p and (k-1)(2k-1) C 4^(-2k)
# of 2u^-3 in p', with C = sum' (|omega_min|/|omega|)^4 < 8: the rest is < 2^-55 of each.
_SERIES_TERMS = 16
_HALVING_RADIUS = 0.25  # of the shortest lattice vector
_POLE_RTOL = 1e-9
_VALIDATE_TOL = 1e-8


class DegenerateLatticeError(ValueError):
    """Discriminant zero: the cubic has a repeated root, no lattice exists."""


class PoleSignal(ArithmeticError):
    """Raised when evaluation lands on (or numerically at) a lattice point."""

    def __init__(self, z: complex, nearest: complex):
        super().__init__(f"pole of the elliptic function at {nearest}")
        self.z = z
        self.nearest = nearest


def _series_coefficients(g2: complex, g3: complex, terms: int) -> List[complex]:
    """Coefficients c_k of p(z) = z^-2 + sum c_k z^(2k-2), k >= 2.

    Classical recursion driven by the defining differential equation:
    c_2 = g2/20, c_3 = g3/28, and each later c_k is a convolution of the
    earlier ones.
    """
    c = [0j] * (terms + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, terms + 1):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3.0 * s / ((2 * k + 1) * (k - 3))
    return c


def _agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the right-choice square root branch."""
    for _ in range(64):
        if abs(a - b) <= 1e-15 * (abs(a) + abs(b)):
            break
        a, b = (a + b) / 2.0, cmath.sqrt(a * b)
        # keep the branch whose sum dominates its difference
        if abs(a - b) > abs(a + b):
            b = -b
    return (a + b) / 2.0


def _gauss_reduce(p: complex, q: complex) -> Tuple[complex, complex]:
    """Shortest-vector basis of the lattice Zp + Zq."""
    if abs(p) > abs(q):
        p, q = q, p
    while True:
        m = round((q * p.conjugate()).real / abs(p) ** 2)
        q = q - m * p
        if abs(q) >= abs(p):
            break
        p, q = q, p
    return p, q


class WeierstrassP:
    """The p-function of the lattice with invariants (g2, g3).

    Exposes evaluation, the validated period basis and lattice
    enumeration.  Immutable after construction; every method is safe to
    call concurrently.

    Evaluation comes in two forms that agree to about 1e-12 of 1 + |p|.
    ``eval`` takes one point and raises ``PoleSignal`` on the lattice; the
    residual verifiers and the family parameter check call it, one point at
    a time.  It keeps the power sum, which fixes the printed bytes of alpha.
    ``eval_many`` takes an array and marks lattice points in a mask instead
    of raising; the circle quadrature calls it on thousands of points at once.
    Both are kept because numpy's fixed cost per call makes a one-point
    ``eval_many`` about 16 times slower than ``eval`` (200 against 12.5 us on 2 vCPUs).
    """

    __slots__ = ("g2", "g3", "roots", "omega1", "omega2", "_c", "_inv")

    def __init__(self, g2: complex, g3: complex):
        g2 = complex(g2)
        g3 = complex(g3)
        disc = g2**3 - 27.0 * g3**2
        scale = max(abs(g2) ** 3, abs(g3) ** 2, 1.0)
        if abs(disc) <= 1e-12 * scale:
            raise DegenerateLatticeError(
                f"discriminant g2^3 - 27 g3^2 = {disc} is numerically zero"
            )
        self.g2 = g2
        self.g3 = g3
        self.roots: Tuple[complex, complex, complex] = tuple(
            complex(r) for r in np.roots([4.0, 0.0, -g2, -g3])
        )
        self._c = _series_coefficients(g2, g3, _SERIES_TERMS)
        p1, p2 = self._find_periods()
        self.omega1 = p1  # full periods, Gauss-reduced
        self.omega2 = p2
        a, b, c, d = p1.real, p2.real, p1.imag, p2.imag
        det = a * d - b * c
        self._inv = (d / det, -b / det, -c / det, a / det)

    # -- construction helpers ------------------------------------------------

    def _find_periods(self) -> Tuple[complex, complex]:
        """Full period basis via AGM, validated before acceptance.

        The AGM half-period formulas hold for one labelling of the cubic's
        roots and one branch; rather than track branches we try labellings
        and keep the first basis under which translation invariance and the
        half-period values both check out.
        """
        last_err: Optional[str] = None
        for ea, eb, ec in permutations(self.roots):
            m1 = _agm(cmath.sqrt(ea - ec), cmath.sqrt(ea - eb))
            m2 = _agm(cmath.sqrt(ea - ec), cmath.sqrt(eb - ec))
            if m1 == 0 or m2 == 0:
                continue
            half1 = cmath.pi / (2.0 * m1)
            half2 = cmath.pi / (2.0j * m2)
            basis = _gauss_reduce(2.0 * half1, 2.0 * half2)
            err = self._basis_defect(basis)
            if err < _VALIDATE_TOL:
                return basis
            last_err = f"defect {err:.3e} for labelling ({ea}, {eb}, {ec})"
        raise DegenerateLatticeError(
            f"no validated period basis found; last candidate had {last_err}"
        )

    def _basis_defect(self, basis: Tuple[complex, complex]) -> float:
        """Max violation of the facts a true fundamental basis must satisfy."""
        p1, p2 = basis
        if p1 == 0 or p2 == 0:
            return float("inf")
        tau = p2 / p1
        if abs(tau.imag) < 1e-9:
            return float("inf")
        r0 = _HALVING_RADIUS * min(abs(p1), abs(p2))
        worst = 0.0
        # half-period values must reproduce the cubic's roots as a set
        halves = (p1 / 2.0, p2 / 2.0, (p1 + p2) / 2.0)
        vals = []
        for h in halves:
            x, y = self._eval_small(h, r0)
            vals.append(x)
            worst = max(worst, abs(y) / (1.0 + abs(x)) ** 1.5)
        for r in self.roots:
            d = min(abs(v - r) for v in vals)
            worst = max(worst, d / (1.0 + abs(r)))
        # translation by a candidate period must be invisible
        for z in (0.31 + 0.17j, -0.22 + 0.41j):
            u = z * min(abs(p1), abs(p2))
            xa, _ = self._eval_small(u, r0)
            xb, _ = self._eval_small(u + p1, r0)
            xc, _ = self._eval_small(u + p2, r0)
            m = 1.0 + abs(xa)
            worst = max(worst, abs(xb - xa) / m, abs(xc - xa) / m)
        return worst

    # -- evaluation ----------------------------------------------------------

    def _series(self, u: complex) -> Tuple[complex, complex]:
        """(p, p') from the Laurent expansion; caller keeps |u| small."""
        u2 = u * u
        acc = 0j
        dacc = 0j
        pw = 1.0 + 0j
        for k in range(2, _SERIES_TERMS + 1):
            pw *= u2  # u^(2k-2)
            acc += self._c[k] * pw
            dacc += (2 * k - 2) * self._c[k] * pw / u
        return 1.0 / u2 + acc, -2.0 / (u2 * u) + dacc

    def _duplicate(self, x: complex, y: complex) -> Tuple[complex, complex]:
        # second derivative comes from differentiating the defining ODE
        d2 = 6.0 * x * x - self.g2 / 2.0
        ratio = d2 / y
        r2 = ratio * ratio
        x2 = r2 / 4.0 - 2.0 * x
        y2 = 3.0 * x * ratio - r2 * ratio / 4.0 - y
        return x2, y2

    def _eval_small(self, u: complex, r0: Optional[float] = None) -> Tuple[complex, complex]:
        """Series-plus-duplication evaluation without lattice reduction."""
        if u == 0:
            raise PoleSignal(u, 0j)
        if r0 is None:
            r0 = _HALVING_RADIUS * min(abs(self.omega1), abs(self.omega2))
        n = 0
        while abs(u) > r0 * (1 << n) and n < 40:
            n += 1
        x, y = self._series(u / (1 << n))
        for _ in range(n):
            x, y = self._duplicate(x, y)
        return x, y

    def reduce(self, z: complex) -> complex:
        """Translate z by lattice vectors into the cell around the origin."""
        ia, ib, ic, id_ = self._inv
        m = round(ia * z.real + ib * z.imag)
        n = round(ic * z.real + id_ * z.imag)
        return z - m * self.omega1 - n * self.omega2

    def eval(self, z: complex) -> Tuple[complex, complex]:
        """(p(z), p'(z)), raising PoleSignal on lattice points."""
        u = self.reduce(complex(z))
        if abs(u) <= _POLE_RTOL * min(abs(self.omega1), abs(self.omega2)):
            raise PoleSignal(z, z - u)
        return self._eval_small(u)

    def eval_many(self, z) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, p', pole_mask) at every point of an array, same shape as z.

        Point by point this follows ``eval``: the same lattice reduction,
        pole test and halving count, the series by Horner's rule in u^2, and
        ``_duplicate`` on the arrays, each point duplicated only as often as
        it was halved.  A point's bits do not depend on the other points,
        in a batch of any size.  Where ``pole_mask`` is set, p and p' are
        infinite.  A duplication that divides by a vanishing p' (an exact
        half period) gives a non-finite value instead of ``ZeroDivisionError``.
        """
        z = np.asarray(z, dtype=complex)
        shape = z.shape
        z = z.ravel()
        ia, ib, ic, id_ = self._inv
        m = np.round(ia * z.real + ib * z.imag)
        n = np.round(ic * z.real + id_ * z.imag)
        u = z - m * self.omega1 - n * self.omega2
        scale = min(abs(self.omega1), abs(self.omega2))
        size = np.abs(u)
        pole = size <= _POLE_RTOL * scale
        # a harmless stand-in at poles keeps the arithmetic below finite
        u[pole] = scale
        size[pole] = scale
        r0 = _HALVING_RADIUS * scale
        halvings = np.zeros(u.shape, dtype=np.int64)
        for level in range(40):
            more = size > r0 * (1 << level)
            if not more.any():
                break
            halvings += more
        c = self._c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = u / np.ldexp(1.0, halvings)
            s = u * u
            x, y = np.zeros_like(s), np.zeros_like(s)
            # Horner's rule, one chain each; no in-place complex product, which
            # numpy computes without fused multiply-adds on one-element arrays
            for k in range(_SERIES_TERMS, 1, -1):
                x = (x + c[k]) * s
                y = y * s + (2 * k - 2) * c[k]
            x = x + 1.0 / s
            y = y * u - 2.0 / (s * u)
            for step in range(int(halvings.max(initial=0))):
                idx = np.flatnonzero(halvings > step)
                x[idx], y[idx] = self._duplicate(x[idx], y[idx])
        x[pole] = np.inf
        y[pole] = np.inf
        return x.reshape(shape), y.reshape(shape), pole.reshape(shape)

    # -- lattice geometry ----------------------------------------------------

    def lattice_points_in_disk(
        self, radius: float, offset: complex = 0j, cap: int = 2_000_000
    ) -> List[complex]:
        """All points offset + m*omega1 + n*omega2 with modulus <= radius."""
        ia, ib, ic, id_ = self._inv
        # integer bounds from the inverse basis applied to the disk's box
        reach_m = abs(ia) * radius + abs(ib) * radius
        reach_n = abs(ic) * radius + abs(id_) * radius
        cm = ia * (-offset.real) + ib * (-offset.imag)
        cn = ic * (-offset.real) + id_ * (-offset.imag)
        m_lo, m_hi = int(cm - reach_m) - 1, int(cm + reach_m) + 2
        n_lo, n_hi = int(cn - reach_n) - 1, int(cn + reach_n) + 2
        if (m_hi - m_lo) * (n_hi - n_lo) > cap:
            raise ValueError(
                f"lattice enumeration would visit {(m_hi - m_lo) * (n_hi - n_lo)}"
                f" cells; cap is {cap}"
            )
        # each point from its own integers: a running sum of periods would
        # carry rounding, and the origin of a generic lattice would miss 0
        ms = np.arange(m_lo, m_hi, dtype=float)[:, None]
        ns = np.arange(n_lo, n_hi, dtype=float)[None, :]
        grid = (offset + ms * self.omega1 + ns * self.omega2).ravel()
        inside = grid.real * grid.real + grid.imag * grid.imag <= radius * radius
        out = grid[inside].tolist()
        out.sort(key=lambda w: (abs(w), w.real, w.imag))
        return out
