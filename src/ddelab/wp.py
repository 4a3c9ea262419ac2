"""Numeric Weierstrass elliptic functions from invariants.

Evaluation works from (g2, g3) alone, in one kernel over arrays: argument
halving until a truncated Laurent expansion near the origin applies, the
expansion by Horner's rule, and the duplication formula of p alone back up;
p' is summed and doubled only for a caller that asks for it.
Periods are recovered from the cubic's roots by the arithmetic-geometric mean
and validated against the function itself (half-period values hit the roots,
translation by a period is invisible), so a wrong AGM branch is rejected
rather than propagated.  Accuracy target is 1e-12 relative away from poles;
engineering target, not a proof.
"""

from __future__ import annotations

import cmath
from itertools import permutations
from typing import List, Optional, Tuple

import numpy as np

# powers of z^2 kept beyond the double pole.  c_k = (2k-1) G_2k, so for |u| <= r0 =
# |omega_min|/4 term k is at most (2k-1) C 4^(-2k) of u^-2 in p and (k-1)(2k-1) C 4^(-2k)
# of 2u^-3 in p', with C = sum' (|omega_min|/|omega|)^4 < 8: the rest is < 2^-55 of each.
# p' is summed only on request: p doubles by ((p^2 + g2/4)^2 + 2g3 p)/(4p^3 - g2 p - g3) (DLMF
# 23.10), which needs no p' and, unlike the tangent's slope^2/4 - 2p, does not cancel near a pole.
_SERIES_TERMS = 16
_HALVING_RADIUS = 0.25  # of the shortest lattice vector
_POLE_RTOL = 1e-9
_VALIDATE_TOL = 1e-8
_LATTICE_CAP = 2_000_000  # cells one enumeration may visit, whatever radius a corpus asks for


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
    c[2], c[3] = g2 / 20.0, g3 / 28.0
    for k in range(4, terms + 1):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3.0 * s / ((2 * k + 1) * (k - 3))
    return c


def _parts(b) -> Tuple[np.ndarray, np.ndarray]:
    """b, an array or a number, as the pair (Re b, i Im b) of complex arrays, for ``_times``.

    numpy may fuse the multiply-adds of a complex product, which then rounds by
    host and unlike its quarter turn; a product by a real or an imaginary
    number has nothing to fuse.
    """
    b = np.asanyarray(b)
    return b.real.astype(complex), 1j * b.imag


def _times(a, b: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """a * b for b given by ``_parts``, without a fused multiply-add."""
    out = a * b[0]
    out += a * b[1]
    return out


def _reciprocal(b: np.ndarray) -> np.ndarray:
    """1/b as conj(b)/|b|^2 in real arithmetic, with no fused product either."""
    d = b.real**2 + b.imag**2
    return b.real / d - 1j * (b.imag / d)


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

    All evaluation goes through one array kernel.  ``eval_many`` takes an
    array and marks lattice points in a mask; the circle quadrature and the
    residual verifier call it on all their points at once.  ``eval`` is a
    one-point adapter over it that raises ``PoleSignal`` on the lattice.
    """

    __slots__ = ("g2", "g3", "roots", "omega1", "omega2", "_c", "_inv")

    def __init__(self, g2: complex, g3: complex):
        g2, g3 = complex(g2), complex(g3)
        disc = g2**3 - 27.0 * g3**2
        scale = max(abs(g2) ** 3, abs(g3) ** 2, 1.0)
        if abs(disc) <= 1e-12 * scale:
            raise DegenerateLatticeError(
                f"discriminant g2^3 - 27 g3^2 = {disc} is numerically zero"
            )
        self.g2, self.g3 = g2, g3
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
            basis = _gauss_reduce(cmath.pi / m1, cmath.pi / (1j * m2))
            err = self._basis_defect(basis)
            if err < _VALIDATE_TOL:
                return basis
            last_err = f"defect {err:.3e} for labelling ({ea}, {eb}, {ec})"
        raise DegenerateLatticeError(
            f"no validated period basis found; last candidate had {last_err}"
        )

    def _basis_defect(self, basis: Tuple[complex, complex]) -> float:
        """Max violation of the facts a true fundamental basis must satisfy.

        The probes go through one ``_kernel`` call with the candidate's own
        halving radius; a non-finite value rejects the candidate.
        """
        p1, p2 = basis
        if p1 == 0 or p2 == 0 or abs((p2 / p1).imag) < 1e-9:
            return float("inf")
        short = min(abs(p1), abs(p2))
        # the 3 half periods, then two probes v at v, v + p1 and v + p2
        probes = [v * short for v in (0.31 + 0.17j, -0.22 + 0.41j)]
        u = [(p1 / 2.0, p2 / 2.0, (p1 + p2) / 2.0)] + [(v, v + p1, v + p2) for v in probes]
        x, y = self._kernel(np.array(u).ravel(), _HALVING_RADIUS * short)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            return float("inf")
        x, roots = x.reshape(3, 3), np.array(self.roots)
        # half-period values must reproduce the cubic's roots as a set,
        # and translation by a candidate period must be invisible
        return float(max(
            (np.abs(y[:3]) / (1.0 + np.abs(x[0])) ** 1.5).max(),
            (np.abs(x[0][:, None] - roots).min(axis=0) / (1.0 + np.abs(roots))).max(),
            (np.abs(x[1:, 1:] - x[1:, :1]) / (1.0 + np.abs(x[1:, :1]))).max(),
        ))

    # -- evaluation ----------------------------------------------------------

    def _duplicate(self, x: np.ndarray, y: Optional[np.ndarray], idx: np.ndarray) -> None:
        """p(u) to p(2u) in x[idx], and p'(u) to p'(2u) in y[idx] unless y is None."""
        x1 = x[idx]
        by_x = _parts(x1)
        s = _times(x1, by_x)
        top = s + self.g2 / 4.0
        top = _times(top, _parts(top)) + _times(x1, _parts(2.0 * self.g3))
        x[idx] = _times(top, _parts(_reciprocal(_times(4.0 * s - self.g2, by_x) - self.g3)))
        if y is not None:
            # the tangent at (x1, y) to y^2 = 4x^3 - g2 x - g3 meets it again at (p(2u), -p'(2u))
            slope = _parts(_times(6.0 * s - self.g2 / 2.0, _parts(_reciprocal(y[idx]))))
            y[idx] = _times(x1 - x[idx], slope) - y[idx]

    def _kernel(self, u: np.ndarray, r0: float, derivative: bool = True):
        """(p, p') at nonzero points of a 1-d array, without lattice reduction.

        Each point is halved until it lies within r0 (at most 40 times), summed
        by Horner's rule in u^2 and duplicated back up, with no fused product
        (see ``_parts``): its bits depend neither on the other points nor on the
        host, and turn exactly with the lattice.  p' is None unless ``derivative``;
        p has the same bits either way.  A zero of p' gives non-finite values.
        """
        # the least k >= 0 with |u| <= r0 * 2^k; a mantissa of 1/2 is a power of 2
        mantissa, exponent = np.frexp(np.abs(u) / r0)
        halvings = np.clip(exponent - (mantissa == 0.5), 0, 40)
        c = self._c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = u * np.ldexp(1.0, -halvings)
            by_u = _parts(u)
            s = _times(u, by_u)
            by_s = _parts(s)
            x, y = c[_SERIES_TERMS], (2 * _SERIES_TERMS - 2) * c[_SERIES_TERMS]
            for k in range(_SERIES_TERMS - 1, 1, -1):
                x = _times(x, by_s)
                x += c[k]
                if derivative:
                    y = _times(y, by_s)
                    y += (2 * k - 2) * c[k]
            # p = s x + 1/s and p' = u y - 2/(s u)
            x = _times(x, by_s) + _reciprocal(s)
            y = _times(y, by_u) - 2.0 * _reciprocal(_times(s, by_u)) if derivative else None
            for step in range(int(halvings.max(initial=0))):
                self._duplicate(x, y, np.flatnonzero(halvings > step))
        return x, y

    def reduce(self, z: complex) -> complex:
        """Translate z by lattice vectors into the cell around the origin."""
        ia, ib, ic, id_ = self._inv
        m = round(ia * z.real + ib * z.imag)
        n = round(ic * z.real + id_ * z.imag)
        return z - m * self.omega1 - n * self.omega2

    def eval(self, z: complex) -> Tuple[complex, complex]:
        """(p(z), p'(z)) at one point by ``eval_many``, raising PoleSignal on lattice points."""
        p, dp, pole = self.eval_many(z)
        if pole:
            raise PoleSignal(z, z - self.reduce(complex(z)))
        return complex(p), complex(dp)

    def eval_many(self, z, derivative: bool = True):
        """(p, p', pole_mask) at every point of an array, same shape as z.

        Each point is reduced into the cell around the origin and evaluated by
        ``_kernel``.  p' is None unless ``derivative``; both are infinite at ``pole_mask``.
        """
        shape = np.shape(z)
        z = np.asarray(z, dtype=complex).ravel()
        ia, ib, ic, id_ = self._inv
        m = np.round(ia * z.real + ib * z.imag)
        n = np.round(ic * z.real + id_ * z.imag)
        u = z - m * self.omega1 - n * self.omega2
        scale = min(abs(self.omega1), abs(self.omega2))
        pole = np.abs(u) <= _POLE_RTOL * scale
        # a harmless stand-in at poles keeps the arithmetic below finite
        u[pole] = scale
        x, y = (v if v is None else np.where(pole, np.inf, v).reshape(shape)
                for v in self._kernel(u, _HALVING_RADIUS * scale, derivative))
        return x, y, pole.reshape(shape)

    # -- lattice geometry ----------------------------------------------------

    def lattice_points_in_disk(self, radius: float, offset: complex = 0j) -> List[complex]:
        """All points offset + m*omega1 + n*omega2 with modulus <= radius."""
        ia, ib, ic, id_ = self._inv
        # integer bounds from the inverse basis applied to the disk's box
        reach_m = abs(ia) * radius + abs(ib) * radius
        reach_n = abs(ic) * radius + abs(id_) * radius
        cm = ia * (-offset.real) + ib * (-offset.imag)
        cn = ic * (-offset.real) + id_ * (-offset.imag)
        m_lo, m_hi = int(cm - reach_m) - 1, int(cm + reach_m) + 2
        n_lo, n_hi = int(cn - reach_n) - 1, int(cn + reach_n) + 2
        if (m_hi - m_lo) * (n_hi - n_lo) > _LATTICE_CAP:
            raise ValueError(
                f"lattice enumeration would visit {(m_hi - m_lo) * (n_hi - n_lo)}"
                f" cells; cap is {_LATTICE_CAP}"
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
