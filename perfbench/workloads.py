"""Seeded corpora for the three workloads, each entry with its expected outcome.

A workload is a fixed mix of equation families from the paper.  The seed
draws the parameters; the family fixes the answer, so every entry carries
what each subcommand must report for it, known by construction and never
computed with ddelab:

* inverse-square ``a = lam + mu*z, b = nu*a - mu, c = 0`` is the confined
  family: ``classify`` returns exactly ``(lam, mu, nu)`` and the zero seed
  confines at offset 3;
* inverse-square ``a = lam, b = nu*z`` leaves a simple-pole tail whose
  residue obstruction is ``gamma = -(b(z+2) - b(z)) = -2*nu``;
* a polynomial right side of w-degree ``d`` seeded with a pole of order
  ``q`` has pole orders ``q*d^k`` at offset ``k``;
* the log-deriv degree test, the pure-log-deriv constancy test and the
  inverse-square extraction each follow from the degrees and coefficients
  the generator chose.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Dict, List, Tuple

SCHEMA_VERSION = 1

# the demo lattice of the built-in corpus's elliptic nev request
DEMO_G2, DEMO_G3, DEMO_OMEGA = 4.0, 1.0, complex(1.0, 0.3)

# stated tolerances of the fitted order: the elliptic family has order 2,
# the exponential family order 1
ELLIPTIC_ORDER, ELLIPTIC_ORDER_TOL = 2.0, 0.25
EXPONENTIAL_ORDER, EXPONENTIAL_ORDER_TOL = 1.0, 0.01

Expectations = Dict[str, Dict[str, dict]]


# ---------------------------------------------------------------------------
# expression text


def q_text(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def g_text(re: Fraction, im: Fraction = Fraction(0)) -> str:
    """A Gaussian rational in the expression grammar."""
    if not im:
        return q_text(re)
    imag = f"({q_text(im)})*i"
    return imag if not re else f"({q_text(re)}) + {imag}"


def poly_text(coeffs: List[Tuple[Fraction, Fraction]], var: str = "z") -> str:
    """sum c_k var^k for Gaussian coefficients (re, im), constant first."""
    parts = []
    for k, (re, im) in enumerate(coeffs):
        if not re and not im:
            continue
        c = g_text(re, im)
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        parts.append(f"({c})" + (f"*{mono}" if mono else ""))
    return " + ".join(parts) if parts else "0"


def _nonzero_int(rng: Random, bound: int) -> int:
    v = 0
    while v == 0:
        v = rng.randint(-bound, bound)
    return v


def _small_rational(rng: Random) -> Fraction:
    """Nonzero rational with numerator and denominator of a few bits."""
    return Fraction(_nonzero_int(rng, 4), rng.choice((1, 1, 2, 3)))


def _gaussian(rng: Random, complex_share: float) -> Tuple[Fraction, Fraction]:
    re = _small_rational(rng)
    im = _small_rational(rng) if rng.random() < complex_share else Fraction(0)
    return re, im


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


# ---------------------------------------------------------------------------
# families: make(rng, k) returns the k-th entry of a family (without its
# id) and the expected outcome per subcommand


def _confined_triple_entry(lam, mu, nu):
    """a = lam + mu*z, b = nu*a - mu: the confined inverse-square family."""
    b0 = _gsub(_gmul(nu, lam), mu)
    b1 = _gmul(nu, mu)
    entry = {
        "class": "inverse-square",
        "a": poly_text([lam, mu]), "b": poly_text([b0, b1]), "c": "0",
    }
    expect = {"classify": {
        "eq_kind": "inverse-square", "outcome": "consistent-branch-a",
        "params": [lam, mu, nu],
    }}
    return entry, expect


# |lam|, |mu|, |nu| of the cascade's affine entries.  lam and mu share a sign,
# since (a, b) -> (-a, -b) maps w to -w; with nu of either sign every draw
# costs the same term products to within 0.1%, and no root of a sits at an
# integer shift, where cancellations would make a draw much cheaper.
AFFINE_MAGNITUDES = ((1, 2, 3), (2, 3, 1), (3, 2, 1))


def affine_confined(rng: Random, k: int, complex_share: float = 0.0):
    if complex_share:
        lam, mu, nu = (_gaussian(rng, complex_share) for _ in range(3))
    else:
        m_lam, m_mu, m_nu = rng.choice(AFFINE_MAGNITUDES)
        s = rng.choice((-1, 1))
        lam = (Fraction(s * m_lam), Fraction(0))
        mu = (Fraction(s * m_mu), Fraction(0))
        nu = (Fraction(rng.choice((-1, 1)) * m_nu), Fraction(0))
    entry, expect = _confined_triple_entry(lam, mu, nu)
    entry["cascade"] = {"seed": "zero-of-w", "order": 1, "steps": 3}
    expect["cascade"] = {"kind": "confined", "triple": True}
    return entry, expect


def constant_confined(rng: Random, k: int):
    """mu = 0 and nu != 0: confined, and the mKdV reduction applies."""
    zero = (Fraction(0), Fraction(0))
    lam = (_small_rational(rng), Fraction(0))
    nu = (_small_rational(rng), Fraction(0))
    entry, expect = _confined_triple_entry(lam, zero, nu)
    entry["cascade"] = {"seed": "zero-of-w", "order": 1, "steps": 3}
    entry["verify"] = {"kind": "mkdv", "samples": 100}
    expect["cascade"] = {"kind": "confined", "triple": True}
    expect["verify"] = {"check": "mkdv-reduction", "samples": 100}
    return entry, expect


def broken_tail(rng: Random, k: int):
    """a = lam, b = nu*z: no triple, simple-pole tail with gamma = -2*nu."""
    lam = _small_rational(rng)
    nu = _small_rational(rng)
    entry = {
        "class": "inverse-square",
        "a": q_text(lam), "b": poly_text([(0, 0), (nu, 0)]), "c": "0",
        "cascade": {"seed": "zero-of-w", "order": 1, "steps": 4},
    }
    expect = {
        "cascade": {"kind": "simple-pole-tail", "triple": False, "witness": [-2 * nu, Fraction(0)]},
        "classify": {"eq_kind": "inverse-square", "outcome": "violates-necessary-condition",
                     "params": None},
    }
    return entry, expect


# (w-degree d, seed pole order q) of the polynomial entries, taken in turn:
# a fixed mix keeps the light entries' total cost the same for every seed
POLYNOMIAL_STRATA = ((2, 1), (3, 2), (4, 1), (4, 2))


def polynomial_blowup(rng: Random, k: int):
    """Right side of w-degree d >= 2 and a pole seed of order q."""
    d, q = POLYNOMIAL_STRATA[k % len(POLYNOMIAL_STRATA)]
    coeffs = [str(rng.randint(-3, 3)) for _ in range(d)] + [str(_nonzero_int(rng, 3))]
    if k % 2:
        coeffs[0] = f"{coeffs[0]} + {_nonzero_int(rng, 3)}*z"
    entry = {
        "class": "log-deriv", "a": "0", "p": coeffs, "q_factors": [],
        "cascade": {"seed": "pole-of-w", "order": q, "steps": 3},
    }
    expect = {"cascade": {"pole_orders": [q * d**j for j in range(1, 4)]}}
    return entry, expect


# Rotations and rescalings of the demo lattice that floating point carries
# out exactly.  A generic angle or scale is not usable yet: the enumeration
# in WeierstrassP.lattice_points_in_disk sums periods step by step, so the
# origin pole of a generic lattice comes out near 1e-15 instead of 0, and
# counting_data then adds about 2*log(r/1e-15) to N(r) at every radius.
# The fitted order drops from 2 to about 0.45 on most such lattices.
QUARTER_TURNS = (1, 1j, -1, -1j)
POWER_OF_TWO_SCALES = (0.5, 1.0, 2.0)


def _perturbed_lattice(rng: Random) -> Tuple[complex, complex, complex]:
    """The demo lattice rotated and rescaled by a seeded c, maybe conjugated.

    (g2, g3) -> (g2 c^-4, g3 c^-6) maps the period lattice L to c*L, and
    omega -> c*omega keeps the model's pole lattice L/omega equal to the
    demo's.  Conjugating all three mirrors the model.  The measured function
    and so the work per entry are the same for every seed; what changes is
    the p-function's lattice, its periods and every argument it is
    evaluated at.
    """
    c = rng.choice(POWER_OF_TWO_SCALES) * rng.choice(QUARTER_TURNS)
    g2, g3, omega = DEMO_G2 * c**-4, DEMO_G3 * c**-6, DEMO_OMEGA * c
    if rng.random() < 0.5:
        g2, g3, omega = g2.conjugate(), g3.conjugate(), omega.conjugate()
    return g2, g3, omega


def _pair(z: complex) -> List[float]:
    return [round(z.real, 12), round(z.imag, 12)]


def elliptic_family(rng: Random, k: int, with_nev: bool = True):
    """a = lam, b = c = 0: the doubly periodic family w = alpha*(p(Wz) - p(W)).

    lam scales |w| and so the proximity work; nev entries keep lam = 1.
    """
    lam = Fraction(1) if with_nev else Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    g2, g3, omega = _perturbed_lattice(rng)
    lattice = {"g2": _pair(g2), "g3": _pair(g3), "omega": _pair(omega)}
    entry = {"class": "inverse-square", "a": q_text(lam), "b": "0", "c": "0",
             "verify": {"kind": "elliptic", **lattice, "samples": 100}}
    zero = (Fraction(0), Fraction(0))
    expect = {
        "classify": {"eq_kind": "inverse-square", "outcome": "consistent-branch-a",
                     "params": [(lam, Fraction(0)), zero, zero]},
        "verify": {"check": "elliptic-family", "samples": 100},
    }
    if with_nev:
        entry["nev"] = {"kind": "elliptic", **lattice, "r_min": 2.0, "r_max": 16.0, "radii": 12}
        expect["nev"] = {"kind": "elliptic", "radii": 12,
                         "order": ELLIPTIC_ORDER, "tol": ELLIPTIC_ORDER_TOL}
    return entry, expect


def exponential_family(rng: Random, k: int, with_nev: bool = True):
    """Constant pure-log-deriv entry carrying the family C*exp(p*pi*i*z)."""
    a = _small_rational(rng)
    b = _small_rational(rng)
    p = rng.choice((1, 2, 3))
    C = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    entry = {"class": "pure-log-deriv", "a": q_text(a), "b": q_text(b),
             "verify": {"kind": "exponential", "p": p, "C": _pair(C), "samples": 100}}
    expect = {
        "classify": {"eq_kind": "pure-log-deriv", "outcome": "consistent-branch-a"},
        "verify": {"check": "exponential-family", "samples": 100},
    }
    if with_nev:
        entry["nev"] = {"kind": "exponential", "p": p, "C": _pair(C),
                        "r_min": 10.0, "r_max": 1e12, "radii": 24}
        expect["nev"] = {"kind": "exponential", "radii": 24,
                         "order": EXPONENTIAL_ORDER, "tol": EXPONENTIAL_ORDER_TOL}
    return entry, expect


def _log_deriv_entry(rng: Random, dp: int, dq: int, share_root: bool = False):
    """P of w-degree dp over Q = prod (w - r_i) with dq distinct nonzero roots.

    P's constant coefficient carries a z term, so P(r) is never identically
    zero and P, Q share no root unless ``share_root`` builds one in.
    """
    roots = rng.sample([r for r in range(-5, 6) if r], dq)
    if share_root:
        # P = (w - r0) * (w - s): constant coefficients, common root r0
        s = rng.choice([v for v in range(-5, 6) if v != roots[0]])
        coeffs = [str(roots[0] * s), str(-(roots[0] + s)), "1"]
    else:
        coeffs = [str(rng.randint(-3, 3)) for _ in range(dp)] + [str(_nonzero_int(rng, 3))]
        coeffs[0] = f"{coeffs[0]} + {_nonzero_int(rng, 3)}*z"
    entry = {"class": "log-deriv", "a": str(rng.randint(0, 2)), "p": coeffs,
             "q_factors": [{"root": str(r), "mult": 1} for r in roots]}
    return entry


def log_deriv_family(kind: str) -> Callable:
    """Degree-test families: branch a, branch b, violated, shared root."""

    def make(rng: Random, k: int):
        if kind == "branch-a":
            dq = rng.choice((0, 1, 2))
            dp = dq + 1
        elif kind == "branch-b":
            dp, dq = rng.choice(((0, 0), (1, 1), (0, 1)))
        elif kind == "violated":
            dp, dq = rng.choice(((2, 0), (3, 1), (2, 2), (4, 2), (4, 3), (3, 3)))
        else:
            dp, dq = 2, rng.choice((1, 2))
        entry = _log_deriv_entry(rng, dp, dq, share_root=(kind == "shared-root"))
        if kind == "shared-root":
            expect = {"eq_kind": "log-deriv", "outcome": "hypothesis-violation"}
        else:
            outcome = {"branch-a": "consistent-branch-a", "branch-b": "consistent-branch-b",
                       "violated": "violates-necessary-condition"}[kind]
            expect = {"eq_kind": "log-deriv", "outcome": outcome,
                      "also_branch_b": kind == "branch-a" and max(dp, dq) <= 1}
        expect["degrees"] = {"num": dp, "den": dq, "map": max(dp, dq)}
        return entry, {"classify": expect}

    return make


def pure_log_deriv_varying(rng: Random, k: int):
    a = _small_rational(rng)
    b = _small_rational(rng)
    slope = _nonzero_int(rng, 3)
    if rng.random() < 0.5:
        a_text, b_text = f"{q_text(a)} + {slope}*z", q_text(b)
    else:
        a_text, b_text = q_text(a), f"{q_text(b)} + {slope}*z^2"
    entry = {"class": "pure-log-deriv", "a": a_text, "b": b_text}
    return entry, {"classify": {"eq_kind": "pure-log-deriv",
                                "outcome": "violates-necessary-condition"}}


def inverse_square_broken(kind: str) -> Callable:
    """Inverse-square entries that fail extraction: c != 0, a not affine, b off."""

    def make(rng: Random, k: int):
        lam = _small_rational(rng)
        mu = _small_rational(rng)
        nu = _small_rational(rng)
        a = poly_text([(lam, 0), (mu, 0)])
        b = poly_text([(nu * lam - mu, 0), (nu * mu, 0)])
        c = "0"
        if kind == "additive":
            c = q_text(_small_rational(rng))
        elif kind == "non-affine":
            a = poly_text([(lam, 0), (mu, 0), (_small_rational(rng), 0)])
        else:
            # (b + mu)/a = nu + delta*z/(lam + mu*z) is not constant: lam != 0
            b = poly_text([(nu * lam - mu, 0), (nu * mu + _small_rational(rng), 0)])
        entry = {"class": "inverse-square", "a": a, "b": b, "c": c}
        return entry, {"classify": {"eq_kind": "inverse-square",
                                    "outcome": "violates-necessary-condition",
                                    "params": None}}

    return make


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: Tuple[Tuple[str, int, Callable], ...]
    subcommands: Tuple[str, ...]

    def generate(self, seed: int) -> Tuple[dict, Expectations]:
        """Corpus document and expectations per entry id, from the seed alone."""
        rng = Random(f"{self.name}:{seed}")
        entries, expect = [], {}
        for family, count, make in self.mix:
            for k in range(count):
                eid = f"{family}-{k:03d}"
                entry, exp = make(rng, k)
                entries.append({"id": eid, **entry, "note": family})
                expect[eid] = exp
        order = list(range(len(entries)))
        rng.shuffle(order)
        entries = [entries[i] for i in order]
        return {"schema_version": SCHEMA_VERSION, "entries": entries}, expect

    def describe_mix(self) -> str:
        return ", ".join(f"{count} {family}" for family, count, _ in self.mix)


WORKLOADS: Dict[str, Workload] = {}
for _w in (
    Workload(
        name="cascade-exact",
        why="exact Q(i) algebra does nearly all the work; the wp function and quadrature none",
        mix=(
            ("affine-confined", 1, affine_confined),
            ("constant-confined", 4, constant_confined),
            ("broken-tail", 4, broken_tail),
            ("polynomial", 4, polynomial_blowup),
        ),
        subcommands=("cascade", "verify"),
    ),
    Workload(
        name="nev-numeric",
        why="wp evaluation and proximity quadrature do nearly all the work; "
            "exponential rows bypass wp",
        mix=(
            ("elliptic", 2, elliptic_family),
            ("exponential", 3, exponential_family),
        ),
        subcommands=("nev", "verify"),
    ),
    Workload(
        name="batch-light",
        why="hundreds of tiny entries: import cost and per-entry overhead dominate",
        mix=(
            ("log-deriv-branch-a", 40, log_deriv_family("branch-a")),
            ("log-deriv-branch-b", 30, log_deriv_family("branch-b")),
            ("log-deriv-violated", 40, log_deriv_family("violated")),
            ("log-deriv-shared-root", 20, log_deriv_family("shared-root")),
            ("pure-log-deriv-varying", 20, pure_log_deriv_varying),
            ("exponential", 20, lambda rng, k: exponential_family(rng, k, with_nev=False)),
            ("affine-confined", 40, lambda rng, k: _classify_only(
                affine_confined(rng, k, complex_share=0.3))),
            ("constant-confined", 15, lambda rng, k: _classify_only(
                constant_confined(rng, k), keep=("verify",))),
            ("elliptic", 4, lambda rng, k: elliptic_family(rng, k, with_nev=False)),
            ("additive-term", 15, inverse_square_broken("additive")),
            ("non-affine", 15, inverse_square_broken("non-affine")),
            ("forcing-mismatch", 21, inverse_square_broken("mismatch")),
        ),
        subcommands=("classify", "verify", "limit"),
    ),
):
    WORKLOADS[_w.name] = _w


def _classify_only(pair, keep: Tuple[str, ...] = ()):
    """Drop the cascade request of a family entry; keep the listed others."""
    entry, expect = pair
    entry.pop("cascade", None)
    expect.pop("cascade", None)
    for key in ("verify", "nev"):
        if key not in keep:
            entry.pop(key, None)
            expect.pop(key, None)
    return entry, expect
