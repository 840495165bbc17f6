"""Leaf-joined trees: exact pair state, root location, transmissivity, loci.

The tree of branching factor r and height n, with all leaves identified,
satisfies the pair recursion

    A_{n+1} = [(q+w)A_n + B_n]^r
    B_{n+1} = [(q+w)A_n + (1+w)B_n]^r - [(q+w)A_n + B_n]^r,
    A_1 = 1,  B_1 = (1+w)^r - 1,

for a uniform edge weight w, with the partition function q^2 A_n + q B_n.
Exact coefficients at w = -1 come from the engine's pair route on the
realized tree, from one integer evaluation at q = 2^k
(engine.chromatic_pair); for a symbolic w, call engine.tree_ab over BiPoly
on the same tree.  One private step runs the recursion on jets of doubles
that carry each value with its q-derivative, rescaled between levels; it
is the package's only jet.  It gives P/P' to the solver's own Aberth loop,
started from a ring around q = 1 (rootfind.ring_starts), the
transmissivity t_n = B_n/(q A_n + B_n) at an array of points, and F/F' of
F = B_n - omega(q A_n + B_n) (cleared_ratio), whose zeros are the points
where t_n = omega, for the cycle counterexample
(regions.cycle_counterexample).

In the proper-coloring case the same growth is the one-dimensional map
y -> ((q-1)/(q-2+y))^r of the effective weight y = 1 + v = 1 + B/A,
started at y = inf, with t_n = (y_n - 1)/(q + y_n - 1).  Marginality
loci of that map (where a fixed point or short cycle has unit multiplier)
are sampled here as q-plane curves for comparison against computed root
sets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import chromatic_pair
from .graphs import GraphError
from .poly import BigPoly
from .rootfind import RootSet, find_roots, ring_starts, solve_complex_coeffs
from .sp import leaf_joined_tree_ast, realize

EXACT_SIZE_LIMIT = 2 ** 16      # r**n cap for the exact recursion


@dataclass
class LeafTreeState:
    """Exact pair state at depth n under w = -1; a/b are BigPoly."""
    r: int
    n: int
    a: BigPoly
    b: BigPoly

    def partition_poly(self) -> BigPoly:
        q = BigPoly.variable()
        return q * q * self.a + q * self.b


def leaf_tree_ab(r: int, n: int) -> LeafTreeState:
    """Pair state (A_n, B_n) of the depth-n tree from the engine's pair route, at w = -1."""
    if r < 2 or n < 1:
        raise GraphError("need r >= 2 and n >= 1")
    if r ** n > EXACT_SIZE_LIMIT:
        raise GraphError(f"r^n = {r ** n} exceeds exact-recursion limit {EXACT_SIZE_LIMIT}")
    _tt, tree = realize(leaf_joined_tree_ast(r, n))
    return LeafTreeState(r, n, *chromatic_pair(tree))


def chromatic_leaf_tree(r: int, n: int) -> BigPoly:
    """Exact proper-coloring polynomial of the depth-n tree."""
    return leaf_tree_ab(r, n).partition_poly()


# ---------------------------------------------------------------------------
# Effective transmissivity
# ---------------------------------------------------------------------------

def t_eff_exact(r: int, n: int) -> tuple[BigPoly, BigPoly]:
    """Transmissivity B_n / (q A_n + B_n) of the depth-n tree, in lowest terms.

    Returns the pair (B_n, q A_n + B_n) as the pair route gives it, already
    reduced, at w = -1:

    * A and B have no common root.  At q0 != 1, A_{k+1} = B_{k+1} = 0 forces
      (q0 - 1) A_k = 0, hence A_k = B_k = 0, and so on down to A_1 = 1.  At
      q = 1, |A_k| = |B_k| = 1.
    * B(0) = P'(0) != 0, because the graph is connected.

    So gcd(B, qA + B) = 1.  Also qA + B = P/q is monic, so the denominator's
    leading coefficient is already positive.
    """
    state = leaf_tree_ab(r, n)
    return state.b, BigPoly.variable() * state.a + state.b


# ---------------------------------------------------------------------------
# Root location and transmissivity via the recursion
# ---------------------------------------------------------------------------
#
# Expanded in the monomial basis these polynomials suffer cancellation
# exponential in the degree, but the defining recursion evaluates them with
# small relative error away from the roots.  Running the pair step on
# jets (value and q-derivative) yields P/P' in plain doubles, good enough to
# steer an Aberth iteration, and the transmissivity B/(qA + B); the pair is
# rescaled between levels (the step is homogeneous of degree r in (A, B),
# so neither ratio changes) to stay in range.  Exact coefficients are used
# only for the final Newton verification.

class _Jet:
    """Values and q-derivatives at many points, under + - * and integer **."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v + other.v, self.d + other.d)
        return _Jet(self.v + other, self.d)

    def __sub__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v - other.v, self.d - other.d)
        return _Jet(self.v - other, self.d)

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v * other.v, self.d * other.v + self.v * other.d)
        return _Jet(self.v * other, self.d * other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _Jet(self.v ** k, k * self.v ** (k - 1) * self.d)


def _pair_step(a, b, qw, one_w, r: int):
    """(A_k, B_k) -> (A_{k+1}, B_{k+1}) over any ring holding qw = q+w, one_w = 1+w.

    A zero one_w (w = -1, proper colorings) drops the term one_w * b.
    """
    y = qw * a
    a_next = (y + b) ** r
    return a_next, (y + one_w * b if one_w else y) ** r - a_next


def _scaled_pair(q, r: int, n: int):
    """q and the depth-n pair (A_n, B_n), as jets at the points q, up to one scale per point."""
    q = np.asarray(q, dtype=np.complex128)
    one = _Jet(np.ones_like(q), np.zeros_like(q))
    qj = _Jet(q, np.ones_like(q))
    a, b = one, -1 * one
    q1 = qj - 1
    for _ in range(n - 1):
        a, b = _pair_step(a, b, q1, 0, r)
        scale = np.maximum(np.abs(a.v), np.abs(b.v))
        scale = 1.0 / np.where(scale == 0, 1.0, scale)
        a, b = a * scale, b * scale
    return qj, a, b


def _newton_ratio(q, r: int, n: int):
    """P/P' of the depth-n proper-coloring polynomial at the points q (ndarray)."""
    qj, a, b = _scaled_pair(q, r, n)
    p = qj * (qj * a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return p.v / p.d


def cleared_ratio(q, r: int, n: int, omega: complex):
    """F/F' of F = B_n - omega (q A_n + B_n) at the points q (ndarray), in doubles.

    F vanishes where the transmissivity t_n equals omega (away from the
    poles of t_n), so this is the Newton step toward t_n(q) = omega.
    """
    qj, a, b = _scaled_pair(q, r, n)
    f = b - omega * (qj * a + b)
    return f.v / f.d


def t_eff_at(q, r: int, n: int):
    """Transmissivity B_n / (q A_n + B_n) of the depth-n tree at q, in doubles.

    q is a number or an array, and the result has its shape; a pole gives
    a non-finite value.  q in {0, 1} is rejected, and so is a q whose step
    overflows doubles: the scale is taken after each step, so that is any
    |q - 1| beyond about 1e308^(1/r).
    """
    if r < 2 or n < 1:
        raise GraphError("need r >= 2 and n >= 1")
    q = np.asarray(q, dtype=np.complex128)
    if np.any((q == 0) | (q == 1)):
        raise GraphError("transmissivity needs q outside {0, 1}")
    with np.errstate(over="ignore", invalid="ignore"):
        qj, a, b = _scaled_pair(q.ravel(), r, n)    # one path, so a number gets its array bits
    if not (np.all(np.isfinite(a.v)) and np.all(np.isfinite(b.v))):
        raise GraphError("|q| too large: the pair recursion overflows doubles")
    with np.errstate(divide="ignore", invalid="ignore"):
        t = b.v / (qj.v * a.v + b.v)
    return t.reshape(q.shape)[()]               # a number for a number


def tree_chromatic_roots(r: int, n: int, tol: float = 1e-8) -> RootSet:
    """All proper-coloring roots of the depth-n tree.

    The solver's Aberth loop, driven by the pair step on jets, locates the
    roots in double precision; the exact coefficients then confirm them
    through the polynomial solver (Newton residuals on exact values).
    """
    poly = chromatic_leaf_tree(r, n)

    def deflated_ratio(z):
        # The roots at 0 and 1 are divided out of P; a non-finite ratio
        # leaves its point where it is for this sweep.
        w = 1.0 / (1.0 / _newton_ratio(z, r, n) - 1.0 / z - 1.0 / (z - 1.0))
        return np.where(np.isfinite(w), w, 0.0)

    # The roots gather near the ring |q - 1| = r.
    starts = ring_starts(deflated_ratio, poly.degree - 2, r, 1e-13)
    return find_roots(poly, tol=tol, starts=starts)


FIXED_POINT_CIRCLE = "fixed-point-circle"
CARDIOID = "cardioid"
PERIOD2_EGG = "period2-egg"

LOCUS_KINDS = (FIXED_POINT_CIRCLE, CARDIOID, PERIOD2_EGG)


@dataclass
class LocusCurve:
    kind: str
    r: int
    points: list[tuple[float, complex]] = field(default_factory=list)
    # (phi, q) samples; multi-valued loci repeat phi once per branch.


def multiplier_loci(r: int, kind: str, samples: int = 720) -> LocusCurve:
    """Sample a marginality locus of the effective-weight map over |mult| = 1.

    fixed-point-circle: the circle |q-1| = r (any r).  cardioid and
    period2-egg: the extra fixed-point locus and the period-2 locus for
    r = 2, via the conjugate one-parameter family z -> 1 + w/z^r with
    w = (q-1)^r / (q-2)^(r+1).
    """
    if kind not in LOCUS_KINDS:
        raise GraphError(f"unknown locus kind {kind!r}")
    if samples < 1:
        raise GraphError("samples must be >= 1")
    curve = LocusCurve(kind, r)
    if kind == FIXED_POINT_CIRCLE:
        for k in range(samples):
            phi = 2 * math.pi * k / samples
            curve.points.append((phi, 1 + r * cmath.exp(1j * phi)))
        return curve
    if r != 2:
        raise GraphError(f"{kind} locus is implemented for r = 2 only")
    if kind == CARDIOID:
        for k in range(samples):
            phi = 2 * math.pi * k / samples
            lam = cmath.exp(1j * phi)
            root = cmath.sqrt(lam * (8 + lam))
            for sign in (+1, -1):
                qv = (8 - 6 * lam - lam * lam + sign * (2 + lam) * root) / 8
                curve.points.append((phi, qv))
        return curve
    # Period-2 locus: w(q) = 4/lam with w = (q-1)^2/(q-2)^3, a cubic in q
    # per lam; every branch is kept.
    for k in range(samples):
        phi = 2 * math.pi * k / samples
        lam = cmath.exp(1j * phi)
        c = 4.0 / lam
        # (q-1)^2 = c (q-2)^3  ->  c q^3 + (-6c-1) q^2 + (12c+2) q + (-8c-1) = 0
        coeffs = [-8 * c - 1, 12 * c + 2, -6 * c - 1, c]
        rs = solve_complex_coeffs(coeffs, tol=1e-10)
        for qv in rs.roots:
            curve.points.append((phi, qv))
    return curve


def cardioid_cusp() -> complex:
    """The cusp of the r = 2 extra-fixed-point locus (multiplier 1, + branch)."""
    return (8 - 6 - 1 + (2 + 1) * 3) / 8 + 0j


# ---------------------------------------------------------------------------
# Root-location scan
# ---------------------------------------------------------------------------

@dataclass
class ScanRow:
    n: int
    degree: int
    max_offset: float          # max |root - 1|
    violations: int            # roots with |root - 1| >= r
    max_residual: float


@dataclass
class ScanReport:
    r: int
    rows: list[ScanRow]
    offsets_nondecreasing: bool    # informational, not a guarantee
    total_violations: int
    converged: bool                # every depth's roots converged


def conjecture_scan(r: int, n_max: int, tol: float = 1e-8) -> ScanReport:
    """Locate all proper-coloring roots of the trees up to depth n_max.

    Reports, per depth, the largest |root - 1| and any root on or outside
    the circle of radius r around 1.  Restricted to r = 2 at desk scale.
    """
    if r != 2:
        raise GraphError("scan supports r = 2")
    if not (1 <= n_max <= 8):
        raise GraphError("scan supports 1 <= n_max <= 8")
    rows: list[ScanRow] = []
    converged = True
    for n in range(1, n_max + 1):
        rs = tree_chromatic_roots(r, n, tol=tol)
        converged = converged and rs.converged
        poly_degree = rs.degree
        offsets = [abs(z - 1) for z in rs.roots]
        rows.append(ScanRow(
            n=n,
            degree=poly_degree,
            max_offset=max(offsets),
            violations=sum(1 for d in offsets if d >= r),
            max_residual=max(rs.residuals),
        ))
    nondec = all(rows[i].max_offset <= rows[i + 1].max_offset + 1e-12
                 for i in range(len(rows) - 1))
    return ScanReport(r, rows, nondec, sum(row.violations for row in rows), converged)
