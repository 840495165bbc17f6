"""Zero-free-disc certification and its sharpness instrumentation.

For a point q outside the disc |q-1| < 1/rho#(L), where rho#(L) is the
unique (0,1) solution of (1+rho)^L = 2(1+rho^2)^(L-1), a nested family of
transmissivity regions S_1 <= ... <= S_(L-1) built from a point (or an
antiferromagnetic arc) plus origin-centered discs certifies that no
series-parallel graph of maxmaxflow <= L can vanish there.  The disc radii
satisfy the closed form r_k = rho (X^k - 1)/(1 - rho X^k), with the minimal
choice X = (1+rho)/(1+rho^2) pinning r_1 = rho^2 and the maximal choice
X = (2/(1+rho))^(1/(L-1)) pinning r_(L-1) = rho.  A Wheatstone variant adds
the requirement |q-2| >= 2(1 - rho X^2)/(X^2 - 1).

Alongside the certified families, this module carries the exploration
tools: the exact parallel maximum on disc boundaries (for fixed t the
map t' -> t || t' is Moebius, so the maximum over t' is in closed form and
one circle scan of t suffices), the bisection for the best
point+disc radius along each angle, with every angle bisected in lockstep
on whole-array scans and one array golden search, a raster closure
approximating the minimal regions (one rule table over flat per-level
rasters, every pair combined by the same parallel map the audits use), and
the 94-vertex cycle counterexample.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache

import mpmath as mp
import numpy as np

from .engine import chromatic_poly
from .graphs import GraphError
from .leaftree import cleared_ratio, t_eff_at, t_eff_exact
from .poly import BigPoly
from .rootfind import residual_at, ring_starts, solve_complex_coeffs
from .sp import gen_gadget_cycle, leaf_joined_tree_ast

LOG2 = math.log(2.0)


class RadiiBlowup(GraphError):
    """The radius recursion left the admissible range before level L-1."""


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

def _bisect(inside, lo, hi, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Halve every bracket [lo, hi] in lockstep until it is no wider than tol.

    lo and hi are equal-length arrays.  Each step asks inside(mid, idx)
    about the midpoints of the brackets still open, idx being their
    positions, and moves lo to a midpoint where it holds, else hi.  A
    bracket whose midpoint rounds to one of its ends cannot shrink, so it
    closes too.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        idx = np.flatnonzero((hi - lo > tol) & (lo < mid) & (mid < hi))
        if not len(idx):
            return lo, hi
        ok = np.asarray(inside(mid[idx], idx), dtype=bool)
        lo[idx[ok]] = mid[idx[ok]]
        hi[idx[~ok]] = mid[idx[~ok]]


def _bisect_unit(lam, f) -> float:
    """The sign change of f on (0, 1), f < 0 left of it; 1 at L = 2 by convention."""
    if not isinstance(lam, int) or lam < 2:
        raise GraphError("need integer lam >= 2")
    if lam == 2:
        return 1.0
    lo, hi = 1e-15, 1.0 - 1e-15
    if f(lo) > 0 or f(hi) < 0:
        raise GraphError("no bracketed threshold in (0,1)")
    lo, hi = _bisect(lambda mid, _: [not f(float(rho)) > 0 for rho in mid], [lo], [hi], 1e-13)
    return float(0.5 * (lo[0] + hi[0]))


@cache
def sp_rho_threshold(lam: int) -> float:
    """The unique rho in (0,1) with (1+rho)^L = 2(1+rho^2)^(L-1); 1 for L=2.

    Largest contraction rate 1/|q-1| at which the nested-disc radii exist,
    hence the series-parallel certification threshold.  Cached per lam:
    certify asks for it on every call.
    """
    def gap(rho: float) -> float:
        return lam * math.log1p(rho) - (lam - 1) * math.log1p(rho * rho) - LOG2
    rho = _bisect_unit(lam, gap)
    assert rho > LOG2 / (lam - 1.5 * LOG2)
    return rho


def wheatstone_rho_threshold(lam: int) -> float:
    """The unique rho in (0,1) with (1+rho)^(L+1) = 4(1-rho+2rho^2)^(L-1).

    Certification threshold when Wheatstone bridges join the plain edge as
    building blocks; 1 at L=2 by the same boundary convention as above.
    """
    def gap(rho: float) -> float:
        return ((lam + 1) * math.log1p(rho)
                - (lam - 1) * math.log(1.0 - rho + 2.0 * rho * rho)
                - 2.0 * LOG2)
    rho = _bisect_unit(lam, gap)
    assert rho > LOG2 / (lam - LOG2)
    return rho


def log2_disc_radius(lam: int) -> float:
    """The simple uniform bound (L-1)/log 2 on |q-1|."""
    return (lam - 1) / LOG2


def sp_bound_margin(rho: float) -> float:
    """Positive on (0,1) iff the threshold beats log2/(L - 1.5 log2).

    rho parametrizes L = log2/rho + 1.5 log2; the margin vanishes at both
    endpoints.
    """
    t = math.log((1.0 + rho) / (1.0 + rho * rho))
    return (rho * math.log(2.0 / (1.0 + rho)) - LOG2 * t
            - (1.5 * LOG2 - 1.0) * rho * t)


def wheatstone_bound_margin(rho: float) -> float:
    """Positive on (0,1) iff the Wheatstone threshold beats log2/(L - log2)."""
    t = math.log((1.0 + rho) / (1.0 - rho + 2.0 * rho * rho))
    return (2.0 * rho * math.log(2.0 / (1.0 + rho)) - LOG2 * t
            - (LOG2 - 1.0) * rho * t)


# ---------------------------------------------------------------------------
# Radii
# ---------------------------------------------------------------------------

def parallel_bound(x: float, y: float, rho: float) -> float:
    """Upper bound for the parallel combination of two disc radii.

    (x + y + (1/rho + 1) xy) / (1 - xy/rho); requires 0 <= x, y < rho < 1
    so the denominator stays positive.  Associative, which is what makes
    the radius recursion collapse to a closed form.
    """
    if not (0.0 < rho < 1.0):
        raise GraphError("rho must lie in (0,1)")
    if not (0.0 <= x < rho and 0.0 <= y < rho):
        raise GraphError("disc radii must lie in [0, rho)")
    return (x + y + (1.0 / rho + 1.0) * x * y) / (1.0 - x * y / rho)


MINIMAL, MAXIMAL = "minimal", "maximal"


def growth_factor(rho: float, choice: str, lam: int) -> float:
    if choice == MINIMAL:
        return (1.0 + rho) / (1.0 + rho * rho)
    if choice == MAXIMAL:
        return (2.0 / (1.0 + rho)) ** (1.0 / (lam - 1))
    raise GraphError(f"unknown radii choice {choice!r}")


def disc_radii(rho: float, lam: int, choice: str = MAXIMAL) -> list[float]:
    """Radii r_1..r_(L-1) from the closed form rho (X^k - 1)/(1 - rho X^k).

    The minimal choice starts at r_1 = rho^2, the maximal choice ends at
    r_(L-1) = rho.  Raises RadiiBlowup when some denominator 1 - rho X^k
    is nonpositive before level L-1, which is how infeasibility shows up.
    """
    if not (0.0 < rho < 1.0):
        raise GraphError("rho must lie in (0,1)")
    if lam < 2:
        raise GraphError("need lam >= 2")
    x = growth_factor(rho, choice, lam)
    out = []
    for k in range(1, lam):
        den = 1.0 - rho * x ** k
        if den <= 0.0:
            raise RadiiBlowup(f"radius {k} blows up (rho={rho}, choice={choice})")
        out.append(rho * (x ** k - 1.0) / den)
    return out


def radii_by_iteration(rho: float, r1: float, lam: int) -> list[float]:
    """The same radii by iterating r_(s+1) = bound(r_1, r_s); audit path."""
    out = [r1]
    for _ in range(lam - 2):
        prev = out[-1]
        if prev >= rho:
            raise RadiiBlowup("iterated radius left [0, rho)")
        out.append(parallel_bound(r1, prev, rho))
    return out


def radii_feasible(rho: float, lam: int, choice: str) -> bool:
    """True iff the chosen radii exist and satisfy rho^2 <= r_k <= rho."""
    try:
        rs = disc_radii(rho, lam, choice)
    except RadiiBlowup:
        return False
    slack = 1e-12
    return all(rho * rho - slack <= r <= rho + slack for r in rs)


# ---------------------------------------------------------------------------
# Region families and certification
# ---------------------------------------------------------------------------

CHROMATIC, ANTIFERRO, WHEATSTONE = "chromatic", "antiferro", "wheatstone"


@dataclass(frozen=True)
class PointDiscFamily:
    """S_k = {1/(1-q)} union D(r_k)."""
    lam: int
    q: complex
    radii: tuple[float, ...]

    @property
    def t0(self) -> complex:
        return 1.0 / (1.0 - self.q)


@dataclass(frozen=True)
class StalkDiscFamily:
    """S_k = (arc || D(r_(k-1))) union D(r_k); the arc is {v/(q+v), v in [-1,0]}."""
    lam: int
    q: complex
    radii: tuple[float, ...]


@lru_cache(maxsize=4)
def _cell_centres(resolution: int) -> np.ndarray:
    """Centre -1 + (i + 1/2) h of raster column (and row) i, h = 2/resolution."""
    out = -1.0 + (np.arange(resolution) + 0.5) * (2.0 / resolution)
    out.flags.writeable = False         # every caller shares the cached array
    return out


@lru_cache(maxsize=4)
def _cell_distances(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Distance from 0 to each closed cell square, flat, and the cells sorted by it."""
    h = 2.0 / resolution
    edge = -1.0 + np.arange(resolution) * h     # grid lines are exact dyadics
    near = np.maximum(np.maximum(edge, -(edge + h)), 0.0)
    dist = np.hypot(near[None, :], near[:, None]).ravel()
    out = dist, np.argsort(dist)
    for arr in out:
        arr.flags.writeable = False     # every caller shares the cached arrays
    return out


@dataclass(frozen=True)
class GridFamily:
    lam: int
    q: complex
    resolution: int
    levels: tuple[np.ndarray, ...]       # boolean rasters, level k at index k-1
    escaped: bool
    converged: bool
    sweeps: int
    reason: str = ""

    def cells(self, k: int) -> list[tuple[int, int]]:
        ys, xs = np.nonzero(self.levels[k - 1])
        return list(zip(xs.tolist(), ys.tolist()))

    def cell_centres(self) -> np.ndarray:
        """The centre coordinate of each column, which is also each row's."""
        return _cell_centres(self.resolution)

    def center(self, ix: int, iy: int) -> complex:
        c = self.cell_centres()
        return complex(c[ix], c[iy])


@dataclass(frozen=True)
class CertifyResult:
    certified: bool
    mode: str
    lam: int
    q: complex
    reason: str
    threshold: float                     # required |q-1|
    s1_radius: float | None = None       # admissible transmissivity bound
    wheatstone_cut: float | None = None  # required |q-2| (wheatstone mode)
    family: object | None = None


def certify(q: complex, lam: int, mode: str = CHROMATIC) -> CertifyResult:
    """Decide |q-1| >= 1/rho#(L) (plus the |q-2| cut in wheatstone mode).

    On success the returned family of maximal point+disc (or stalk+disc)
    regions witnesses that no admissible graph of maxmaxflow <= L has a
    vanishing partition function at q; s1_radius is the largest allowed
    |v/(q+v)| for non-special edge weights.
    """
    q = complex(q)
    if q == 0 or q == 1:
        raise GraphError("certification needs q outside {0, 1}")
    if mode not in (CHROMATIC, ANTIFERRO, WHEATSTONE):
        raise GraphError(f"unknown mode {mode!r}")
    rho_star = sp_rho_threshold(lam)
    threshold = 1.0 / rho_star
    offset = abs(q - 1.0)
    strict = lam == 2
    ok1 = offset > threshold if strict else offset >= threshold
    if mode == WHEATSTONE and lam < 3:
        return CertifyResult(False, mode, lam, q,
                             "wheatstone mode needs lam >= 3", threshold)
    if not ok1:
        op = ">" if strict else ">="
        return CertifyResult(False, mode, lam, q,
                             f"|q-1| = {offset:.6g} fails {op} {threshold:.6g}",
                             threshold)
    rho = 1.0 / offset
    radii = tuple(disc_radii(rho, lam, MAXIMAL))
    if mode == WHEATSTONE:
        x = growth_factor(rho, MAXIMAL, lam)
        cut = 2.0 * (1.0 - rho * x * x) / (x * x - 1.0)
        if abs(q - 2.0) < cut:
            return CertifyResult(False, mode, lam, q,
                                 f"|q-2| = {abs(q - 2):.6g} fails >= {cut:.6g}",
                                 threshold, wheatstone_cut=cut)
        fam: object = PointDiscFamily(lam, q, radii)
        return CertifyResult(True, mode, lam, q, "certified", threshold,
                             s1_radius=radii[0], wheatstone_cut=cut, family=fam)
    fam = StalkDiscFamily(lam, q, radii) if mode == ANTIFERRO else PointDiscFamily(lam, q, radii)
    return CertifyResult(True, mode, lam, q, "certified", threshold,
                         s1_radius=radii[0], family=fam)


# ---------------------------------------------------------------------------
# Family audit
# ---------------------------------------------------------------------------

def _t_parallel(a, b, q):
    return (a + b + (q - 2.0) * a * b) / (1.0 + (q - 1.0) * a * b)


def _y_of_t(t, q):
    return ((q - 1.0) * t + 1.0) / (1.0 - t)


def _y_disc(q: complex, r: float) -> tuple[complex, float]:
    """Image of |t| <= r under t -> y; a disc for r < 1."""
    den = 1.0 - r * r
    center = (1.0 + (q - 1.0) * r * r) / den
    return center, abs(q) * r / den


class _FamilySets:
    """Sampling and membership for a point/stalk + disc family."""

    def __init__(self, family, rng: np.random.Generator):
        self.family = family
        self.q = family.q
        self.radii = family.radii
        self.rng = rng
        self.stalk = isinstance(family, StalkDiscFamily)

    def samples(self, k: int, count: int) -> np.ndarray:
        r = self.radii[k - 1]
        angles = 2 * np.pi * self.rng.random(count)
        moduli = r * np.sqrt(self.rng.random(count))
        pts = [moduli * np.exp(1j * angles),
               r * np.exp(2j * np.pi * np.arange(count) / count)]
        if self.stalk:
            v = -self.rng.random(count)                  # arc parameters in [-1,0]
            arc = v / (self.q + v)
            if k == 1:
                pts.append(arc)
            else:
                inner = self.radii[k - 2] * np.exp(2j * np.pi * self.rng.random(count))
                pts.append(_t_parallel(arc, inner, self.q))
        else:
            pts.append(np.full(count // 4 + 1, self.family.t0))
        return np.concatenate(pts)

    def contains(self, t: np.ndarray, k: int, tol: float = 1e-9) -> np.ndarray:
        r = self.radii[k - 1]
        ok = np.abs(t) <= r * (1.0 + tol) + tol
        if self.stalk:
            y = _y_of_t(t, self.q)
            if k == 1:
                # Arc alone: y in [0,1].
                ok |= (np.abs(y.imag) <= 1e-7) & (y.real >= -1e-7) & (y.real <= 1 + 1e-7)
            else:
                center, radius = _y_disc(self.q, self.radii[k - 2])
                hit = np.zeros(t.shape, dtype=bool)
                for s in np.linspace(1e-9, 1.0, 160):
                    hit |= np.abs(y - s * center) <= s * radius * (1 + tol) + tol
                ok |= hit
        else:
            ok |= np.abs(t - self.family.t0) <= tol
        return ok


def verify_family(family, samples: int = 10_000) -> bool:
    """Sampled audit of the four nesting/closure conditions.

    Exact checks where the disc structure allows (rho^2 <= r_1,
    r_(L-1) <= rho for the multiplicative nesting; r_(L-1) < 1 for
    excluding t = 1; |t t'| <= rho^2 < rho for well-definedness at level L),
    Monte-Carlo plus boundary sampling for the parallel condition.
    """
    if isinstance(family, GridFamily):
        return _verify_grid(family, samples)
    q, lam = family.q, family.lam
    radii = family.radii
    if len(radii) != lam - 1 or any(radii[i] > radii[i + 1] + 1e-15 for i in range(len(radii) - 1)):
        return False
    rho = 1.0 / abs(q - 1.0)
    slack = 1e-12
    if radii[0] < rho * rho - slack or radii[-1] > rho + slack:
        return False
    if radii[-1] >= 1.0 - 1e-12 or rho >= 1.0:
        return False                      # t = 1 must stay outside
    sets = _FamilySets(family, np.random.default_rng(7))
    per_pair = max(64, samples // max(1, (lam - 1) ** 2))
    for k in range(1, lam):
        for ell in range(k, lam):
            if k + ell > lam - 1:
                continue
            a = sets.samples(k, per_pair)
            b = sets.samples(ell, per_pair)
            n = min(len(a), len(b))
            combo = _t_parallel(a[:n], b[:n], q)
            if not np.all(sets.contains(combo, k + ell, tol=1e-7)):
                return False
    # Level-L pairs must stay well-defined: denominator bounded away from 0.
    for k in range(1, lam):
        ell = lam - k
        if not (1 <= ell <= lam - 1):
            continue
        a = sets.samples(k, per_pair)
        b = sets.samples(ell, per_pair)
        n = min(len(a), len(b))
        den = np.abs(1.0 + (q - 1.0) * a[:n] * b[:n])
        if np.any(den < 1e-9):
            return False
    # Stalk membership must stay inside D(rho) as well.
    if isinstance(family, StalkDiscFamily):
        for k in range(1, lam):
            pts = sets.samples(k, per_pair)
            if np.any(np.abs(pts) > rho * (1 + 1e-9) + 1e-12):
                return False
    return True


def _verify_grid(family: GridFamily, samples: int) -> bool:
    if family.escaped or not family.converged:
        return False
    res = family.resolution
    h = 2.0 / res
    c = family.cell_centres()
    rng = np.random.default_rng(7)
    lam = family.lam
    pts = []
    for k in range(1, lam):
        iy, ix = np.nonzero(family.levels[k - 1])
        if not len(ix):
            return False
        arr = c[ix] + 1j * c[iy]
        if np.any(np.abs(arr) >= 1.0):
            return False
        pts.append(arr)
    # Sampled closure: combining marked cells stays within one cell of a mark.
    for k in range(1, lam):
        for ell in range(k, lam):
            a = pts[k - 1][rng.integers(0, len(pts[k - 1]), samples // 4)]
            b = pts[ell - 1][rng.integers(0, len(pts[ell - 1]), samples // 4)]
            if k + ell <= lam - 1:
                combo = _t_parallel(a, b, family.q)
                target = family.levels[k + ell - 1]
            else:
                combo = a * b
                target = family.levels[k - 1]
            ix = np.floor((combo.real + 1.0) / h).astype(int)
            iy = np.floor((combo.imag + 1.0) / h).astype(int)
            inside = (ix >= 0) & (ix < res) & (iy >= 0) & (iy < res)
            if not np.all(inside):
                return False
            # Allow one cell of rounding slop in each direction.
            okay = np.zeros(len(combo), dtype=bool)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    jx = np.clip(ix + dx, 0, res - 1)
                    jy = np.clip(iy + dy, 0, res - 1)
                    okay |= target[jy, jx]
            if not np.all(okay):
                return False
    return True


# ---------------------------------------------------------------------------
# Exact parallel maxima and the boundary angles
# ---------------------------------------------------------------------------

# Elements per block of a lockstep scan, which keeps a block's few float
# arrays near 512 kB each; each row's argmax is the same in any block.
_SCAN_CHUNK = 1 << 16


@lru_cache(maxsize=4)
def _unit_circle(resolution: int) -> tuple[np.ndarray, ...]:
    """Scan angles phi with the real and imaginary parts of w = e^(i phi) and w^2."""
    phi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    out = phi, np.cos(phi), np.sin(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)
    for arr in out:
        arr.flags.writeable = False     # every caller shares the cached arrays
    return out


def _circle_maxima(scan, value, count: int, resolution: int):
    """Each pair's angle and maximum: a scan of the cached circle, then golden refinement.

    scan(s) gives the (pairs x resolution) block of the pairs in slice s,
    with row maxima where value's are; value maps one angle per pair to its
    objective.  Blocks hold at most _SCAN_CHUNK elements.
    """
    phi = _unit_circle(resolution)[0]
    k = np.empty(count, dtype=np.int64)
    step = max(1, _SCAN_CHUNK // resolution)
    for i in range(0, count, step):
        k[i:i + step] = np.argmax(scan(slice(i, i + step)), axis=1)
    w = 2.0 * np.pi / resolution
    return _golden_argmax(value, phi[k] - w, phi[k] + w, iters=60)


def _diagonal_maxima(x: np.ndarray, q: np.ndarray, resolution: int):
    """Max of |t || t| over |t| = x, by _circle_maxima.

    This is the maximum over the whole bidisc |t|, |t'| <= x: the equation
    t || t' = w is multiaffine and symmetric in (t, t'), so by the
    Grace-Walsh-Szego coincidence theorem (Walsh, Trans. AMS 24, 1922) any
    w the bidisc attains is attained on its diagonal t = t'.

    With t = x w the squared ratio is x^2 |2 + a w|^2 / |1 + b w^2|^2,
    a = (q-2)x and b = (q-1)x^2, so a scan row is real arithmetic:
    |2 + a w|^2 = 4 + |a|^2 + 4 Re(a w) and |1 + b w^2|^2 likewise.
    """
    _, wr, wi, w2r, w2i = _unit_circle(resolution)
    a, b = (q - 2.0) * x, (q - 1.0) * (x * x)

    def scan(s):
        ar, ai, br, bi = a.real[s, None], a.imag[s, None], b.real[s, None], b.imag[s, None]
        num = 4.0 * ar * wr
        num -= 4.0 * ai * wi
        num += 4.0 + (ar * ar + ai * ai)
        den = 2.0 * br * w2r
        den -= 2.0 * bi * w2i
        den += 1.0 + (br * br + bi * bi)
        num /= den
        return num

    def value(th):
        t = x * np.exp(1j * th)
        return np.abs(_t_parallel(t, t, q))

    return _circle_maxima(scan, value, len(x), resolution)


def _offdiagonal_maxima(x: np.ndarray, y: np.ndarray, q: np.ndarray, resolution: int):
    """Max of |t || t'| over |t| = x, |t'| = y, by _circle_maxima over the angle of t.

    For fixed t, t' -> t || t' is Moebius, so it maps |t'| = y onto a circle
    (as in Gargantini & Henrici's disc arithmetic) of centre C/D and radius
    y|R|/|D|: C = t - g (conj(t) + (q-2)x^2), g = y^2 conj(q-1),
    R = 1 + (q-2)t - (q-1)t^2, D = 1 - |q-1|^2 x^2 y^2, whether or not the
    pole lies inside the disc.  So the inner maximum is (|C| + y|R|)/|D|,
    inf at D = 0 (a pole on the torus), and a scan row is |C| + y|R|.
    """
    _, wr, wi, w2r, w2i = _unit_circle(resolution)
    g = (y * y) * np.conj(q - 1.0)
    a, b, u, v = (q - 2.0) * x, (q - 1.0) * (x * x), g * x, g * (q - 2.0) * (x * x)
    cols = np.array([x, y, u.real, u.imag, v.real, v.imag, a.real, a.imag, b.real, b.imag])
    den = np.abs(1.0 - np.square(np.abs(q - 1.0) * x * y))

    def scan(s):
        xs, ys, ur, ui, vr, vi, ar, ai, br, bi = cols[:, s, None]
        re, im = (xs - ur) * wr - ui * wi - vr, (xs + ur) * wi - ui * wr - vi
        out = np.sqrt(re * re + im * im)                # |C|, C = x w - u conj(w) - v
        re = 1.0 + ar * wr - ai * wi - br * w2r + bi * w2i
        im = ar * wi + ai * wr - br * w2i - bi * w2r
        return out + ys * np.sqrt(re * re + im * im)    # + y|R|, R = 1 + a w - b w^2

    def value(th):
        w = np.exp(1j * th)
        return (np.abs(x * w - u * np.conj(w) - v) + y * np.abs(1.0 + a * w - b * w * w)) / den

    return _circle_maxima(scan, value, len(x), resolution)


def _parallel_maxima(x: np.ndarray, y: np.ndarray, q: np.ndarray, resolution: int) -> np.ndarray:
    """exact_parallel_max elementwise over arrays of pairs, all in lockstep."""
    out = np.empty(len(x))
    diag = x == y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if diag.any():
            out[diag] = _diagonal_maxima(x[diag], q[diag], resolution)[1]
        if not diag.all():
            out[~diag] = _offdiagonal_maxima(x[~diag], y[~diag], q[~diag], resolution)[1]
    return out


def exact_parallel_max(x: float, y: float, q: complex,
                       resolution: int = 4096) -> float:
    """True maximum of |t || t'| over |t| = x, |t'| = y.

    For fixed t the inner maximum over t' has a closed form (t' -> t || t'
    is Moebius), so one circle scan of t plus golden-section refinement
    suffices; equal radii scan the cheaper diagonal, where the polydisc
    maximum of the symmetric multiaffine form lies by Grace-Walsh-Szego
    (see _diagonal_maxima).  One pair of the
    lockstep kernel that boundary_rho runs on every angle at once.
    """
    if not (0 <= x < math.inf and 0 <= y < math.inf):     # NaN fails both
        raise GraphError("radii must be nonnegative and finite")
    if resolution < 1:
        raise GraphError("resolution must be >= 1")
    return float(_parallel_maxima(np.array([x], dtype=float), np.array([y], dtype=float),
                                  np.array([q], dtype=complex), resolution)[0])


def _golden_argmax(f, lo, hi, iters: int = 48):
    """Golden-section search for a maximum of f on [lo, hi], elementwise.

    lo and hi are floats or equal-shape arrays, and f maps abscissae of
    that shape to values of that shape; each element follows the search
    it would follow alone.  Returns the midpoint of each final bracket and
    the larger of its two interior values.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc > fd                  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = phi * (b - a)
        new = np.where(left, b - step, a + step)
        fnew = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    return 0.5 * (a + b), np.maximum(fc, fd)


def boundary_rho(lam: int, theta, tol: float = 1e-6, resolution: int = 4096):
    """Largest rho with feasible exact-maximum radii along each direction theta.

    The point 1/(1-q) is placed at rho e^(i theta); radii start at rho^2
    and grow by the exact pairwise maxima instead of the naive bound, so
    the result is at least the uniform threshold.  Bisection on rho, every
    angle in lockstep: each step tests all angles still open at once.
    theta is an angle, giving a float, or a sequence of them, giving an
    array.
    """
    if lam < 3:
        raise GraphError("boundary scan needs lam >= 3")
    if resolution < 1:
        raise GraphError("resolution must be >= 1")
    if not 0.0 < tol < math.inf:
        raise GraphError("tol must be > 0 and finite")
    thetas = np.array(theta, dtype=float).ravel()
    if not len(thetas):
        raise GraphError("theta must hold at least one angle")
    if not np.all(np.isfinite(thetas)):
        raise GraphError("theta must be finite")
    turn = np.exp(-1j * thetas)

    def feasible(rho: np.ndarray, idx: np.ndarray, slack: float = 0.0) -> np.ndarray:
        q = (1.0 - turn.real[idx] / rho) - 1j * (turn.imag[idx] / rho)
        radii = [rho * rho]
        ok = np.ones(len(rho), dtype=bool)
        for s in range(2, lam):
            best = np.zeros(len(rho))
            for k in range(1, s // 2 + 1):
                rk, rl = radii[k - 1], radii[s - k - 1]
                ok &= ~((rk >= rho) | (rl >= rho))
                best = np.maximum(best, _parallel_maxima(rk, rl, q, resolution))
            radii.append(best)
        return ok & (radii[-1] <= rho + slack)

    every = np.arange(len(thetas))
    lo = np.full(len(thetas), sp_rho_threshold(lam))
    out = np.full(len(thetas), 0.999999)
    # The threshold is itself a bisection midpoint, and for real q the exact
    # maxima attain the naive bound, so its top radius may pass rho by
    # rounding (3.9e-14 at lam = 5, theta = 0): this check allows
    # radii_feasible's slack.  The bisection itself tests without slack.
    if not feasible(lo, every, 1e-12).all():
        raise GraphError("uniform threshold unexpectedly infeasible")
    rest = np.flatnonzero(~feasible(out, every))
    out[rest] = _bisect(lambda mid, idx: feasible(mid, rest[idx]), lo[rest], out[rest], tol)[0]
    return float(out[0]) if np.ndim(theta) == 0 else out


# ---------------------------------------------------------------------------
# Raster closure
# ---------------------------------------------------------------------------

_PAIR_CHUNK = 1 << 21
_BLOCK = 1 << 17             # pairs evaluated and scanned at once within a chunk
_TRIANGLE_ROWS = 64          # rows per broadcast band of a symmetric rule's triangle
_MAX_SWEEPS = 10_000


def _sorted_unique(cells: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as np.unique gives
    them; np.unique imports numpy.ma on its first call in a process (numpy
    >= 2.3), which costs a one-shot closure more than the closure itself."""
    cells = np.sort(cells)
    keep = np.ones(len(cells), dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=keep[1:])
    return cells[keep]


def grid_closure(q: complex, lam: int, resolution: int = 256) -> GridFamily:
    """Iterate the region-closure rules on a raster until fixed point.

    Starts from 1/(1-q) marked at level 1 and repeatedly applies one rule
    table (k, ell, op, target): parallel combinations (k, ell) -> k+ell
    while k+ell <= L-1, and products with the top level (k, L-1) -> k,
    which dominate every other product.  Every result is rounded to its
    cell of a resolution^2 grid on [-1,1]^2.  Levels are cumulative: a
    level-k mark belongs to every higher level too.

    Each level is a flat boolean raster plus the array of its marked cells'
    centres in marking order, extended as cells are marked (not recomputed
    for every rule); a rule only pairs the cells that are new since its last
    pass, one chunk of at most _PAIR_CHUNK pairs at a time, and each chunk
    is marked before the next is computed.  A chunk is evaluated and
    scanned in blocks of at most _BLOCK pairs (or of one of its rows, if
    that is longer), and a block's scan keeps only its cells not yet
    marked, so the working set is a few blocks whatever the raster; the
    cells of all its blocks are marked together once the last is scanned.
    A chunk holding a value on or beyond the unit circle (or an undefined
    one) in any block, or reaching a new cell whose center lies there,
    stops the run with escaped=True before any of it is marked; the reason
    names an undefined value if any block held one.  Rules, cells, chunks
    and blocks come in a fixed order, so an escaped run leaves the same
    rasters every time, and the block size changes neither the rasters nor
    the reason: they are those of scanning each chunk whole.

    The parallel rule is symmetric, so a rule (k, k) evaluates each
    unordered pair once: row r of the new cells meets the new cells from its
    own index onwards, then every older cell, in bands of _TRIANGLE_ROWS
    rows broadcast against their suffix (so a band also repeats the pairs
    below its own diagonal); a band's blocks are whole rows, at most _BLOCK
    pairs or one row, as for every other rule.  The chunks are the row
    slices, with the step, of the first of the two parts every other rule
    runs (new cells x all cells, then older cells x new cells).  Each pair
    left out has its mirror in the same chunk or in an earlier one, which
    was marked already, so the marks and the escape state are those of both
    parts up to the last bits of t || t' against t' || t: on the four
    converged benchmark closures 26 % of the 5.0 M ordered pairs differ in
    their bits and none lands in another cell.

    Product rules skip the pairs that provably change nothing.  Before
    each part of a product rule, r0 is the least distance from 0 to the
    closed square of a cell not yet marked at the target level, capped at
    1; marks only grow, so r0 stays a lower bound for the whole part, and
    a pointer into the cells sorted by that distance, advanced past the
    marked ones, finds it without rescanning the raster.  A pair is
    skipped when |b| < (r0 (1 - 1e-12) - 1e-12) / |a|, a prefix of the
    right side sorted by modulus (the top level keeps that order, merging
    in the cells appended since it was last used).  That margin dwarfs the
    few ulps by which the moduli, the division, fl(a b), the truncation to
    a cell index and the distance table can err, so the cell the pair
    would reach lies nearer to 0 than r0, hence is already marked, and its
    value has modulus below 1: the pair can neither add a cell nor escape.
    Skipping only thins each chunk, which is still left[i:i+step] x right
    with step taken from the full right side, and mark treats a chunk as
    a set, so the rasters, sweeps, escape state and reason are those of
    pairing every cell.  Ties in modulus may sort either way: the kept
    suffix of each row is the same set.

    scan accepts a value when x^2 + y^2 < 1 - 1e-12 and tests only the
    rest (NaN and inf among them) by |t| < 1; the rounding error of the
    squared sum is a few ulps, far inside that margin, so the decision is
    |t| < 1's, bit for bit.  Cell indices scale by res/2 instead of
    dividing by h, which is exact because h is a power of two.
    """
    if not 1 <= resolution <= 2048 or resolution & (resolution - 1):
        raise GraphError("resolution must be a power of two <= 2048")
    if lam not in (3, 4):
        raise GraphError("raster closure supports lam in {3, 4}")
    q = complex(q)
    if q == 0 or q == 1:
        raise GraphError("closure needs q outside {0, 1}")
    res = resolution
    scale = res / 2.0                   # 1/h for the cell width h = 2/res, exactly
    rasters = [np.zeros(res * res, dtype=bool) for _ in range(lam - 1)]
    points = [np.zeros(0, dtype=complex) for _ in range(lam - 1)]
    axis = _cell_centres(res)
    dist, by_dist = _cell_distances(res)
    prefix = [0] * (lam - 1)            # by_dist[:prefix[m]] is marked at level m+1

    def least_unmarked(level: int) -> float:
        """min(1, least dist of a cell not marked at level)."""
        marked, p = rasters[level - 1], prefix[level - 1]
        while p < len(by_dist):
            window = marked[by_dist[p:p + res]]
            if not window.all():
                p += int(window.argmin())
                break
            p += len(window)
        prefix[level - 1] = p
        return min(float(dist[by_dist[p]]), 1.0) if p < len(by_dist) else 1.0

    def scan(level: int, vals: np.ndarray) -> tuple[int, np.ndarray | None]:
        """One block's flag (0 clean, 1 |t| >= 1, 2 undefined) and, when clean,
        its cells not yet marked at `level`."""
        x, y = vals.real, vals.imag
        with np.errstate(over="ignore"):
            inside = x * x + y * y < 1.0 - 1e-12
        if not inside.all():
            rest = vals[~inside]
            if not np.all(np.abs(rest) < 1.0):
                return (1 if np.all(np.isfinite(rest)) else 2), None
        ix = np.minimum(((x + 1.0) * scale).astype(np.int64), res - 1)
        iy = np.minimum(((y + 1.0) * scale).astype(np.int64), res - 1)
        flat = iy * res + ix
        return 0, _sorted_unique(flat[~rasters[level - 1][flat]])

    def mark(level: int, blocks) -> str:
        """Scan a chunk's blocks, then mark its cells at `level` and above; the
        escape reason or ""."""
        cells, worst = [], 0
        for vals in blocks:
            flag, new = scan(level, vals)
            if flag == 2:
                return "undefined parallel combination inside the rules"
            worst = max(worst, flag)
            cells.append(new)
        if worst:
            return "a combination reached |t| >= 1"
        new = cells[0] if len(cells) == 1 else _sorted_unique(np.concatenate(cells))
        c = axis[new % res] + 1j * axis[new // res]
        if np.any(c.real * c.real + c.imag * c.imag >= 1.0):
            return "a cell center reached |t| >= 1"
        for m in range(level - 1, lam - 1):
            fresh = ~rasters[m][new]
            rasters[m][new[fresh]] = True
            points[m] = np.concatenate([points[m], c[fresh]])
        return ""

    def parallel(a, b):
        return _t_parallel(a, b, q)

    rules = [(k, ell, parallel, k + ell) for k in range(1, lam)
             for ell in range(k, lam) if k + ell <= lam - 1]
    rules += [(k, lam - 1, np.multiply, k) for k in range(1, lam)]
    seen = {(k, ell): (0, 0) for k, ell, _, _ in rules}
    # Indices of the top level's cells in order of modulus, and the sorted
    # moduli; cells appended since the last read are merged in.
    ranked = [np.zeros(0, dtype=np.int64), np.zeros(0)]

    def by_modulus(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The top level's cells start..stop-1 sorted by modulus, and their moduli."""
        top = points[lam - 2]
        order, mods = ranked
        if len(order) < len(top):
            mods = np.concatenate([mods, np.abs(top[len(order):])])
            merge = np.argsort(mods, kind="stable")     # timsort: one run and a short tail
            order, mods = np.append(order, np.arange(len(order), len(top)))[merge], mods[merge]
            ranked[:] = order, mods
        if start or stop < len(order):
            keep = (order >= start) & (order < stop)
            order, mods = order[keep], mods[keep]
        return top[order], mods

    def kept_pairs(op, rows: np.ndarray, right: np.ndarray, first: np.ndarray):
        """op over every rows[r] paired with right[first[r]:], in blocks of
        whole rows holding at most _BLOCK pairs (or one row)."""
        counts = len(right) - first
        ends = np.cumsum(counts)
        # A shared suffix (always so for parallel rules) broadcasts, which
        # costs far less than gathering the pairs one by one.
        lo = first.min()
        shared = lo == first.max()
        j = 0
        while j < len(rows):
            base = ends[j] - counts[j]
            stop = max(j + 1, int(np.searchsorted(ends, base + _BLOCK, side="right")))
            if shared:
                yield op(rows[j:stop, None], right[None, lo:]).ravel()
            else:
                n, e = counts[j:stop], ends[j:stop] - base
                col = np.repeat(first[j:stop] + n - e, n)
                col += np.arange(e[-1])
                yield op(np.repeat(rows[j:stop], n), right[col])
            j = stop

    def triangle(rows: np.ndarray, right: np.ndarray, start: int):
        """parallel over rows[r] paired with right[start+r:]: each band of
        _TRIANGLE_ROWS rows through kept_pairs, sharing its suffix."""
        for j in range(0, len(rows), _TRIANGLE_ROWS):
            band = rows[j:j + _TRIANGLE_ROWS]
            yield from kept_pairs(parallel, band, right[start + j:],
                                  np.zeros(len(band), dtype=np.int64))

    def sweep() -> str:
        """One pass over the rule table; the escape reason or ""."""
        for k, ell, op, target in rules:
            a, b = points[k - 1], points[ell - 1]
            na, nb = seen[k, ell]
            seen[k, ell] = (len(a), len(b))
            symmetric = op is parallel and k == ell
            if symmetric:
                parts = [(a[na:], np.concatenate([a[na:], a[:na]]), 0)]
            else:
                parts = [(a[na:], b, 0), (a[:na], b[nb:], nb)]
            for left, right, offset in parts:
                if not len(left) or not len(right):
                    continue
                step = max(1, _PAIR_CHUNK // len(right))
                if op is np.multiply:
                    r0 = least_unmarked(target)
                    right, mod = by_modulus(offset, len(b))
                    # |a| = 0 gives +-inf: all of the row's pairs skipped, or none.
                    with np.errstate(divide="ignore"):
                        least = (r0 * (1.0 - 1e-12) - 1e-12) / np.abs(left)
                    first = np.searchsorted(mod, least)
                else:
                    first = np.zeros(len(left), dtype=np.int64)
                for i in range(0, len(left), step):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        if symmetric:
                            reason = mark(target, triangle(left[i:i + step], right, i))
                        else:
                            reason = mark(target, kept_pairs(op, left[i:i + step], right,
                                                             first[i:i + step]))
                    if reason:
                        return reason
        return ""

    reason = mark(1, [np.array([1.0 / (1.0 - q)])])
    sweeps = 0
    converged = bool(reason)
    while not converged and sweeps < _MAX_SWEEPS:
        sweeps += 1
        before = sum(map(len, points))
        reason = sweep()
        converged = bool(reason) or sum(map(len, points)) == before
    return GridFamily(lam, q, res, tuple(r.reshape(res, res) for r in rasters),
                      bool(reason), converged, sweeps, reason)


def transmissivity_circle_max(r: int, n: int, radius: float = 2.0,
                              samples: int = 4096) -> tuple[float, float]:
    """Max of |t_eff(depth-n tree)| on the circle |q-1| = radius.

    Returns (value, theta/pi at the maximum with theta in [0, pi]); the
    coefficients are real, so the two half-circles mirror each other.
    Scans the half-circle at samples angles in one array call and refines
    by golden section; a pole counts as an infinite value.
    """
    if samples < 2:
        raise GraphError("samples must be >= 2")

    def val(theta):
        t = t_eff_at(1.0 + radius * np.exp(1j * theta), r, n)
        return np.where(np.isfinite(t), np.abs(t), math.inf)

    thetas = np.linspace(0.0, math.pi, samples)
    k = int(np.argmax(val(thetas)))
    w = math.pi / (samples - 1)
    lo, hi = max(0.0, thetas[k] - w), min(math.pi, thetas[k] + w)
    best_theta = float(_golden_argmax(val, lo, hi)[0])
    return float(val(best_theta)), best_theta / math.pi


# ---------------------------------------------------------------------------
# The 94-vertex cycle counterexample
# ---------------------------------------------------------------------------

@dataclass
class CycleCounterexample:
    roots: list[complex]
    witness: complex
    witness_offset: float              # |witness - 1|
    count: int
    residual: float                    # Newton residual on the 94-vertex polynomial
    verified: bool
    cycle_poly_degree: int


def _cleared(num: BigPoly, den: BigPoly) -> list:
    """Ascending coefficients of num - omega*den at 40 digits, omega = exp(2 pi i/3)."""
    with mp.workdps(40):
        omega = mp.expjpi(mp.mpf(2) / 3)
        degree = max(num.degree, den.degree)
        cleared = []
        for k in range(degree + 1):
            cn = num.coeffs[k] if k <= num.degree else 0
            cd = den.coeffs[k] if k <= den.degree else 0
            cleared.append(mp.mpc(cn) - omega * mp.mpc(cd))
    return cleared


def cycle_counterexample(tol: float = 1e-6) -> CycleCounterexample:
    """Roots of t_eff(depth-5 tree) = exp(2 pi i/3) and the cycle witness.

    t_eff_exact gives the transmissivity B/(qA + B) in lowest terms, hence
    the cleared polynomial F = B - omega(qA + B), whose exact coefficients
    verify.  leaftree.cleared_ratio, on jets, gives F/F' for ring_starts.
    The root of largest |q-1| is confirmed against the coloring polynomial
    of the 94-vertex graph: three such trees and an edge in a cycle, whose
    own tree gives that polynomial.
    """
    cleared = _cleared(*t_eff_exact(2, 5))
    omega = cmath.exp(2j * math.pi / 3)
    starts = ring_starts(lambda z: cleared_ratio(z, 2, 5, omega), len(cleared) - 1, 2.0, 1e-14)
    rs = solve_complex_coeffs(cleared, tol=1e-10, starts=list(starts))
    witness = max(rs.roots, key=lambda z: abs(z - 1.0))

    poly = chromatic_poly(gen_gadget_cycle(leaf_joined_tree_ast(2, 5), 3)[1])
    residual = residual_at(poly.coeffs, witness)
    return CycleCounterexample(
        roots=rs.roots,
        witness=witness,
        witness_offset=abs(witness - 1.0),
        count=len(rs.roots),
        residual=residual,
        verified=residual < tol,
        cycle_poly_degree=poly.degree,
    )
