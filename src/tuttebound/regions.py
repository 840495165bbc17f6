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
tools: the exact parallel maximum on disc boundaries (the symmetric
multiaffine form attains its polydisc maximum on the diagonal, so a
one-dimensional boundary scan suffices), the per-angle bisection for the
best point+disc radius, a raster closure approximating the minimal regions
(one rule table over flat per-level rasters, every pair combined by the
same parallel map the audits use), and the 94-vertex cycle counterexample.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .engine import chromatic_poly
from .graphs import GraphError
from .leaftree import t_eff_exact
from .rootfind import solve_complex_coeffs, _mp_eval
from .sp import gen_gadget_cycle, gen_leaf_joined_tree

LOG2 = math.log(2.0)


class RadiiBlowup(GraphError):
    """The radius recursion left the admissible range before level L-1."""


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

def _bisect_unit(f, tol: float = 1e-13) -> float:
    """Find the sign change of f on (0, 1); f < 0 left of it, > 0 right."""
    lo, hi = 1e-15, 1.0 - 1e-15
    if f(lo) > 0 or f(hi) < 0:
        raise GraphError("no bracketed threshold in (0,1)")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sp_rho_threshold(lam: int) -> float:
    """The unique rho in (0,1) with (1+rho)^L = 2(1+rho^2)^(L-1); 1 for L=2.

    Largest contraction rate 1/|q-1| at which the nested-disc radii exist,
    hence the series-parallel certification threshold.
    """
    if not isinstance(lam, int) or lam < 2:
        raise GraphError("need integer lam >= 2")
    if lam == 2:
        return 1.0
    def gap(rho: float) -> float:
        return lam * math.log1p(rho) - (lam - 1) * math.log1p(rho * rho) - LOG2
    rho = _bisect_unit(gap)
    assert rho > LOG2 / (lam - 1.5 * LOG2)
    return rho


def wheatstone_rho_threshold(lam: int) -> float:
    """The unique rho in (0,1) with (1+rho)^(L+1) = 4(1-rho+2rho^2)^(L-1).

    Certification threshold when Wheatstone bridges join the plain edge as
    building blocks; 1 at L=2 by the same boundary convention as above.
    """
    if not isinstance(lam, int) or lam < 2:
        raise GraphError("need integer lam >= 2")
    if lam == 2:
        return 1.0
    def gap(rho: float) -> float:
        return ((lam + 1) * math.log1p(rho)
                - (lam - 1) * math.log(1.0 - rho + 2.0 * rho * rho)
                - 2.0 * LOG2)
    rho = _bisect_unit(gap)
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

    def arc_point(self, v: float) -> complex:
        return v / (self.q + v)


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

    def center(self, ix: int, iy: int) -> complex:
        h = 2.0 / self.resolution
        return complex(-1.0 + (ix + 0.5) * h, -1.0 + (iy + 0.5) * h)


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
    if not isinstance(lam, int) or lam < 2:
        raise GraphError("need integer lam >= 2")
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
    den = 1.0 + (q - 1.0) * a * b
    if isinstance(den, np.ndarray):
        return (a + b + (q - 2.0) * a * b) / den
    if den == 0:
        return None
    return (a + b + (q - 2.0) * a * b) / den


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
            pts.append(np.full(count // 4 + 1, 1.0 / (1.0 - self.q)))
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
            ok |= np.abs(t - 1.0 / (1.0 - self.q)) <= tol
        return ok


def verify_family(family, q: complex | None = None, lam: int | None = None,
                  samples: int = 10_000, seed: int = 7) -> bool:
    """Sampled audit of the four nesting/closure conditions.

    Exact checks where the disc structure allows (rho^2 <= r_1,
    r_(L-1) <= rho for the multiplicative nesting; r_(L-1) < 1 for
    excluding t = 1; |t t'| <= rho^2 < rho for well-definedness at level L),
    Monte-Carlo plus boundary sampling for the parallel condition.
    """
    if isinstance(family, GridFamily):
        return _verify_grid(family, samples, seed)
    q = family.q if q is None else complex(q)
    lam = family.lam if lam is None else lam
    radii = family.radii
    if len(radii) != lam - 1 or any(radii[i] > radii[i + 1] + 1e-15 for i in range(len(radii) - 1)):
        return False
    rho = 1.0 / abs(q - 1.0)
    slack = 1e-12
    if radii[0] < rho * rho - slack or radii[-1] > rho + slack:
        return False
    if radii[-1] >= 1.0 - 1e-12 or rho >= 1.0:
        return False                      # t = 1 must stay outside
    rng = np.random.default_rng(seed)
    sets = _FamilySets(family, rng)
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


def _verify_grid(family: GridFamily, samples: int, seed: int) -> bool:
    if family.escaped or not family.converged:
        return False
    res = family.resolution
    h = 2.0 / res
    rng = np.random.default_rng(seed)
    lam = family.lam
    pts = []
    for k in range(1, lam):
        cells = family.cells(k)
        if not cells:
            return False
        arr = np.array([family.center(ix, iy) for ix, iy in cells])
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
# Exact parallel maxima and the per-angle boundary
# ---------------------------------------------------------------------------

def exact_parallel_max(x: float, y: float, q: complex,
                       resolution: int = 4096) -> float:
    """True maximum of |t || t'| over |t| = x, |t'| = y.

    The combination is a ratio of multiaffine symmetric forms, so for equal
    radii the polydisc maximum coincides with the diagonal and a boundary
    circle scan plus golden-section refinement suffices; unequal radii get
    a torus scan with alternating refinement.
    """
    if x < 0 or y < 0:
        raise GraphError("radii must be nonnegative")
    if x == 0 and y == 0:
        return 0.0

    def pmag(u: float, v: float) -> float:
        out = _t_parallel(x * cmath.exp(1j * u), y * cmath.exp(1j * v), q)
        return math.inf if out is None else abs(out)

    if x == y:
        thetas = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        t = x * np.exp(1j * thetas)
        k = int(np.argmax(np.abs(_t_parallel(t, t, q))))
        w = 2.0 * np.pi / resolution
        return _golden_argmax(lambda th: pmag(th, th), thetas[k] - w, thetas[k] + w,
                              iters=60)[1]
    coarse = max(256, resolution // 16)
    th1 = np.linspace(0.0, 2.0 * np.pi, coarse, endpoint=False)
    a = x * np.exp(1j * th1)
    b = y * np.exp(1j * th1)
    vals = np.abs(_t_parallel(a[:, None], b[None, :], q))
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    w = 2.0 * np.pi / coarse
    t1, t2 = th1[i], th1[j]
    for _ in range(3):
        t1 = _golden_argmax(lambda u: pmag(u, t2), t1 - w, t1 + w)[0]
        t2 = _golden_argmax(lambda v: pmag(t1, v), t2 - w, t2 + w)[0]
        w = w / 8.0
    return pmag(t1, t2)


def _golden_argmax(f, lo: float, hi: float, iters: int = 48) -> tuple[float, float]:
    """Golden-section search for a maximum of f on [lo, hi].

    Returns the midpoint of the final bracket and the larger of the two
    interior values there.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b), max(fc, fd)


def boundary_rho(lam: int, theta: float, tol: float = 1e-6,
                 resolution: int = 4096) -> float:
    """Largest rho with feasible exact-maximum radii along direction theta.

    The point 1/(1-q) is placed at rho e^(i theta); radii start at rho^2
    and grow by the exact pairwise maxima instead of the naive bound, so
    the result is at least the uniform threshold.  Bisection on rho.
    """
    if lam < 3:
        raise GraphError("boundary scan needs lam >= 3")

    def feasible(rho: float) -> bool:
        q = 1.0 - cmath.exp(-1j * theta) / rho
        radii = [rho * rho]
        for s in range(2, lam):
            best = 0.0
            for k in range(1, s // 2 + 1):
                ell = s - k
                rk, rl = radii[k - 1], radii[ell - 1]
                if rk >= rho or rl >= rho:
                    return False
                best = max(best, exact_parallel_max(rk, rl, q, resolution))
            radii.append(best)
        return radii[-1] <= rho

    lo = sp_rho_threshold(lam)
    hi = 0.999999
    if not feasible(lo):
        raise GraphError("uniform threshold unexpectedly infeasible")
    if feasible(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Raster closure
# ---------------------------------------------------------------------------

_PAIR_CHUNK = 1 << 21
_MAX_SWEEPS = 10_000


def grid_closure(q: complex, lam: int, resolution: int = 256) -> GridFamily:
    """Iterate the region-closure rules on a raster until fixed point.

    Starts from 1/(1-q) marked at level 1 and repeatedly applies one rule
    table (k, ell, op, target): parallel combinations (k, ell) -> k+ell
    while k+ell <= L-1, and products with the top level (k, L-1) -> k,
    which dominate every other product.  Every result is rounded to its
    cell of a resolution^2 grid on [-1,1]^2.  Levels are cumulative: a
    level-k mark belongs to every higher level too.

    Each level is a flat boolean raster plus the array of its marked cells
    in marking order; a rule only pairs the cells that are new since its
    last pass, one chunk of at most _PAIR_CHUNK pairs at a time, and each
    chunk is marked before the next is computed.  A chunk holding a value
    on or beyond the unit circle (or an undefined one), or reaching a new
    cell whose center lies there, stops the run with escaped=True before
    it is marked.  Rules, cells and chunks come in a fixed order, so an
    escaped run leaves the same rasters every time.
    """
    if resolution > 2048 or resolution & (resolution - 1):
        raise GraphError("resolution must be a power of two <= 2048")
    if lam not in (3, 4):
        raise GraphError("raster closure supports lam in {3, 4}")
    q = complex(q)
    if q == 0 or q == 1:
        raise GraphError("closure needs q outside {0, 1}")
    res = resolution
    h = 2.0 / res
    rasters = [np.zeros(res * res, dtype=bool) for _ in range(lam - 1)]
    cells = [np.zeros(0, dtype=np.int64) for _ in range(lam - 1)]

    def centers(flat: np.ndarray) -> np.ndarray:
        return (-1.0 + (flat % res + 0.5) * h) + 1j * (-1.0 + (flat // res + 0.5) * h)

    def mark(level: int, vals: np.ndarray) -> str:
        """Mark the cells of vals at `level` and above; the escape reason or ""."""
        if not np.all(np.abs(vals) < 1.0):
            if np.all(np.isfinite(vals)):
                return "a combination reached |t| >= 1"
            return "undefined parallel combination inside the rules"
        ix = np.minimum(((vals.real + 1.0) / h).astype(np.int64), res - 1)
        iy = np.minimum(((vals.imag + 1.0) / h).astype(np.int64), res - 1)
        flat = iy * res + ix
        new = np.unique(flat[~rasters[level - 1][flat]])
        c = centers(new)
        if np.any(c.real * c.real + c.imag * c.imag >= 1.0):
            return "a cell center reached |t| >= 1"
        for m in range(level - 1, lam - 1):
            fresh = new[~rasters[m][new]]
            rasters[m][fresh] = True
            cells[m] = np.concatenate([cells[m], fresh])
        return ""

    def parallel(a, b):
        return _t_parallel(a, b, q)

    rules = [(k, ell, parallel, k + ell) for k in range(1, lam)
             for ell in range(k, lam) if k + ell <= lam - 1]
    rules += [(k, lam - 1, np.multiply, k) for k in range(1, lam)]
    seen = {(k, ell): (0, 0) for k, ell, _, _ in rules}

    def sweep() -> str:
        """One pass over the rule table; the escape reason or ""."""
        for k, ell, op, target in rules:
            a, b = centers(cells[k - 1]), centers(cells[ell - 1])
            na, nb = seen[k, ell]
            seen[k, ell] = (len(a), len(b))
            for left, right in ((a[na:], b), (a[:na], b[nb:])):
                if not len(left) or not len(right):
                    continue
                step = max(1, _PAIR_CHUNK // len(right))
                for i in range(0, len(left), step):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        vals = op(left[i:i + step, None], right[None, :]).ravel()
                    reason = mark(target, vals)
                    if reason:
                        return reason
        return ""

    reason = mark(1, np.array([1.0 / (1.0 - q)]))
    sweeps = 0
    converged = bool(reason)
    while not converged and sweeps < _MAX_SWEEPS:
        sweeps += 1
        before = sum(map(len, cells))
        reason = sweep()
        converged = bool(reason) or sum(map(len, cells)) == before
    return GridFamily(lam, q, res, tuple(r.reshape(res, res) for r in rasters),
                      bool(reason), converged, sweeps, reason)


def transmissivity_circle_max(r: int, n: int, radius: float = 2.0,
                              samples: int = 4096) -> tuple[float, float]:
    """Max of |t_eff(depth-n tree)| on the circle |q-1| = radius.

    Returns (value, theta/pi at the maximum with theta in [0, pi]); the
    coefficients are real, so the two half-circles mirror each other.
    Scans the half-circle and refines by golden section.
    """
    from .leaftree import t_eff_at
    from .weights import is_finite

    def val(theta: float) -> float:
        q = 1.0 + radius * cmath.exp(1j * theta)
        t = t_eff_at(q, r, n)
        return abs(t) if is_finite(t) else math.inf

    thetas = np.linspace(0.0, math.pi, samples)
    vals = np.array([val(th) for th in thetas])
    k = int(np.argmax(vals))
    w = math.pi / (samples - 1)
    lo, hi = max(0.0, thetas[k] - w), min(math.pi, thetas[k] + w)
    best_theta = _golden_argmax(val, lo, hi)[0]
    return val(best_theta), best_theta / math.pi


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


def cycle_counterexample(tol: float = 1e-6, root_tol: float = 1e-10) -> CycleCounterexample:
    """Roots of t_eff(depth-5 tree) = exp(2 pi i/3) and the cycle witness.

    Clears denominators of the reduced exact transmissivity, solves the
    resulting polynomial, picks the root of largest |q-1|, and confirms it
    against the independently built coloring polynomial of the 94-vertex
    graph (three depth-5 trees plus an edge in a cycle).
    """
    num, den = t_eff_exact(2, 5)
    with mp.workdps(40):
        omega = mp.expjpi(mp.mpf(2) / 3)
        degree = max(num.degree, den.degree)
        cleared = []
        for k in range(degree + 1):
            cn = num.coeffs[k] if k <= num.degree else 0
            cd = den.coeffs[k] if k <= den.degree else 0
            cleared.append(mp.mpc(cn) - omega * mp.mpc(cd))
    rs = solve_complex_coeffs(cleared, tol=root_tol)
    witness = max(rs.roots, key=lambda z: abs(z - 1.0))

    # The 94-vertex cycle is series-parallel, so the engine builds its
    # polynomial from the graph alone.
    gadget, _tree = gen_leaf_joined_tree(2, 5)
    cycle_tt, _cycle_tree = gen_gadget_cycle(gadget, 3)
    poly = chromatic_poly(cycle_tt.graph)
    with mp.workdps(60):
        z = mp.mpc(witness)
        p, dp = _mp_eval(list(poly.coeffs), z)
        residual = float(abs(p / dp) / (1 + abs(z))) if dp != 0 else float(abs(p))
    return CycleCounterexample(
        roots=rs.roots,
        witness=witness,
        witness_offset=abs(witness - 1.0),
        count=len(rs.roots),
        residual=residual,
        verified=residual < tol,
        cycle_poly_degree=poly.degree,
    )
