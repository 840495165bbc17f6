"""Simultaneous complex root finding for exact dense polynomials.

Aberth-Ehrlich iteration with Jacobi-style sweeps (every update reads the
previous sweep, so a sweep is deterministic and trivially data-parallel).
The one loop, aberth_sweeps, takes the Newton ratio p/p' as a callable, so
it serves every evaluator: the double Horner (_horner) on the coefficients,
started from the eigenvalues of the companion matrix (_companion_starts),
exact values of g/g' (_exact_ratio), and the pair recursion of a
leaf-joined tree on jets in tuttebound.leaftree, which gives the tree's own
roots and those of t_n(q) = omega (regions.cycle_counterexample).  The
tree callers start it from one ring around q = 1 (ring_starts).  Like
MPSolve (Bini & Fiorentino 2000), a call also stops at its rounding floor:
in the fast local phase, a sweep that fails to halve the largest
correction.  Most calls solve factors of degree 2 to 9, where a sweep's
cost is numpy call overhead, not arithmetic, so a sweep makes few numpy
calls: one errstate covers the whole loop, each guarded quotient is one
masked division into a buffer that holds its fallback, and |corr| and
1 + |z| are formed once.

Polynomials whose roots fill a disc, like the coloring polynomials handled
here, are brutally ill-conditioned in the monomial basis: near the root
region the value is smaller than the coefficient scale sum |a_k||z|^k by a
factor exponential in the degree, so double-precision Horner cannot even
decide whether a point is near a root.  The solver therefore runs the
cheap double sweeps first, on coefficients rounded to doubles once from
their exact integers.  They start at the companion matrix's eigenvalues,
backward-stable root approximations (Edelman & Murakami 1995), so where
Horner resolves the roots they stop within one to three sweeps; a
quadratic takes its two eigenvalues in closed form.  When the sweeps stop
unconverged, the same loop continues from their points on exact values of
g/g', each rounded to a double once, so the sweeps lose nothing to
cancellation and need no working precision.  A linear factor needs no
sweep: it starts at its root -a0/a1, each part rounded once from the
integers.  Every step reads one conversion of the factor to Gaussian
integers.

Exact integer input is reduced before any numerics.  Roots at q = 0 and
q = 1 are deflated exactly (coloring polynomials of graphs with an edge
always carry both), and the rest is split into exact squarefree factors:
a gcd(f, f') = 1 certificate modulo a fixed prime settles the common
squarefree case, and Yun's algorithm over the integers handles the rest.
Each distinct factor is solved once and its roots carry their exact
multiplicity, so repeated roots (series joins, cut vertices, the (q-2)^2 of
a Wheatstone bridge) never reach the numerical solver.  Each entry,
find_roots and solve_complex_coeffs, slices a factor q^m off and checks
supplied starts once; every RootSet is built in one place (_root_set).

The reported residual of a root z is |g(z)/g'(z)| / (1 + |z|), measured on
the squarefree factor g that holds z: the Newton correction relative to the
root's magnitude, a first-order bound on the distance to a true root that
stays meaningful when coefficients span hundreds of digits.  Every
coefficient and every iterate is a dyadic rational, so the exact sweeps and
Newton verification evaluate g and g' exactly, in Gaussian integers over a
power of two (_exact_horner).  Each real part of g is divided by the real
quadratic (t - Z)(t - conj(Z)) (Knuth, TAOCP 2, 4.6.4): the remainder gives
the value at Z and the quotient, divided once more, the derivative.  Real
coefficients take four multiplications a step where complex Horner takes
eight, and the integers are the same.  A ratio or residual past the double
range reads as inf, and a Newton iterate past it raises RootFindingError.
Newton starts at the point itself and rounds each later iterate, exact
z - g/g', once to the bits of the given digits; the residual comes from the
same integers, rounded to a float once.  Cancellation therefore costs no
digits and there is no rounding floor: each root takes one Newton pass,
which stops once the residual drops below tol*1e-3, when a step no longer
halves a residual of at most tol, or after 30 steps.  A slow approach to a
clustered root needs more steps, not more digits.  Root finding uses no mpmath: it runs in numpy
doubles and Python integers.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .poly import BigPoly


MAX_SWEEPS = 400        # cap of one aberth_sweeps call, for any evaluator
_LOCAL = 1e-7           # relative correction from which Aberth must halve it
_NUDGE = 1e-3           # relative offset that separates two collided roots


class RootFindingError(ValueError):
    pass


@dataclass
class RootSet:
    roots: list[complex]
    residuals: list[float]
    multiplicities: list[int]
    degree: int
    tol: float
    converged: bool


# ---------------------------------------------------------------------------
# Aberth sweeps
# ---------------------------------------------------------------------------

def _horner(coeffs, z):
    """p(z) and p'(z) by Horner at a point or an array, double or mpc."""
    p = dp = z * 0
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _horner_ratio(coeffs, z: np.ndarray) -> np.ndarray:
    """p/p' at the points z by Horner, 0 where p' vanishes."""
    p, dp = _horner(coeffs, z)
    return np.divide(p, dp, out=np.zeros(p.shape, p.dtype), where=dp != 0)


def aberth_sweeps(ratio: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                  step_tol=1e-14) -> tuple[np.ndarray, bool]:
    """Aberth from the complex128 start points z, as every caller passes them.

    ratio(z) returns the Newton ratios p(z)/p'(z) at an array of points; any
    evaluator of p will do.  Stops with the flag True when every correction
    is below step_tol relatively.  It stops with the flag False at the
    rounding floor, once the largest relative correction is at most _LOCAL
    and a sweep fails to halve it, or after MAX_SWEEPS sweeps.  Adequate
    only where the arithmetic resolves p, so callers validate.

    One errstate covers the whole loop.  Each guarded quotient is one
    masked np.divide into a buffer of the operands' dtype (mpc object
    arrays included) that already holds its fallback: element by element
    it is np.where(m, x / np.where(m, y, 1), fallback), bit for bit, which
    tests/test_rootfind.py checks against a loop written that way.
    """
    z = np.asarray(z)
    last = np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _sweep in range(MAX_SWEEPS):
            w = ratio(z)
            # Coincident points, each with itself included, add no repulsion.
            diff = z[:, None] - z[None, :]
            repulse = np.divide(1, diff, out=np.zeros(diff.shape, diff.dtype),
                                where=diff != 0).sum(axis=1)
            den = 1 - w * repulse
            corr = np.divide(w, den, out=np.array(w, dtype=den.dtype), where=den != 0)
            step = np.abs(corr)
            # Overflowed evaluations (far initial points) drift inward instead.
            finite = step < np.inf
            if not finite.all():
                far = ~finite
                corr[far] = (0.2 * z)[far]
                step = np.abs(corr)
            z = z - corr
            scale = 1.0 + np.abs(z)
            if (step <= step_tol * scale).all():
                return z, True
            size = (step / scale).max()
            if last <= _LOCAL and 2 * size > last:
                return z, False
            last = size
    return z, False


def ring_starts(ratio: Callable[[np.ndarray], np.ndarray], count: int,
                radius: float, step_tol: float) -> np.ndarray:
    """aberth_sweeps from count points on |z - 1| = radius, off the real axis.

    Both callers evaluate a leaf-joined tree's pair step on jets
    (tuttebound.leaftree), whose roots gather near such a ring.  The flag
    is dropped: callers verify on exact coefficients.
    """
    angles = (np.arange(count) + 0.37) / count
    ring = 1.0 + radius * np.exp(2j * np.pi * angles)
    starts, _ = aberth_sweeps(ratio, ring, step_tol=step_tol)
    return starts


# ---------------------------------------------------------------------------
# Exact Newton verification
# ---------------------------------------------------------------------------

def _dyadic(x) -> tuple[int, int]:
    """(m, e) with x = m * 2**e exactly: a dyadic rational, a float, or an
    mpf read at its own precision (mp.mpf(x) would round to the working one)."""
    if isinstance(x, int):
        return x, 0
    mpf = getattr(x, "_mpf_", None)
    if mpf is not None:
        sign, man, exp, bits = mpf
        if bits < 0:
            raise RootFindingError("non-finite value")
        return (-int(man) if sign else int(man)), exp
    if isinstance(x, numbers.Rational):
        num, den = int(x.numerator), int(x.denominator)
        if den & (den - 1):
            raise RootFindingError(f"{x} is not a dyadic rational")
    else:
        if not math.isfinite(x):
            raise RootFindingError("non-finite value")
        num, den = float(x).as_integer_ratio()
    return num, 1 - den.bit_length()


class _Converted(list):
    """Coefficients that keep their _gaussian parts: a factor is converted
    once, however many steps read it."""
    __slots__ = ("parts",)

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.parts = _gaussian(coeffs)


def _gaussian(coeffs) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of the coefficients as integers over one
    common power of two, which cancels from g/g'."""
    if isinstance(coeffs, _Converted):
        return coeffs.parts
    parts = [(_dyadic(c.real), _dyadic(c.imag)) for c in coeffs]
    low = min(0, *(e for pair in parts for _, e in pair))
    return ([m << (e - low) for (m, e), _ in parts],
            [m << (e - low) for _, (m, e) in parts])


def _point(z) -> tuple[int, int, int]:
    """(x, y, s) with z = (x + iy)/2**s exactly and s >= 0."""
    (mr, er), (mi, ei) = _dyadic(z.real), _dyadic(z.imag)
    s = max(0, -er, -ei)
    return mr << (er + s), mi << (ei + s), s


def _quadratic_division(a: list[int], s: int, x: int, y: int) -> tuple[int, int, int, int]:
    """(c0, c1, e0, e1) with R(Z) = c0 - c1 conj(Z) and, unless y = 0,
    H(Z) = e0 - e1 conj(Z), at Z = x + iy.

    R is the real polynomial with ascending coefficients a[k] 2**(s(d-k)),
    d = len(a) - 1, and H its quotient by Q = t^2 - 2x t + x^2 + y^2.
    Synthetic division by Q runs c_k = a_k + 2x c_(k+1) - |Z|^2 c_(k+2)
    from the top; H's coefficients are c_2 .. c_d, which the same
    recurrence divides once more (e), and the remainder c_1 t + c_0 - 2x c_1
    of R is c_0 - c_1 conj(Z) at Z.  (e0, e1) stay 0 when y = 0, where H(Z)
    is not needed.
    """
    u, v = 2 * x, x * x + y * y
    c1 = c2 = e1 = e2 = shift = 0
    for k in range(len(a) - 1, -1, -1):
        c1, c2 = (a[k] << shift) + u * c1 - v * c2, c1
        if y and k > 1:
            e1, e2 = c1 + u * e1 - v * e2, e1
        shift += s
    return c1, c2, e1, e2


def _exact_horner(re: list[int], im: list[int], x: int, y: int, s: int
                  ) -> tuple[int, int, int, int]:
    """S^d g(z) and S^(d-1) g'(z) at z = (x + iy)/S, S = 2**s, in integers.

    g has the ascending Gaussian-integer coefficients re + i im; the result
    is (Re, Im) of the first, then of the second.  These are G(Z) and G'(Z)
    at Z = x + iy for the homogenised G, whose coefficients are g's scaled
    by powers of S.  Each real part R of G (re, then im unless it is all 0)
    is divided by the real quadratic Q = (t - Z)(t - conj(Z)) with
    remainder r1 t + r0 (_quadratic_division; Knuth, TAOCP 2, 4.6.4), so
    R(Z) = r1 Z + r0 and R'(Z) = H(Z) Q'(Z) + r1 = 2iy H(Z) + r1 for the
    quotient H.  A real part takes four multiplications a step, two of them
    by |Z|^2, where complex Horner takes eight, so real coefficients cost
    less and Gaussian ones more.  The integers are exact, so they equal
    Horner's bit for bit (tests/test_rootfind.py keeps Horner as the oracle).
    """
    c0, c1, e0, e1 = _quadratic_division(re, s, x, y)
    pr, pi = c0 - x * c1, y * c1
    dr, di = c1 - 2 * y * y * e1, 2 * y * (e0 - x * e1)
    if any(im):
        c0, c1, e0, e1 = _quadratic_division(im, s, x, y)
        pr, pi = pr - y * c1, pi + c0 - x * c1
        dr, di = dr - 2 * y * (e0 - x * e1), di + c1 - 2 * y * y * e1
    return pr, pi, dr, di


def _exact_ratio(exact, z: np.ndarray) -> np.ndarray:
    """g/g' at complex128 points on the _gaussian coefficients, 0 where g'
    vanishes: exact in integers, each part rounded to a double once, and inf
    where a part exceeds the double range."""
    re, im = exact
    out = np.zeros(len(z), dtype=np.complex128)
    for k, point in enumerate(z):
        x, y, s = _point(point)
        pr, pi, dr, di = _exact_horner(re, im, x, y, s)
        # S g/g' = P/D for P = S^d g and D = S^(d-1) g', S = 2**s.
        den = (dr * dr + di * di) << s
        if den:
            try:
                out[k] = complex((pr * dr + pi * di) / den, (pi * dr - pr * di) / den)
            except OverflowError:
                out[k] = math.inf
    return out


def _bits(dps: int) -> int:
    """The binary precision of dps decimal digits, counted as mpmath counts it."""
    return max(1, round((dps + 1) * 3.3219280948873626))


@functools.cache
def _goal(dps: int, tol: float) -> float:
    """The eta below which Newton stops: 10^(4-dps), or tol*1e-3 if larger."""
    return max(10.0 ** (4 - dps), tol * 1e-3)


def _modulus(re: int, im: int, bits: int) -> tuple[int, int]:
    """(m, e) with |re + i im| = m * 2**e to a relative 2**(2 - bits): both
    parts cut or padded to `bits` bits, then an integer square root."""
    e = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    if e >= 0:
        return math.isqrt((re >> e) ** 2 + (im >> e) ** 2), e
    return math.isqrt((re * re + im * im) << -2 * e), e


def _round_to_bits(wr: int, wi: int, den: int, bits: int) -> tuple[int, int, int]:
    """(x, y, s) with (x + iy)/2**s = (wr + i wi)/den, den > 0, each part
    rounded, ties upward, to 2**(t - bits) for 2**(t-1) <= the larger part < 2**t."""
    top = max(abs(wr), abs(wi))
    if not top:
        return 0, 0, 0
    t = top.bit_length() - den.bit_length()
    if top << max(0, -t) >= den << max(0, t):
        t += 1
    up, down = max(0, bits - t), max(0, t - bits)     # the grid is 2**(down - up)
    unit = den << (down + 1)
    return (((wr << (up + 1)) + (den << down)) // unit << down,
            ((wi << (up + 1)) + (den << down)) // unit << down, up)


def _newton_once(coeffs, z0, dps: int, tol: float) -> tuple[complex, float]:
    """Newton from z0 on the _gaussian coefficients: the point and its last eta.

    Every value of g and g' is exact (_exact_horner): at z0 itself, and at
    each later iterate, which is z - g/g' rounded once, ties upward, to
    _bits(dps) bits relative to its larger part.  eta = |g/g'|/(1 + |z|)
    comes from those integers: each modulus by an integer square root with
    64 guard bits, the quotient rounded to a float once, so it has no
    rounding floor (inf when it exceeds the float range).  Stops once eta
    is below _goal(dps, tol), at a step that no longer halves an eta of at
    most tol, or after 30 steps.  The point returned is the last iterate
    after its step.
    """
    re, im = coeffs
    goal, bits = _goal(dps, tol), _bits(dps)
    guard = bits + 64
    x, y, s = _point(z0)
    eta = math.inf
    for _ in range(30):
        pr, pi, dr, di = _exact_horner(re, im, x, y, s)
        if not (pr or pi):
            eta = 0.0
            break
        if not (dr or di):
            break
        # In units of 1/S, S = 2**s: z is Z = x + iy and the step g/g' is
        # P/D for P = S^d g and D = S^(d-1) g', so eta = |P|/(|D|(S + |Z|)).
        (p, ep), (d, ed), (z, ez) = (_modulus(pr, pi, guard), _modulus(dr, di, guard),
                                     _modulus(x, y, guard))
        low = min(ez, s)
        c = (z << (ez - low)) + (1 << (s - low))      # (S + |Z|) / 2**low
        shift = ep - ed - low
        last = eta
        try:
            eta = (p << max(0, shift)) / ((d * c) << max(0, -shift))
        except OverflowError:         # beyond the float range
            eta = math.inf
        stalled = 2 * eta > last and eta <= tol
        # The next iterate is (Z D - P) conj(D) / (|D|^2 S), exactly.
        nr, ni = x * dr - y * di - pr, x * di + y * dr - pi
        x, y, s = _round_to_bits(nr * dr + ni * di, ni * dr - nr * di,
                                 (dr * dr + di * di) << s, bits)
        if eta < goal or stalled:
            break
    try:
        return complex(x / (1 << s), y / (1 << s)), eta
    except OverflowError:
        raise RootFindingError("a Newton iterate overflows double precision") from None


def newton_residuals(coeffs, roots, dps: int, tol: float
                     ) -> tuple[list[complex], list[float]]:
    """Newton-polish each point and report relative Newton-step residuals.

    The coefficients (ints, floats/complex, or mpf/mpc at their full
    precision) become Gaussian integers once, or not at all when they come
    converted (_Converted); each point then takes one _newton_once pass at
    dps digits.  Its values are exact, so a residual above tol means Newton
    has not reached the root, never that the evaluation lost it to
    cancellation, and more digits would not help.
    """
    exact = _gaussian(coeffs)
    out: list[complex] = []
    res: list[float] = []
    for z0 in roots:
        z, eta = _newton_once(exact, z0, dps, tol)
        out.append(z)
        res.append(eta)
    return out, res


def residual_at(coeffs, z: complex) -> float:
    """|g(z)/g'(z)| / (1 + |z|) on the exact coefficients of g, or |g(z)|
    where that ratio vanishes, which says nothing of how near z is to a root;
    inf where either exceeds the double range."""
    exact = _gaussian(coeffs)
    [ratio] = _exact_ratio(exact, np.array([z]))
    residual = float(abs(ratio)) / (1 + abs(z))
    if not ratio:
        x, y, s = _point(z)
        pr, pi, _, _ = _exact_horner(*exact, x, y, s)
        scale = 1 << (s * (len(exact[0]) - 1))
        try:
            residual = math.hypot(pr / scale, pi / scale)
        except OverflowError:
            residual = math.inf
    return residual


def _float_parts(re: list[int], im: list[int]) -> np.ndarray:
    """The Gaussian integers re + i im over the power of two that brings the
    largest part to [1/2, 1), each part rounded to a double once."""
    scale = 1 << max(abs(m).bit_length() for m in re + im)
    return np.array([complex(x / scale, y / scale) for x, y in zip(re, im)],
                    dtype=np.complex128)


def _companion_starts(coeffs) -> np.ndarray:
    """Start points for the double sweeps: the eigenvalues of the companion
    matrix, backward-stable approximations of the roots (Edelman &
    Murakami, Math. Comp. 64, 1995), from the _gaussian coefficients.

    The matrix is formed for q = 2**k u, with k from the integers' bit
    lengths: the end coefficients in u are of one size unless that puts an
    entry -a_j/a_d of the companion above 2**1000, so its entries stay in
    the double range.  Each coefficient in u is an exact integer rounded to
    a double once, and the eigenvalues in u are scaled back by 2**k exactly.
    A quadratic takes them in closed form, the quadratic formula without
    cancellation, so a process that solves only quadratics never calls
    LAPACK.
    """
    re, im = _gaussian(coeffs)
    d = len(re) - 1
    size = [max(abs(x).bit_length(), abs(y).bit_length()) for x, y in zip(re, im)]
    k = max(round((size[0] - size[d]) / d),
            *(-((size[d] + 1000 - size[j]) // (d - j)) for j in range(d)))
    shift = [k * j if k >= 0 else -k * (d - j) for j in range(d + 1)]
    b = _float_parts([x << t for x, t in zip(re, shift)], [y << t for y, t in zip(im, shift)])
    if d == 2:
        b0, b1, b2 = b.tolist()
        root = cmath.sqrt(b1 * b1 - 4 * b0 * b2)
        s = -(b1 + root if (b1.conjugate() * root).real >= 0 else b1 - root) / 2
        u = np.array([s / b2, b0 / s])
    else:
        if not b.imag.any():
            # A real matrix costs less, and its eigenvalues come in exact conjugate pairs.
            b = b.real
        mat = np.eye(d, k=-1, dtype=b.dtype)
        mat[:, -1] = -b[:d] / b[d]
        try:
            u = np.linalg.eigvals(mat)
        except np.linalg.LinAlgError:
            raise RootFindingError("the companion eigenvalues did not converge") from None
    with np.errstate(over="ignore"):
        z = u.astype(np.complex128) * 2.0 ** k
    if not np.isfinite(z).all():
        raise RootFindingError("a root overflows double precision")
    if len(set(z.tolist())) < d:
        # Equal eigenvalues, such as several small roots lost to 0 next to
        # large ones, would stay equal under Aberth: nudge them apart.
        for n, j in enumerate(_clashes(z.tolist(), 0.0)):
            z[j] += _NUDGE * (1 + abs(z[j])) * cmath.exp(1j * (n + 1))
    return z


def _linear_root(coeffs) -> complex:
    """-a0/a1 for a0 + a1 q, each part rounded once from the _gaussian integers."""
    (r0, r1), (i0, i1) = _gaussian(coeffs)
    den = r1 * r1 + i1 * i1
    try:
        return complex(-(r0 * r1 + i0 * i1) / den, (r0 * i1 - i0 * r1) / den)
    except OverflowError:
        raise RootFindingError("root overflows double precision") from None


def _auto_dps(degree: int) -> int:
    # The digits of Newton's iterates.  Its values are exact, so any count
    # well above double precision verifies; this one, once sized for Horner
    # cancellation, is kept because it fixes the recorded root outputs.
    return max(40, 30 + int(0.45 * degree))


def solve_complex_coeffs(coeffs, tol: float = 1e-10,
                         starts: Sequence[complex] | None = None) -> RootSet:
    """All roots of a polynomial given by exact (int/mpc) ascending coeffs.

    A factor q^m (m zero low coefficients) is sliced off and reported as m
    roots at 0 with multiplicity m and residual 0.  Starts, if given, are
    for the rest, and their count is checked once.  The coefficients may be
    inexact, so each root of the rest has multiplicity 1.  It takes double
    Horner sweeps from the companion eigenvalues (_companion_starts), unless
    starts are given or it is linear: then it starts at its root, rounded
    once from the exact coefficients (_linear_root).  Sweeps that stop
    unconverged continue on exact values (_exact_ratio), and Newton then
    verifies every point at _auto_dps(degree) digits, all on one conversion
    to Gaussian integers (_Converted).  Roots within tol*(1+|z|) of each
    other are taken for two approximations of one root and nudged apart,
    and so is a point where g' = 0.  A clash or a residual above tol reruns
    the exact sweeps and Newton once; what still fails flags the result
    unconverged rather than trimmed.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        raise RootFindingError("need degree >= 1")
    degree = len(cs) - 1
    m = next(k for k, c in enumerate(cs) if c != 0)
    cs = cs[m:]
    if starts is not None and len(starts) != len(cs) - 1:
        raise RootFindingError("starts must supply one point per root")
    if len(cs) == 1:
        return _root_set([0j] * m, [0.0] * m, [m] * m, degree, tol, True)
    cs = _Converted(cs)
    dps = _auto_dps(len(cs) - 1)
    if starts is None and len(cs) == 2:
        starts = [_linear_root(cs)]

    def exact_sweeps(points):
        z = np.array(points, dtype=np.complex128)
        return aberth_sweeps(lambda p: _exact_ratio(cs.parts, p), z, step_tol=1e-14)[0]

    if starts is not None:
        raw = starts
    else:
        c = _float_parts(*cs.parts)
        if c[-1] == 0:
            raise RootFindingError("leading coefficient underflows double precision")
        if c[0] == 0:
            raise RootFindingError("constant coefficient underflows double precision")
        c = c / np.max(np.abs(c))
        raw, done = aberth_sweeps(lambda z: _horner_ratio(c, z), _companion_starts(cs))
        if not done:
            raw = exact_sweeps(raw)
    roots, residuals = newton_residuals(cs, raw, dps, tol)
    clash = _clashes(roots, tol)
    if clash or max(residuals) > tol:
        # Two points on one root get identical Jacobi updates, so the
        # simultaneous iteration separates them only after a nudge.  So
        # does a point on a critical point of g, where Newton stops at once
        # with eta inf and Aberth's correction is 0.
        stuck = clash + [j for j, r in enumerate(residuals) if r == math.inf and j not in clash]
        for k, j in enumerate(stuck):
            roots[j] += _NUDGE * (1 + abs(roots[j])) * cmath.exp(1j * (k + 1))
        roots, residuals = newton_residuals(cs, exact_sweeps(roots), dps, tol)
        clash = _clashes(roots, tol)
    return _root_set([0j] * m + roots, [0.0] * m + residuals, [m] * m + [1] * len(roots),
                     degree, tol, max(residuals) <= tol and not clash)


def _root_set(roots: list[complex], residuals: list[float], mult: list[int],
              degree: int, tol: float, converged: bool) -> RootSet:
    """The one constructor of a RootSet: the roots sorted by (real, imag)."""
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    return RootSet([roots[i] for i in order], [residuals[i] for i in order],
                   [mult[i] for i in order], degree, tol, converged)


def _clashes(roots: list[complex], tol: float) -> list[int]:
    """Indices j of roots within tol*(1+|z_j|) of a root listed before them."""
    if len(roots) < 2:
        return []
    z = np.array(roots, dtype=np.complex128)
    k = np.arange(len(z))
    near = (np.abs(z[None, :] - z[:, None]) <= tol * (1 + np.abs(z))) & (k[:, None] < k)
    return np.flatnonzero(near.any(axis=0)).tolist()


# ---------------------------------------------------------------------------
# Exact squarefree decomposition
# ---------------------------------------------------------------------------

# A fixed prime for the squarefree certificate; any prime is sound.
_CERT_PRIME = 2 ** 61 - 1


def _gcd_mod_p_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) in F_p[x]; ascending, reduced, nonzero tops."""
    while b:
        inv = pow(b[-1], -1, p)
        m = len(b) - 1
        rem = list(a)
        for k in range(len(a) - len(b), -1, -1):
            c = rem[k + m] * inv % p
            if c:
                for j in range(m):
                    rem[k + j] = (rem[k + j] - c * b[j]) % p
        rem = rem[:m]
        while rem and rem[-1] == 0:
            rem.pop()
        a, b = b, rem
    return len(a) - 1


def _squarefree_mod_p(f: BigPoly) -> bool:
    """True when f is certified squarefree by gcd(f, f') = 1 modulo a prime.

    Sound: a repeated factor g^2 of f over the integers stays a repeated
    factor of the same degree modulo p whenever p does not divide lc(f).
    A False answer only means the certificate failed, not that f has a
    repeated root.
    """
    p = _CERT_PRIME
    red = [c % p for c in f.coeffs]
    if red[-1] == 0:
        return False
    der = [k * c % p for k, c in enumerate(red)][1:]
    while der and der[-1] == 0:
        der.pop()
    return bool(der) and _gcd_mod_p_degree(red, der, p) == 0


def squarefree_factors(f: BigPoly) -> list[tuple[BigPoly, int]]:
    """Exact squarefree decomposition [(g_i, i)] of an integer polynomial.

    The g_i are primitive, pairwise coprime and squarefree, and f equals an
    integer constant times the product of the g_i^i; only nonconstant g_i
    are listed, in increasing i.  A squarefree certificate modulo a fixed
    prime answers the common case; otherwise Yun's algorithm runs over the
    integers with primitive gcds and exact divisions.
    """
    if f.degree < 1:
        return []
    if _squarefree_mod_p(f):
        return [(f.primitive(), 1)]
    df = f.derivative()
    a = BigPoly.gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    out: list[tuple[BigPoly, int]] = []
    i = 1
    while b.degree >= 1:
        d = c - b.derivative()
        a = BigPoly.gcd(b, d)
        if a.degree >= 1:
            out.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        i += 1
    return out


def find_roots(p: BigPoly, tol: float = 1e-10,
               starts: Sequence[complex] | None = None) -> RootSet:
    """All complex roots of an exact integer polynomial (integral Fractions pass).

    Roots at q = 0 are sliced off and roots at q = 1 stripped by exact
    synthetic division first, all reported with residual 0.  The rest is split exactly into squarefree
    factors (see squarefree_factors); each distinct factor goes through the
    Aberth pipeline once, and its roots are repeated with their exact
    multiplicity and the residual measured on that factor.  Callers with
    good approximations (e.g. from a structured evaluation of the same
    polynomial) can pass them as starts, one per root of the deflated part;
    they are used only when that part is squarefree, and otherwise each
    factor runs its own double-precision sweep.  The returned multiset
    always has exactly degree(p) members.
    """
    if not p:
        raise RootFindingError("zero polynomial")
    if p.degree < 1:
        raise RootFindingError("constant polynomial has no roots")
    coeffs = list(p.to_int().coeffs)
    if not all(isinstance(c, int) for c in coeffs):
        raise RootFindingError("find_roots needs integer coefficients")
    roots: list[complex] = []
    residuals: list[float] = []
    mult: list[int] = []
    zeros = next(k for k, c in enumerate(coeffs) if c != 0)
    coeffs = coeffs[zeros:]
    ones = 0
    while len(coeffs) > 1 and sum(coeffs) == 0:
        # Synthetic division by (q - 1), exact in integers.
        out = [0] * (len(coeffs) - 1)
        acc = 0
        for k in range(len(coeffs) - 1, 0, -1):
            acc = acc + coeffs[k]
            out[k - 1] = acc
        coeffs = out
        ones += 1
    for z, m in ((0j, zeros), (1 + 0j, ones)):
        roots += [z] * m
        residuals += [0.0] * m
        mult += [m] * m
    if starts is not None and len(starts) != len(coeffs) - 1:
        raise RootFindingError("starts must supply one point per root")
    factors = squarefree_factors(BigPoly(coeffs))
    if len(factors) != 1 or factors[0][1] != 1:
        starts = None
    converged = True
    for g, m in factors:
        part = solve_complex_coeffs(list(g.coeffs), tol=tol, starts=starts)
        for z, res in zip(part.roots, part.residuals):
            roots += [z] * m
            residuals += [res] * m
            mult += [m] * m
        converged = converged and part.converged
    return _root_set(roots, residuals, mult, p.degree, tol, converged)
