import cmath
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc

from itertools import combinations

import mpmath as mp
import numpy as np
import pytest

from tuttebound import regions, rootfind
from tuttebound.engine import chromatic_poly
from tuttebound.graphs import GraphError
from tuttebound.leaftree import leaf_tree_ab, t_eff_exact
from tuttebound.rootfind import _horner
from tuttebound.sp import gen_gadget_cycle, leaf_joined_tree_ast
from tuttebound.regions import (CHROMATIC, ANTIFERRO, WHEATSTONE, MAXIMAL, MINIMAL,
                                PointDiscFamily, RadiiBlowup,
                                boundary_rho, certify, cycle_counterexample,
                                disc_radii, exact_parallel_max, grid_closure,
                                log2_disc_radius, parallel_bound,
                                radii_by_iteration, radii_feasible,
                                sp_bound_margin, sp_rho_threshold,
                                transmissivity_circle_max, verify_family,
                                wheatstone_bound_margin, wheatstone_rho_threshold,
                                _cleared, _t_parallel)

LOG2 = math.log(2.0)

PUBLISHED = {
    2: (1.0, 1.0),
    3: (0.376086, 0.333333),
    4: (0.240380, 0.219471),
    5: (0.177591, 0.165204),
    6: (0.141038, 0.132841),
    7: (0.117041, 0.111213),
    8: (0.100054, 0.095697),
    9: (0.087388, 0.084008),
    10: (0.077577, 0.074877),
}


def test_thresholds_match_published_values():
    for lam, (rho_sp, rho_w) in PUBLISHED.items():
        assert abs(sp_rho_threshold(lam) - rho_sp) < 1e-6
        assert abs(wheatstone_rho_threshold(lam) - rho_w) < 1e-6


def test_threshold_defining_equations():
    for lam in range(3, 11):
        rho = sp_rho_threshold(lam)
        assert abs((1 + rho) ** lam - 2 * (1 + rho * rho) ** (lam - 1)) < 1e-9
        rho = wheatstone_rho_threshold(lam)
        assert abs((1 + rho) ** (lam + 1) - 4 * (1 - rho + 2 * rho * rho) ** (lam - 1)) < 1e-9


def test_threshold_analytic_lower_bounds():
    for lam in range(3, 11):
        assert sp_rho_threshold(lam) > LOG2 / (lam - 1.5 * LOG2)
        assert wheatstone_rho_threshold(lam) > LOG2 / (lam - LOG2)
        assert wheatstone_rho_threshold(lam) < sp_rho_threshold(lam)


def test_headline_constants():
    assert abs(1 / sp_rho_threshold(3) - 2.6589670819) < 1e-9
    assert abs(log2_disc_radius(3) - 2.8853900818) < 1e-9


def test_margin_functions_positive_inside():
    for i in range(1, 2000):
        rho = i / 2000
        assert sp_bound_margin(rho) > 0
        assert wheatstone_bound_margin(rho) > 0
    assert abs(sp_bound_margin(1e-9)) < 1e-12
    assert abs(wheatstone_bound_margin(1e-9)) < 1e-12


def test_parallel_bound_additive_identity():
    assert parallel_bound(0.0, 0.2, 0.3) == 0.2


def test_parallel_bound_is_associative():
    rng = random.Random(42)
    F = parallel_bound
    checked = 0
    while checked < 200:
        rho = rng.uniform(0.2, 0.9)
        a, b, c = (rng.uniform(0, rho * 0.4) for _ in range(3))
        if F(b, c, rho) >= rho or F(a, b, rho) >= rho:
            continue
        lhs = F(a, F(b, c, rho), rho)
        rhs = F(c, F(a, b, rho), rho)
        assert abs(lhs - rhs) < 1e-14 * (1 + abs(lhs))
        checked += 1


def test_parallel_bound_preconditions():
    with pytest.raises(GraphError):
        parallel_bound(0.3, 0.1, 0.3)
    with pytest.raises(GraphError):
        parallel_bound(0.1, 0.1, 1.2)
    with pytest.raises(GraphError, match="unknown radii choice"):
        disc_radii(0.5, 3, "median")
    with pytest.raises(GraphError, match="rho must lie in"):
        disc_radii(1.5, 3)
    with pytest.raises(GraphError, match="need lam >= 2"):
        disc_radii(0.5, 1)


def test_radii_collapse_identity():
    # bound(r_k, r_l) equals bound(r_1, r_{k+l-1}) along the sequence
    rho = sp_rho_threshold(6) * 0.95
    rs = disc_radii(rho, 6, MINIMAL)
    for k in range(1, 6):
        for ell in range(1, 6):
            if k + ell > 6:
                continue
            lhs = parallel_bound(rs[k - 1], rs[ell - 1], rho)
            rhs = parallel_bound(rs[0], rs[k + ell - 2], rho)
            assert abs(lhs - rhs) < 1e-12


def test_radii_choices():
    lam = 5
    rho = 0.9 * sp_rho_threshold(lam)
    rmin = disc_radii(rho, lam, MINIMAL)
    assert abs(rmin[0] - rho * rho) < 1e-16
    rmax = disc_radii(rho, lam, MAXIMAL)
    assert abs(rmax[-1] - rho) < 1e-12
    assert all(x <= y + 1e-15 for x, y in zip(rmin, rmax))


def test_radii_agree_with_iteration():
    for lam in (3, 5, 8):
        rho = sp_rho_threshold(lam) * 0.9
        for choice in (MINIMAL, MAXIMAL):
            closed = disc_radii(rho, lam, choice)
            iterated = radii_by_iteration(rho, closed[0], lam)
            assert max(abs(a - b) for a, b in zip(closed, iterated)) < 1e-13


def test_radii_coincide_exactly_at_threshold():
    rho = sp_rho_threshold(3)
    a = disc_radii(rho, 3, MINIMAL)
    b = disc_radii(rho, 3, MAXIMAL)
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9
    assert abs(a[0] - rho * rho) < 1e-9 and abs(a[1] - rho) < 1e-9


def test_radii_blow_up_beyond_threshold():
    lam = 4
    rho = min(0.99, sp_rho_threshold(lam) * 2.5)
    with pytest.raises(RadiiBlowup):
        radii_by_iteration(rho, rho * rho, 12)
    assert not radii_feasible(rho, lam, MINIMAL)


def test_feasibility_equivalences_on_rho_grid():
    # minimal feasible <=> maximal feasible <=> defining inequality <=> rho <= rho#
    for lam in (3, 4, 6):
        star = sp_rho_threshold(lam)
        for i in range(1, 40):
            rho = i / 40
            if abs(rho - star) < 1e-9:
                continue
            want = rho <= star
            ineq = (1 + rho) ** lam <= 2 * (1 + rho * rho) ** (lam - 1)
            assert radii_feasible(rho, lam, MINIMAL) == want
            assert radii_feasible(rho, lam, MAXIMAL) == want
            assert ineq == want


def test_certify_examples():
    assert certify(4.2, 3).certified
    q = 1 + 2 * cmath.exp(1j * math.pi / 3)
    out = certify(q, 3)
    assert not out.certified and "fails" in out.reason
    out = certify(4.9, 3, WHEATSTONE)
    assert out.certified and abs(out.wheatstone_cut - 2.0) < 1e-12
    out = certify(3.9, 3, WHEATSTONE)
    assert not out.certified                  # |q-2| = 1.9 < 2
    assert certify(3.9, 3).certified          # plain mode passes


def test_certify_strictness_at_two():
    assert not certify(2.0, 2).certified      # |q-1| = 1 needs strict
    out = certify(2.5, 2)
    assert out.certified
    assert abs(out.family.radii[0] - 1.0 / 1.5) < 1e-12


def test_certify_validation():
    with pytest.raises(GraphError):
        certify(0.0, 3)
    with pytest.raises(GraphError):
        certify(1.0, 3)
    with pytest.raises(GraphError):
        certify(3.0, 1)
    with pytest.raises(GraphError, match="unknown mode"):
        certify(9.0, 3, "ferro")
    assert not certify(9.0, 2, WHEATSTONE).certified


def test_cached_threshold_still_validates_lambda():
    assert sp_rho_threshold(3) == sp_rho_threshold(3)
    for lam in (3.0, 1, 2.5):
        with pytest.raises(GraphError):
            sp_rho_threshold(lam)


def test_certify_s1_radius_beats_rho_squared():
    # Under certification the admissible weight radius is at least rho^2.
    for lam in (3, 4, 5):
        for scale in (1.0, 1.3, 2.0):
            q = 1 + scale / sp_rho_threshold(lam)
            out = certify(q, lam)
            rho = 1 / abs(q - 1)
            assert out.certified
            assert out.s1_radius >= rho * rho - 1e-12


def test_verify_family_accepts_certified():
    for mode in (CHROMATIC, ANTIFERRO):
        for q in (4.2, -1.5 + 2.8j, 1 + 3.1 * cmath.exp(2j)):
            out = certify(q, 3, mode)
            assert out.certified
            assert verify_family(out.family, samples=3000)
    out = certify(5.2, 4, CHROMATIC)
    assert verify_family(out.family, samples=3000)


def test_verify_family_rejects_bad_families():
    q = 1.5 + 0.2j
    rho = 1 / abs(q - 1)
    assert not verify_family(PointDiscFamily(3, q, (rho, rho)))
    # a family whose top set reaches t = 1
    assert not verify_family(PointDiscFamily(3, 4.2, (0.1, 1.0)))
    # non-nested radii
    assert not verify_family(PointDiscFamily(3, 4.2, (0.3, 0.2)))


def test_arc_absorbs_disc_in_both_directions():
    # Forward: every arc point maps the rho-disc into itself under the
    # parallel rule; converse: points off the arc push some disc point out.
    rng = random.Random(5)
    count = 0
    while count < 20:
        q = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(q - 1) < 1.2:
            continue
        rho = 1 / abs(q - 1)
        boundary = rho * np.exp(2j * np.pi * np.arange(512) / 512)
        for v in np.linspace(-1.0, 0.0, 21):
            t = v / (q + v)
            combo = _t_parallel(t, boundary, q)
            assert np.all(np.abs(combo) <= rho * (1 + 1e-9))
        misses = 0
        for _ in range(20):
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if abs(y.imag) < 0.05 or not (0 <= y.real <= 1):
                if abs(y - 1) < 0.05:
                    continue
                t = (y - 1) / (y + q - 1)
                combo = _t_parallel(t, boundary, q)
                if np.max(np.abs(combo)) <= rho * (1 + 1e-9):
                    misses += 1
        assert misses == 0
        count += 1


def test_exact_parallel_max_zero():
    assert exact_parallel_max(0.0, 0.0, 2.5 + 1j) == 0.0


def test_exact_parallel_max_below_naive_bound():
    rng = random.Random(2)
    count = 0
    while count < 60:
        q = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(q - 1) < 1.05:
            continue
        rho = 1 / abs(q - 1)
        x = rng.uniform(0, 0.92 * rho)
        y = rng.uniform(0, 0.92 * rho)
        f = exact_parallel_max(x, y, q, 512)
        assert f <= parallel_bound(x, y, rho) + 1e-7
        count += 1


def test_exact_parallel_max_diagonal_consistency():
    # The polydisc maximum coincides with the diagonal, so the dedicated
    # diagonal scan must agree with the closed form for unequal radii.
    rng = random.Random(9)
    count = 0
    while count < 8:
        q = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(q - 1) < 1.3:
            continue
        x = rng.uniform(0.05, 0.9) / abs(q - 1)
        diag = exact_parallel_max(x, x, q, 2048)
        torus = exact_parallel_max(x, x * (1 + 1e-13), q, 2048)
        assert abs(diag - torus) < 1e-12
        count += 1


def _unequal_pairs(count=160):
    """Seeded (x, y, q) with x != y and |1 - |q-1|^2 x^2 y^2| >= 0.1, some
    with the pole of t' -> t || t' inside the disc |t'| < y."""
    rng = np.random.default_rng(20)
    pairs = []
    while len(pairs) < count:
        x, y = rng.uniform(0.05, 0.95, 2)
        q = 1.0 + rng.uniform(0.3, 4.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        if abs(1.0 - (abs(q - 1) * x * y) ** 2) >= 0.1:
            pairs.append((x, y, q))
    return pairs


def _grid_max(x, y, q):
    """Largest |t || t'| on a 256 x 256 torus grid, refined by nested local grids."""
    u = v = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    h = 2.0 * np.pi / 256
    for _ in range(7):
        vals = np.abs(_t_parallel(x * np.exp(1j * u)[:, None], y * np.exp(1j * v)[None, :], q))
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = vals[i, j]
        u, v = u[i] + np.linspace(-2 * h, 2 * h, 41), v[j] + np.linspace(-2 * h, 2 * h, 41)
        h /= 10.0
    return best


def test_exact_parallel_max_unequal_radii_reaches_the_grid_maximum():
    # A maximum that falls below attained values would shrink the radii
    # boundary_rho grows from it, the unsound direction.
    pairs = _unequal_pairs()
    assert sum(abs(q - 1) * x * y > 1 for x, y, q in pairs) >= 15
    for x, y, q in pairs:
        grid = _grid_max(x, y, q)
        assert exact_parallel_max(x, y, q) >= grid * (1 - 1e-14), (x, y, q)


def test_unequal_radii_maximum_is_attained_on_the_torus():
    # The closed form is no overestimate: at the scan's angle of t, the
    # farthest point of the image circle pulls back through the inverse
    # Moebius map to a t' on |t'| = y where |t || t'| takes that value.
    x, y, q = (np.array(col) for col in zip(*_unequal_pairs()))
    theta, value = regions._offdiagonal_maxima(x, y, q, 4096)
    t = x * np.exp(1j * theta)
    den = 1.0 - (np.abs(q - 1) * x * y) ** 2
    centre = (t - y * y * np.conj(q - 1) * (np.conj(t) + (q - 2) * x * x)) / den
    far = centre * (1.0 + y * np.abs(1 + (q - 2) * t - (q - 1) * t * t) / np.abs(den * centre))
    tp = (far - t) / (1 + (q - 2) * t - (q - 1) * t * far)
    assert np.all(np.abs(np.abs(tp) - y) <= 1e-12 * y)
    attained = np.abs(_t_parallel(t, tp * (y / np.abs(tp)), q))
    assert np.all(np.abs(attained - value) <= 1e-12 * value)
    assert np.array_equal(value, [exact_parallel_max(*p) for p in zip(x, y, q)])


def test_boundary_rho_at_least_uniform_threshold():
    got = boundary_rho(3, 0.0, 1e-6)
    assert got >= sp_rho_threshold(3) - 1e-6
    up = boundary_rho(3, math.pi, 1e-6)
    assert up > sp_rho_threshold(3) + 1e-3
    # mirror symmetry
    a = boundary_rho(3, 1.0, 1e-6)
    b = boundary_rho(3, -1.0, 1e-6)
    assert abs(a - b) < 1e-5


def test_boundary_rho_pairwise_reduction_above_three():
    got = boundary_rho(4, math.pi, 1e-4, 1024)
    assert got >= sp_rho_threshold(4) - 1e-4


def test_boundary_rho_at_lambda_five_starts_from_the_threshold():
    # At theta = 0 the exact maxima attain the naive bound, so the top radius
    # at the bisected threshold passes rho by rounding; the start check
    # allows radii_feasible's slack and the bisection stays at the threshold.
    tol = 1e-6
    got = boundary_rho(5, 0.0, tol)
    assert sp_rho_threshold(5) <= got <= sp_rho_threshold(5) + tol


def test_golden_argmax_elements_match_single_calls():
    # Lockstep must not couple elements: each runs its own search.
    rng = np.random.default_rng(11)
    q = 1.0 - np.exp(-1j * rng.uniform(0, 2 * np.pi, 9)) / rng.uniform(0.2, 0.9, 9)
    x, y = rng.uniform(0.01, 0.3, 9), rng.uniform(0.01, 0.3, 9)
    lo = rng.uniform(-4.0, 4.0, 9)
    hi = lo + rng.uniform(0.01, 3.0, 9)

    def f(x, y, q):
        return lambda u: np.abs(_t_parallel(x * np.exp(1j * u), y * np.exp(0.5j * u), q))

    arg, val = regions._golden_argmax(f(x, y, q), lo, hi, iters=60)
    for i in range(9):
        one = slice(i, i + 1)
        a1, v1 = regions._golden_argmax(f(x[one], y[one], q[one]), lo[one], hi[one], iters=60)
        assert a1[0] == arg[i] and v1[0] == val[i]


@pytest.mark.parametrize("lam, tol, resolution", [(3, 1e-6, 512), (4, 1e-4, 256)])
def test_boundary_rho_angles_do_not_couple(lam, tol, resolution):
    thetas = [0.0, 0.4, 2.0, math.pi, 5.1]
    together = boundary_rho(lam, thetas, tol, resolution)
    assert isinstance(together, np.ndarray) and together.shape == (5,)
    for theta, value in zip(thetas, together):
        alone = boundary_rho(lam, theta, tol, resolution)
        assert type(alone) is float and alone == value


def test_boundary_rho_stops_at_the_rounding_floor():
    # A tol below one ulp of rho cannot be met: each bracket closes when
    # its midpoint rounds to an end.
    fine = boundary_rho(3, 1.0, 1e-300, 64)
    assert abs(fine - boundary_rho(3, 1.0, 1e-12, 64)) <= 1e-12


def test_boundary_rho_refuses_non_finite_angles():
    with pytest.raises(GraphError, match="theta must be finite"):
        boundary_rho(3, [0.0, math.nan])


@pytest.mark.parametrize("call, message", [
    (lambda: exact_parallel_max(0.1, 0.2, 3 + 1j, resolution=0), "resolution must be >= 1"),
    (lambda: exact_parallel_max(0.1, 0.2, 3 + 1j, resolution=-4), "resolution must be >= 1"),
    (lambda: exact_parallel_max(-0.1, 0.2, 3 + 1j), "radii must be nonnegative"),
    (lambda: exact_parallel_max(math.nan, 0.2, 3 + 1j), "radii must be nonnegative and finite"),
    (lambda: exact_parallel_max(0.1, math.inf, 3 + 1j), "radii must be nonnegative and finite"),
    (lambda: boundary_rho(2, 0.0), "boundary scan needs lam >= 3"),
], ids=["resolution-0", "resolution-negative", "negative-radius", "nan-radius", "infinite-radius",
        "boundary-lam-2"])
def test_circle_scans_refuse_bad_arguments(call, message):
    # boundary_rho and exact_parallel_max share the scan, so they share its refusals.
    with pytest.raises(GraphError, match=message):
        call()


def test_certified_weight_bound_beats_rho_squared_on_grid():
    # Inside certification the admissible radius never drops below rho^2.
    for lam in (3, 4, 6):
        star = sp_rho_threshold(lam)
        for i in range(1, 30):
            rho = star * i / 30
            radii = disc_radii(rho, lam, MAXIMAL)
            assert radii[0] >= rho * rho - 1e-12


def test_transmissivity_circle_scan_small_depths():
    v, _ = transmissivity_circle_max(2, 1, samples=512)
    assert abs(v - 0.5) < 1e-9                  # |1/(1-q)| on |q-1|=2
    v, _ = transmissivity_circle_max(2, 3, samples=512)
    assert v < 1.0


def test_transmissivity_circle_scan_needs_two_samples():
    for samples in (1, 0):
        with pytest.raises(GraphError, match="samples must be >= 2"):
            transmissivity_circle_max(2, 3, samples=samples)


def test_grid_closure_escapes_inside():
    fam = grid_closure(1.1, 3, 128)
    assert fam.escaped


def test_grid_closure_fig_style_point():
    q = 1 + 2.2 * cmath.exp(1j * math.pi / 6)
    fam = grid_closure(q, 3, 128)
    assert not fam.escaped and fam.converged
    # the seed point and its square are marked in the level-1 raster
    t0 = 1 / (1 - q)
    h = 2.0 / fam.resolution
    for point in (t0, t0 * t0):
        ix = int((point.real + 1) / h)
        iy = int((point.imag + 1) / h)
        assert fam.levels[0][iy, ix]
    assert verify_family(fam, samples=2000)


def test_grid_closure_contained_in_certified_discs():
    q = 4.2
    fam = grid_closure(q, 3, 128)
    assert not fam.escaped
    out = certify(q, 3)
    cell = 2.0 * math.sqrt(2.0) / fam.resolution
    t0 = 1 / (1 - q)
    for k in (1, 2):
        for ix, iy in fam.cells(k):
            c = fam.center(ix, iy)
            assert abs(c) <= out.family.radii[k - 1] + cell or abs(c - t0) <= cell


def test_grid_closure_level_four():
    q = 1 + 3.4 * cmath.exp(1j * math.pi / 5)
    fam = grid_closure(q, 4, 128)
    assert not fam.escaped and fam.converged
    sizes = [int(level.sum()) for level in fam.levels]
    assert sizes[0] <= sizes[1] <= sizes[2]       # cumulative nesting
    assert verify_family(fam, samples=2000)


MID_SWEEP_ESCAPES = [
    (1 + 1.6 * cmath.exp(1j * math.pi / 6), 3, [176, 646],
     "3e56b43547b78963d6b7751ef27ff9bfa4c2962cca924735e0e30be49704b966"),
    (2.3, 4, [548, 1816, 1838],
     "964ea44ba229f85cf3ed36a954e1a926172133bfb99a66afdf815e93b397ce68"),
]


@pytest.mark.parametrize("q, lam, counts, digest", MID_SWEEP_ESCAPES)
def test_grid_closure_mid_sweep_escape_state(q, lam, counts, digest):
    # An escape in sweep 4 keeps every chunk marked before the escaping one.
    fam = grid_closure(q, lam, 64)
    assert fam.escaped and fam.converged
    assert fam.reason == "a combination reached |t| >= 1"
    assert fam.sweeps == 4
    assert [int(level.sum()) for level in fam.levels] == counts
    raw = b"".join(np.ascontiguousarray(level).tobytes() for level in fam.levels)
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("q, lam, counts, digest", MID_SWEEP_ESCAPES + [
    # Their escapes land in blocks 400 and 9 of the chunk, after blocks that
    # reach 884 and 782 unmarked cells, which must stay unmarked.
    (1 + 1.8 * cmath.exp(3j * math.pi / 4), 3, [361, 1558],
     "94103f154fd92924cea376b17e203c37b91d12950494a951c0cd9594cdb45f5f"),
    (1 + 2.5 * cmath.exp(2j * math.pi / 3), 4, [53, 342, 417],
     "b62a7b5be4ffb8bb4ce30fb0ace281144ec7b7b89e60b02340d5572afca3d542"),
])
def test_grid_closure_escape_state_in_small_blocks(monkeypatch, q, lam, counts, digest):
    # With 64-pair blocks every chunk spans many blocks; a chunk is still
    # marked whole or not at all, so the rasters are those of whole chunks.
    want = grid_closure(q, lam, 64)
    monkeypatch.setattr(regions, "_BLOCK", 64)
    fam = grid_closure(q, lam, 64)
    assert (fam.escaped, fam.converged, fam.sweeps) == (True, True, want.sweeps)
    assert fam.reason == want.reason == "a combination reached |t| >= 1"
    assert [int(level.sum()) for level in fam.levels] == counts
    raw = b"".join(np.ascontiguousarray(level).tobytes() for level in fam.levels)
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("q, lam, counts, digest", [
    (1 + 2.2 * cmath.exp(1j * math.pi / 6), 3, [5557, 25245],
     "c44d88fdf4f3ad3c8344d0daea7475c251753ef1db8460acc7517bef78078c49"),
    (1 + 3.4 * cmath.exp(1j * math.pi / 5), 4, [1099, 4686, 11795],
     "b750cd5359535664023cb36e3ec4149c37a56454498f853b28ec2378ac42b18b"),
])
def test_grid_closure_resolution_512_bits_in_a_bounded_working_set(q, lam, counts, digest):
    # Scanning whole 2^21-pair chunks takes 92 MB traced on the first point;
    # blocks of _BLOCK pairs keep the working set near 14 MB.
    tracemalloc.start()
    try:
        fam = grid_closure(q, lam, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak
    assert not fam.escaped and fam.converged
    assert [int(level.sum()) for level in fam.levels] == counts
    raw = b"".join(np.ascontiguousarray(level).tobytes() for level in fam.levels)
    assert hashlib.sha256(raw).hexdigest() == digest


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(28)
    for n in (0, 1, 2, 7, 1000):
        cells = rng.integers(0, 50, n)
        got = regions._sorted_unique(cells)
        assert got.dtype == np.unique(cells).dtype
        assert got.tobytes() == np.unique(cells).tobytes()


def test_grid_closure_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (numpy >= 2.3), which a
    # one-shot `region grid` paid in full; the closure dedupes by sorting.
    code = ("import sys; from tuttebound.regions import grid_closure; "
            "fam = grid_closure(3 + 1j, 3, 16); "
            "assert fam.sweeps > 0 and 'numpy.ma' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(regions.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_grid_closure_zero_parallel_denominator():
    # t0 = 1/(1-q) = i/2048 lies in the cell centred at c = (1+i)/64, and
    # 1 + (q-1) c^2 is exactly 0, so the first parallel pair is undefined.
    fam = grid_closure(1 + 2048j, 3, 64)
    assert fam.escaped and fam.converged and fam.sweeps == 1
    assert fam.reason == "undefined parallel combination inside the rules"
    assert [int(level.sum()) for level in fam.levels] == [1, 1]


def test_grid_closure_validation():
    with pytest.raises(GraphError):
        grid_closure(4.2, 3, 100)          # not a power of two
    with pytest.raises(GraphError):
        grid_closure(4.2, 5, 128)
    with pytest.raises(GraphError):
        grid_closure(0.0, 3, 128)


def _closure_oracle(q, lam, res):
    """Least fixed point of the raster rules by plain all-pairs rounds.

    Every round pairs all marked cells under the rule table of grid_closure
    (parallel (k, ell) -> k+ell while k+ell <= L-1, products (k, L-1) -> k),
    with no chunks, no bookkeeping of new cells and no skipping, until a
    round adds nothing.  None when a value or a marked cell center leaves
    the open unit disc.
    """
    h = 2.0 / res
    levels = [np.zeros((res, res), dtype=bool) for _ in range(lam - 1)]

    def mark(level, vals):
        if not np.all(np.abs(vals) < 1.0):
            return False
        ix = np.minimum(((vals.real + 1.0) / h).astype(np.int64), res - 1)
        iy = np.minimum(((vals.imag + 1.0) / h).astype(np.int64), res - 1)
        for m in range(level - 1, lam - 1):
            levels[m][iy, ix] = True
        return True

    def centers(k):
        iy, ix = np.nonzero(levels[k - 1])
        return (-1.0 + (ix + 0.5) * h) + 1j * (-1.0 + (iy + 0.5) * h)

    if not mark(1, np.array([1.0 / (1.0 - q)])):
        return None
    while True:
        before = [level.copy() for level in levels]
        for k in range(1, lam):
            for ell in range(k, lam):
                a, b = centers(k)[:, None], centers(ell)[None, :]
                with np.errstate(divide="ignore", invalid="ignore"):
                    if k + ell <= lam - 1 and not mark(k + ell, _t_parallel(a, b, q).ravel()):
                        return None
                if ell == lam - 1 and not mark(k, (a * b).ravel()):
                    return None
        c = centers(lam - 1)
        if np.any(c.real * c.real + c.imag * c.imag >= 1.0):
            return None
        if all(np.array_equal(x, y) for x, y in zip(before, levels)):
            return levels


@pytest.mark.parametrize("res", [32, 64])
@pytest.mark.parametrize("lam, offsets", [(3, (1.5, 3.0)), (4, (2.5, 4.5))])
def test_grid_closure_matches_all_pairs_oracle(res, lam, offsets):
    # Offsets reach below the certification threshold, where the regions
    # grow around 0 and most product pairs land in already-marked cells.
    rng = random.Random(f"oracle:{res}:{lam}")
    matched = 0
    while matched < 12:
        q = 1 + rng.uniform(*offsets) * cmath.exp(1j * rng.uniform(0.0, math.pi))
        want = _closure_oracle(q, lam, res)
        fam = grid_closure(q, lam, res)
        if want is None:
            assert fam.escaped, q
            continue
        assert not fam.escaped and fam.converged, q
        for got, level in zip(fam.levels, want):
            assert np.array_equal(got, level), q
        matched += 1


@pytest.mark.parametrize("res", [32, 64])
@pytest.mark.parametrize("lam, offsets", [(3, (1.5, 3.0)), (4, (2.5, 4.5))])
def test_grid_closure_matches_all_pairs_oracle_in_small_blocks(monkeypatch, res, lam, offsets):
    monkeypatch.setattr(regions, "_BLOCK", 64)
    test_grid_closure_matches_all_pairs_oracle(res, lam, offsets)


@pytest.mark.parametrize("q, lam, n1", [(1 + 2.2 * cmath.exp(1j * math.pi / 6), 3, 414),
                                         (1 + 3.4 * cmath.exp(1j * math.pi / 5), 4, 131)])
def test_grid_closure_evaluates_each_symmetric_pair_once(monkeypatch, q, lam, n1):
    # t || t' = t' || t, so the (1, 1) rule needs each unordered pair of
    # level-1 cells once: at least N1 (N1 + 1) / 2 values, not N1^2.  The
    # rule (1, 2) at lam = 4 pairs two levels and keeps all N1 N2 pairs.
    sizes = []

    def counted(a, b, q):
        sizes.append(np.broadcast(a, b).size)
        return _t_parallel(a, b, q)

    monkeypatch.setattr(regions, "_t_parallel", counted)
    fam = grid_closure(q, lam, 128)
    assert not fam.escaped and fam.converged
    assert int(fam.levels[0].sum()) == n1
    two_levels = n1 * int(fam.levels[1].sum()) if lam == 4 else 0
    assert n1 * (n1 + 1) // 2 <= sum(sizes) - two_levels <= 0.6 * n1 * n1


def test_certified_points_are_zero_free_in_practice():
    # Direct meaning of certification: at a certified q, no admissible
    # weighting of a graph with maxmaxflow <= lam makes Z vanish.
    import random as pyrandom
    from conftest import random_sp_ast
    from tuttebound.engine import tree_ab
    from tuttebound.graphs import maxmaxflow
    from tuttebound.sp import realize

    rng = pyrandom.Random(424242)
    lam = 3
    for q in (4.2, 1 + 2.8j, -1.4 - 2.6j):
        out = certify(q, lam, ANTIFERRO)
        assert out.certified
        checked = 0
        while checked < 40:
            tt, tree = realize(random_sp_ast(rng, rng.randint(2, 9)))
            if maxmaxflow(tt.graph, limit=lam) > lam:
                continue
            m = tt.graph.edge_count
            if rng.random() < 0.5:
                weights = {i: -rng.random() for i in range(m)}          # arc weights
            else:
                weights = {}
                for i in range(m):                                       # disc weights
                    t = out.s1_radius * rng.random() * cmath.exp(2j * math.pi * rng.random())
                    weights[i] = q * t / (1 - t)
            z = tree_ab(tree, complex(q), weights).z
            assert abs(z) > 1e-9 * (1 + abs(z))
            checked += 1


def test_cycle_counterexample_values():
    ce = cycle_counterexample()
    assert ce.count == 31
    assert abs(ce.witness.real - (-0.144883)) < 1e-4
    assert abs(ce.witness.imag - (-1.651418)) < 1e-4
    assert 2.00945 <= ce.witness_offset <= 2.00948
    assert ce.cycle_poly_degree == 94
    assert ce.verified and ce.residual < 1e-6


def test_counterexample_residual_is_abs_g_where_the_ratio_vanishes(monkeypatch):
    # g/g' is 0 where g or g' vanishes, which says nothing of the witness:
    # the residual is then |g| on the 94-vertex polynomial, never 0.
    monkeypatch.setattr(rootfind, "_exact_ratio", lambda exact, z: np.zeros(len(z), complex))
    ce = cycle_counterexample()
    poly = chromatic_poly(gen_gadget_cycle(leaf_joined_tree_ast(2, 5), 3)[1])
    with mp.workdps(400):
        want = float(abs(poly(mp.mpc(ce.witness))))
    assert ce.residual > 0 and abs(ce.residual - want) <= 1e-15 * want


def test_cycle_counterexample_roots_are_distinct():
    # Starts from the tree's jets put one approximation on each of the 31
    # roots; Horner starts on the cleared coefficients used to land pairs
    # on the same root.
    ce = cycle_counterexample()
    cleared = _cleared(*t_eff_exact(2, 5))
    assert min(abs(a - b) for a, b in combinations(ce.roots, 2)) >= 1e-3
    with mp.workdps(40):
        for z in ce.roots:
            p, dp = _horner(cleared, mp.mpc(z))
            assert abs(p / dp) / (1 + abs(z)) <= 1e-10


def test_counterexample_transmissivity_is_in_lowest_terms():
    # cycle_counterexample solves B - omega(qA + B) from t_eff_exact, which
    # returns the pair itself: gcd(B, qA + B) = 1, as its docstring proves
    # from the coprimality of A and B (test_pair_gcd_is_trivial).
    state = leaf_tree_ab(2, 5)
    num, den = t_eff_exact(2, 5)
    assert (num.degree, den.degree) == (state.b.degree, state.a.degree + 1)


def test_grid_closure_single_cell():
    # The one cell is centred at 0, so the product threshold divides by
    # |a| = 0; pytest turns the RuntimeWarning that would raise into an error.
    fam = grid_closure(3 + 1j, 3, 1)
    assert fam.converged and not fam.escaped
    assert [int(level.sum()) for level in fam.levels] == [1, 1]
    with pytest.raises(GraphError):
        grid_closure(3 + 1j, 3, 0)
